/**
 * @file
 * Histogram kernel (3:2 in Table 2).
 *
 * Streams a data array while maintaining bin counters in the lower
 * half of TS; every segment the bins are flushed to the output
 * structure and reset. Bin updates within a segment are commutative
 * increments (no intra-phase ordering needed), but the
 * update->flush->reset chain requires ordering points whose count
 * scales inversely with TS size.
 */

#include <algorithm>
#include <sstream>
#include <vector>

#include "workloads/apps.hh"

namespace olight
{

namespace
{

constexpr float binWidth = 1.0f;
constexpr int maxValue = 15;

class Hist : public Workload
{
  public:
    WorkloadInfo
    info() const override
    {
        return {"Hist", "histogram binning", "3:2", true};
    }

    void
    initMemory(SparseMemory &mem) const override
    {
        fillIntFloats(mem, arrays_[0], 0, maxValue, 909);
    }

    std::vector<HostArraySpec>
    hostTraffic() const override
    {
        return {hostSpec(arrays_[0], false, 0)};
    }

    bool
    check(const SparseMemory &mem, std::string &why) const override
    {
        SparseMemory init;
        initMemory(init);
        const PimArray &data = arrays_[0];
        const PimArray &out = arrays_[1];
        std::uint64_t lane_stride = map_->laneStride();
        std::uint32_t bin_slots = binSlots();
        std::uint64_t seg_blocks = segmentBlocks();
        if (bin_slots == 0) {
            why = "Hist: the TS holds no bin slot";
            return false;
        }
        // The ALU saturates values past the last bin into it.
        const std::uint32_t last_bin = bin_slots * 8 - 1;

        for (std::uint16_t ch = 0; ch < cfg_.numChannels; ++ch) {
            KernelBuilder kb(*map_, ch);
            std::uint64_t blocks = kb.blocksPerChannel(data);
            std::uint64_t segments =
                (blocks + seg_blocks - 1) / seg_blocks;
            for (std::uint64_t s = 0; s < segments; ++s) {
                std::uint64_t lo = s * seg_blocks;
                std::uint64_t hi =
                    std::min(blocks, lo + seg_blocks);
                for (std::uint32_t lane = 0; lane < cfg_.bmf;
                     ++lane) {
                    std::vector<std::uint32_t> want(bin_slots * 8,
                                                    0);
                    for (std::uint64_t j = lo; j < hi; ++j) {
                        std::uint64_t addr =
                            kb.blockAddr(data, j) +
                            lane * lane_stride;
                        float vals[8];
                        init.read(addr, vals, sizeof(vals));
                        for (float v : vals)
                            ++want[std::min(std::uint32_t(v),
                                            last_bin)];
                    }
                    for (std::uint32_t b = 0; b < bin_slots; ++b) {
                        std::uint64_t oaddr =
                            kb.blockAddr(out,
                                         s * bin_slots + b) +
                            lane * lane_stride;
                        for (std::uint32_t i = 0; i < 8; ++i) {
                            std::uint32_t got =
                                mem.readU32(oaddr + 4 * i);
                            if (got != want[b * 8 + i]) {
                                std::ostringstream os;
                                os << "Hist[ch" << ch << " seg "
                                   << s << " lane " << lane
                                   << " bin " << (b * 8 + i)
                                   << "]: got " << got << ", want "
                                   << want[b * 8 + i];
                                why = os.str();
                                return false;
                            }
                        }
                    }
                }
            }
        }
        return true;
    }

  protected:
    void
    buildImpl() override
    {
        addArray("data", elements_, 0);
        std::uint64_t seg_blocks = segmentBlocks();
        std::uint64_t blocks_per_ch =
            (elements_ * sizeof(float) + map_->channelSweepBytes() -
             1) /
            map_->channelSweepBytes();
        std::uint64_t segments =
            (blocks_per_ch + seg_blocks - 1) / seg_blocks;
        addArray("out_bins",
                 segments * binSlots() *
                     map_->channelSweepBytes() / sizeof(float),
                 0);
        const PimArray &data = arrays_[0];
        const PimArray &out = arrays_[1];
        std::uint16_t bins = std::uint16_t(binSlots() * 8);

        forEachChannel(
            *map_, cfg_.numChannels, streams_,
            [&](KernelBuilder &kb) {
                // Bins start zeroed (TS is cleared at reset).
                std::uint64_t s = 0;
                kb.forEachTile(
                    data, seg_blocks,
                    [&](std::uint64_t lo, std::uint64_t m) {
                        kb.phase(data.memGroup,
                                 [&](KernelBuilder &p) {
                                     for (std::uint64_t j = lo;
                                          j < lo + m; ++j)
                                         p.fetchOp(AluOp::BinCount,
                                                   0, 0, data, j,
                                                   binWidth, 0.0f,
                                                   bins);
                                 })
                            .storePhase(out, s * binSlots(),
                                        binSlots())
                            .computePhase(AluOp::Zero, binSlots(),
                                          data.memGroup);
                        ++s;
                    });
            });
    }

  private:
    std::uint32_t binSlots() const { return cfg_.tsSlots() / 2; }
    std::uint64_t
    segmentBlocks() const
    {
        return 8ull * cfg_.tsSlots();
    }
};

} // namespace

std::unique_ptr<Workload>
makeHist()
{
    return std::make_unique<Hist>();
}

} // namespace olight
