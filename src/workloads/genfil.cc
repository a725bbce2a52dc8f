/**
 * @file
 * Genomic sequence filtering (Gen_Fil, 3:1 in Table 2; the GRIM
 * algorithm).
 *
 * Seed-location filtering compares a query bit-vector against
 * candidate bit-vectors of the reference genome at pseudo-random
 * (hash-derived) locations, at a fixed 128 B granularity (4 command
 * blocks = 1/16 of a row buffer). The access pattern is irregular —
 * each candidate lands in an arbitrary DRAM row — and the
 * popcount / threshold chain per candidate needs ordering points
 * whose count is independent of TS size, which is why Gen_Fil shows
 * no TS variability in Figure 12.
 */

#include <bit>
#include <sstream>

#include "sim/random.hh"
#include "workloads/apps.hh"

namespace olight
{

namespace
{

constexpr float popcntThreshold = 256.0f;
constexpr std::uint64_t candidateBlocks = 4; // 128 B granularity

class GenFil : public Workload
{
  public:
    WorkloadInfo
    info() const override
    {
        return {"Gen_Fil", "genomic sequence filtering (GRIM)",
                "3:1", false};
    }

    void
    initMemory(SparseMemory &mem) const override
    {
        fillBytes(mem, arrays_[0], 1111); // genome bit-vectors
        fillBytes(mem, arrays_[2], 2222); // query bit-vectors
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
        const PimArray &g = arrays_[0];
        const PimArray &out = arrays_[1];
        const PimArray &q = arrays_[2];
        std::uint64_t lane_stride = map_->laneStride();

        for (std::uint16_t ch = 0; ch < cfg_.numChannels; ++ch) {
            KernelBuilder kb(*map_, ch);
            std::uint64_t cands = candidates();
            for (std::uint64_t t = 0; t < cands; ++t) {
                std::uint64_t j = candidateBlock(t);
                for (std::uint32_t lane = 0; lane < cfg_.bmf;
                     ++lane) {
                    const auto &qblk = init.blockOrZero(
                        kb.blockAddr(q, 0) + lane * lane_stride);
                    std::uint32_t bits = 0;
                    for (std::uint64_t i = 0; i < window(); ++i) {
                        const auto &gblk = init.blockOrZero(
                            kb.blockAddr(g, j + i) +
                            lane * lane_stride);
                        for (std::uint32_t byte = 0; byte < 32;
                             ++byte)
                            bits += std::popcount(std::uint8_t(
                                qblk[byte] & gblk[byte]));
                    }
                    float want = float(bits) >= popcntThreshold
                                     ? 1.0f
                                     : 0.0f;
                    std::uint64_t oaddr = kb.blockAddr(out, t) +
                                          lane * lane_stride;
                    float got = mem.readFloat(oaddr);
                    if (got != want) {
                        std::ostringstream os;
                        os << "Gen_Fil[ch" << ch << " cand " << t
                           << " lane " << lane << "]: got " << got
                           << ", want " << want << " (bits=" << bits
                           << ")";
                        why = os.str();
                        return false;
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
        addArray("g", elements_, 0);
        addArray("out_f",
                 candidates() * map_->channelSweepBytes() /
                     sizeof(float),
                 0);
        addArray("q", map_->channelSweepBytes() / sizeof(float), 0);
        const PimArray &g = arrays_[0];
        const PimArray &out = arrays_[1];
        const PimArray &q = arrays_[2];

        constexpr std::uint8_t slotQ = 0, slotA = 1, slotR = 2;
        forEachChannel(
            *map_, cfg_.numChannels, streams_,
            [&](KernelBuilder &kb) {
                kb.residentLoad(slotQ, q, 0, g.memGroup);
                std::uint64_t cands = candidates();
                for (std::uint64_t t = 0; t < cands; ++t) {
                    std::uint64_t j = candidateBlock(t);
                    kb.phase(g.memGroup,
                             [&](KernelBuilder &p) {
                                 p.fetchOp(AluOp::Popcnt, slotA,
                                           slotQ, g, j);
                             })
                        .phase(g.memGroup,
                               [&](KernelBuilder &p) {
                                   for (std::uint64_t i = 1;
                                        i < window(); ++i)
                                       p.fetchOp(AluOp::PopcntAcc,
                                                 slotA, slotQ, g,
                                                 j + i);
                               })
                        .phase(g.memGroup,
                               [&](KernelBuilder &p) {
                                   p.compute(AluOp::Threshold,
                                             slotR, slotA,
                                             g.memGroup,
                                             popcntThreshold);
                               })
                        .storePhase(out, t, 1, slotR);
                }
            });
    }

  private:
    /** Genome blocks per channel. */
    std::uint64_t
    genomeBlocks() const
    {
        std::uint64_t bytes =
            (elements_ * sizeof(float) + map_->channelSweepBytes() -
             1) /
            map_->channelSweepBytes() * map_->channelSweepBytes();
        return bytes / map_->channelSweepBytes();
    }

    /** Blocks one candidate compares: 4 (128 B), or the whole
     *  genome when a channel holds fewer blocks than that. */
    std::uint64_t
    window() const
    {
        return std::min(candidateBlocks, genomeBlocks());
    }

    /** One candidate per window, and at least one. */
    std::uint64_t
    candidates() const
    {
        return std::max<std::uint64_t>(1, genomeBlocks() / window());
    }

    /** Irregular candidate location (hash-derived). */
    std::uint64_t
    candidateBlock(std::uint64_t t) const
    {
        return (hashMix(0x6e0f11, t) % candidates()) * window();
    }

};

} // namespace

std::unique_ptr<Workload>
makeGenFil()
{
    return std::make_unique<GenFil>();
}

} // namespace olight
