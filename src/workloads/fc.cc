/**
 * @file
 * Fully-connected inference layer (FC, 2:1 in Table 2).
 *
 * A large set of weight vectors is streamed from memory and
 * dot-multiplied against a resident input activation held in
 * temporary storage (the paper's FC is a "series of dot product
 * operations of a large input activation vector with a large number
 * of weight vectors"; here the activation is a periodic block
 * pattern so it fits the per-lane TS, which preserves the kernel's
 * single-streamed-structure access behavior). Only one data
 * structure is streamed, so FC sees high row locality and its
 * ordering-primitive rate barely depends on TS size — the property
 * Figure 12 highlights.
 */

#include <sstream>
#include <vector>

#include "workloads/apps.hh"

namespace olight
{

namespace
{

constexpr float xPattern[8] = {1, 2, 1, 3, 1, 2, 1, 2};
constexpr std::uint64_t rowBlocksPerChannel = 16;

class Fc : public Workload
{
  public:
    WorkloadInfo
    info() const override
    {
        return {"FC", "fully-connected layer inference", "2:1",
                false};
    }

    void
    initMemory(SparseMemory &mem) const override
    {
        fillIntFloats(mem, arrays_[0], -4, 4, 606); // weights
        fillBlockPattern(mem, arrays_[2], xPattern);
    }

    std::vector<HostArraySpec>
    hostTraffic() const override
    {
        return {hostSpec(arrays_[0], false, 0)};
    }

    double
    hostFlops() const override
    {
        return 2.0 * double(elements_);
    }

    bool
    check(const SparseMemory &mem, std::string &why) const override
    {
        SparseMemory init;
        initMemory(init);
        const PimArray &w = arrays_[0];
        const PimArray &y = arrays_[1];
        std::uint64_t lane_stride = map_->laneStride();

        for (std::uint16_t ch = 0; ch < cfg_.numChannels; ++ch) {
            KernelBuilder kb(*map_, ch);
            for (std::uint64_t r = 0; r < rows_; ++r) {
                for (std::uint32_t lane = 0; lane < cfg_.bmf;
                     ++lane) {
                    float want = 0.0f;
                    for (std::uint64_t t = 0;
                         t < rowBlocksPerChannel; ++t) {
                        std::uint64_t addr =
                            kb.blockAddr(w,
                                         r * rowBlocksPerChannel +
                                             t) +
                            lane * lane_stride;
                        float vals[8];
                        init.read(addr, vals, sizeof(vals));
                        for (std::uint32_t i = 0; i < 8; ++i)
                            want += vals[i] * xPattern[i];
                    }
                    std::uint64_t out_addr =
                        kb.blockAddr(y, r) + lane * lane_stride;
                    float got = mem.readFloat(out_addr);
                    if (got != want) {
                        std::ostringstream os;
                        os << "FC[ch" << ch << " row " << r
                           << " lane " << lane << "]: got " << got
                           << ", want " << want;
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
        std::uint64_t row_elems = rowBlocksPerChannel *
                                  map_->channelSweepBytes() /
                                  sizeof(float);
        rows_ = std::max<std::uint64_t>(1, elements_ / row_elems);
        elements_ = rows_ * row_elems;

        addArray("w", elements_, 0);
        addArray("out_y",
                 rows_ * map_->channelSweepBytes() / sizeof(float),
                 0);
        addArray("xpat", map_->channelSweepBytes() / sizeof(float),
                 0);
        const PimArray &w = arrays_[0];
        const PimArray &y = arrays_[1];
        const PimArray &xp = arrays_[2];

        constexpr std::uint8_t slotX = 0, slotA = 1;
        forEachChannel(
            *map_, cfg_.numChannels, streams_,
            [&](KernelBuilder &kb) {
                kb.residentLoad(slotX, xp, 0, w.memGroup);
                for (std::uint64_t r = 0; r < rows_; ++r) {
                    kb.computePhase(AluOp::Zero, 1, w.memGroup, 0.0f,
                                    0.0f, slotA)
                        .phase(w.memGroup,
                               [&](KernelBuilder &p) {
                                   for (std::uint64_t t = 0;
                                        t < rowBlocksPerChannel; ++t)
                                       p.fetchOp(
                                           AluOp::DotAcc, slotA,
                                           slotX, w,
                                           r * rowBlocksPerChannel +
                                               t);
                               })
                        .storePhase(y, r, 1, slotA);
                }
            });
    }

  private:
    std::uint64_t rows_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeFc()
{
    return std::make_unique<Fc>();
}

} // namespace olight
