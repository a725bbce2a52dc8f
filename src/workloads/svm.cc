/**
 * @file
 * SVM inference kernel (2.5:2 in Table 2).
 *
 * Each lane-block is one 8-feature sample. The resident weight
 * vector is held in the last TS slot; per tile the kernel loads a
 * batch of samples, computes the margin w.x + b, the hinge residual
 * 1 - m, applies ReLU and stores the result — two streamed
 * structures (samples in, hinge values out) with a compute chain
 * between loads and stores.
 */

#include <sstream>

#include "workloads/apps.hh"

namespace olight
{

namespace
{

constexpr float wPattern[8] = {1, -2, 1, 0, 2, -1, 1, 1};
constexpr float svmBias = 2.0f;

class Svm : public Workload
{
  public:
    WorkloadInfo
    info() const override
    {
        return {"SVM", "support vector machine inference", "2.5:2",
                true};
    }

    void
    initMemory(SparseMemory &mem) const override
    {
        fillIntFloats(mem, arrays_[0], -4, 4, 808);
        fillBlockPattern(mem, arrays_[2], wPattern);
    }

    std::vector<HostArraySpec>
    hostTraffic() const override
    {
        return {hostSpec(arrays_[0], false, 0),
                hostSpec(arrays_[1], true, 1)};
    }

    double
    hostFlops() const override
    {
        return 3.0 * double(elements_);
    }

    bool
    check(const SparseMemory &mem, std::string &why) const override
    {
        SparseMemory init;
        initMemory(init);
        const PimArray &x = arrays_[0];
        const PimArray &out = arrays_[1];
        std::uint64_t lane_stride = map_->laneStride();

        for (std::uint16_t ch = 0; ch < cfg_.numChannels; ++ch) {
            KernelBuilder kb(*map_, ch);
            std::uint64_t blocks = kb.blocksPerChannel(x);
            for (std::uint64_t j = 0; j < blocks; ++j) {
                for (std::uint32_t lane = 0; lane < cfg_.bmf;
                     ++lane) {
                    std::uint64_t xaddr = kb.blockAddr(x, j) +
                                          lane * lane_stride;
                    float sample[8];
                    init.read(xaddr, sample, sizeof(sample));
                    float margin = svmBias;
                    for (std::uint32_t i = 0; i < 8; ++i)
                        margin += sample[i] * wPattern[i];
                    float want[8];
                    want[0] = std::max(0.0f, 1.0f - margin);
                    for (std::uint32_t i = 1; i < 8; ++i)
                        want[i] =
                            std::max(0.0f, 1.0f - sample[i]);
                    std::uint64_t oaddr = kb.blockAddr(out, j) +
                                          lane * lane_stride;
                    float got[8];
                    mem.read(oaddr, got, sizeof(got));
                    for (std::uint32_t i = 0; i < 8; ++i) {
                        if (got[i] != want[i]) {
                            std::ostringstream os;
                            os << "SVM[ch" << ch << " blk " << j
                               << " lane " << lane << " elem " << i
                               << "]: got " << got[i] << ", want "
                               << want[i];
                            why = os.str();
                            return false;
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
        addArray("x", elements_, 0);
        addArray("out_h", elements_, 0);
        addArray("wpat", map_->channelSweepBytes() / sizeof(float),
                 0);
        const PimArray &x = arrays_[0];
        const PimArray &out = arrays_[1];
        const PimArray &wp = arrays_[2];

        std::uint32_t n = cfg_.tsSlots() - 1;
        std::uint8_t slot_w = std::uint8_t(cfg_.tsSlots() - 1);
        forEachChannel(
            *map_, cfg_.numChannels, streams_,
            [&](KernelBuilder &kb) {
                kb.residentLoad(slot_w, wp, 0, x.memGroup);
                kb.forEachTile(
                    x, n, [&](std::uint64_t j0, std::uint64_t m) {
                        kb.loadPhase(x, j0, m)
                            // margin = b + w . x (written into elem
                            // 0 of the sample's slot)
                            .phase(x.memGroup,
                                   [&](KernelBuilder &p) {
                                       for (std::uint64_t k = 0;
                                            k < m; ++k)
                                           p.compute(
                                               AluOp::Dot,
                                               std::uint8_t(k),
                                               slot_w, x.memGroup,
                                               svmBias, 0.0f,
                                               std::uint16_t(k));
                                   })
                            .computePhase(AluOp::Affine, m,
                                          x.memGroup, -1.0f, 1.0f)
                            .computePhase(AluOp::Relu, m,
                                          x.memGroup)
                            .storePhase(out, j0, m);
                    });
            });
    }
};

} // namespace

std::unique_ptr<Workload>
makeSvm()
{
    return std::make_unique<Svm>();
}

} // namespace olight
