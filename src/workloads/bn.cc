/**
 * @file
 * Batch normalization kernels (BN_Fwd 7:3, BN_Bwd 14:6 in Table 2).
 *
 * BN_Fwd folds the normalization into two affine passes applied to a
 * streamed activation tensor: y = g2*(g1*x + b1) + b2 (the scale and
 * bias of inference-time batch norm with running statistics).
 * BN_Bwd streams two tensors (dy and x) and produces dx = g*(dy +
 * c*x) — the gradient's data-access structure (three streams, per
 * the backward pass touching dy, x and dx).
 */

#include <sstream>

#include "workloads/apps.hh"

namespace olight
{

namespace
{

constexpr float bnG1 = 2.0f, bnB1 = 3.0f;
constexpr float bnG2 = 2.0f, bnB2 = -1.0f;
constexpr float bnC = 2.0f, bnG = 3.0f;

class BnFwd : public Workload
{
  public:
    WorkloadInfo
    info() const override
    {
        return {"BN_Fwd", "batch normalization forward", "7:3", true};
    }

    void
    initMemory(SparseMemory &mem) const override
    {
        fillIntFloats(mem, arrays_[0], -8, 8, 303);
    }

    double
    hostFlops() const override
    {
        return 4.0 * double(elements_);
    }

    bool
    check(const SparseMemory &mem, std::string &why) const override
    {
        SparseMemory init;
        initMemory(init);
        return scanDense<float>(
            {{&init, &arrays_[0]}, {&mem, &arrays_[1]}},
            [&](std::uint64_t i, const float *v) {
                float want = bnG2 * (bnG1 * v[0] + bnB1) + bnB2;
                if (v[1] == want)
                    return true;
                std::ostringstream os;
                os << "BN_Fwd[" << i << "]: got " << v[1] << ", want "
                   << want;
                why = os.str();
                return false;
            });
    }

  protected:
    void
    buildImpl() override
    {
        addArray("x", elements_, 0);
        addArray("out_y", elements_, 0);
        const PimArray &x = arrays_[0];
        const PimArray &y = arrays_[1];

        std::uint32_t n = cfg_.tsSlots();
        forEachChannel(
            *map_, cfg_.numChannels, streams_,
            [&](KernelBuilder &kb) {
                kb.forEachTile(
                    x, n, [&](std::uint64_t j0, std::uint64_t m) {
                        kb.loadPhase(x, j0, m)
                            .computePhase(AluOp::Affine, m,
                                          x.memGroup, bnG1, bnB1)
                            .computePhase(AluOp::Affine, m,
                                          x.memGroup, bnG2, bnB2)
                            .storePhase(y, j0, m);
                    });
            });
    }
};

class BnBwd : public Workload
{
  public:
    WorkloadInfo
    info() const override
    {
        return {"BN_Bwd", "batch normalization backward", "14:6",
                true};
    }

    void
    initMemory(SparseMemory &mem) const override
    {
        fillIntFloats(mem, arrays_[0], -8, 8, 404); // dy
        fillIntFloats(mem, arrays_[1], -8, 8, 505); // x
    }

    double
    hostFlops() const override
    {
        return 4.0 * double(elements_);
    }

    bool
    check(const SparseMemory &mem, std::string &why) const override
    {
        SparseMemory init;
        initMemory(init);
        // Columns: dy, x, and the output dx.
        return scanDense<float>(
            {{&init, &arrays_[0]}, {&init, &arrays_[1]},
             {&mem, &arrays_[2]}},
            [&](std::uint64_t i, const float *v) {
                float want = bnG * (v[0] + bnC * v[1]);
                if (v[2] == want)
                    return true;
                std::ostringstream os;
                os << "BN_Bwd[" << i << "]: got " << v[2] << ", want "
                   << want;
                why = os.str();
                return false;
            });
    }

  protected:
    void
    buildImpl() override
    {
        addArray("dy", elements_, 0);
        addArray("x", elements_, 0);
        addArray("out_dx", elements_, 0);
        const PimArray &dy = arrays_[0];
        const PimArray &x = arrays_[1];
        const PimArray &dx = arrays_[2];

        std::uint32_t n = cfg_.tsSlots();
        forEachChannel(
            *map_, cfg_.numChannels, streams_,
            [&](KernelBuilder &kb) {
                kb.forEachTile(
                    dy, n, [&](std::uint64_t j0, std::uint64_t m) {
                        // TS = dy + c * x  (x fetched from memory)
                        kb.loadPhase(dy, j0, m)
                            .fetchPhase(AluOp::Fma, x, j0, m, bnC)
                            .computePhase(AluOp::Affine, m,
                                          dy.memGroup, bnG, 0.0f)
                            .storePhase(dx, j0, m);
                    });
            });
    }
};

} // namespace

std::unique_ptr<Workload>
makeBnFwd()
{
    return std::make_unique<BnFwd>();
}

std::unique_ptr<Workload>
makeBnBwd()
{
    return std::make_unique<BnBwd>();
}

} // namespace olight
