#include "workloads/stream_kernels.hh"

#include <sstream>

#include "sim/logging.hh"

namespace olight
{

const char *
toString(StreamKernel kernel)
{
    switch (kernel) {
      case StreamKernel::Scale: return "Scale";
      case StreamKernel::Copy: return "Copy";
      case StreamKernel::Daxpy: return "Daxpy";
      case StreamKernel::Triad: return "Triad";
      case StreamKernel::Add: return "Add";
    }
    return "?";
}

namespace
{

constexpr float streamScalar = 3.0f;

/** All five STREAM kernels share the tiled three-phase structure. */
class StreamWorkload : public Workload
{
  public:
    explicit StreamWorkload(StreamKernel kernel) : kernel_(kernel) {}

    WorkloadInfo
    info() const override
    {
        WorkloadInfo wi;
        wi.name = toString(kernel_);
        switch (kernel_) {
          case StreamKernel::Scale:
            wi.description = "a[i] = scalar*a[i]";
            wi.ratio = "1:1";
            wi.multiStructure = false;
            break;
          case StreamKernel::Copy:
            wi.description = "b[i] = a[i]";
            wi.ratio = "0:2";
            wi.multiStructure = true;
            break;
          case StreamKernel::Daxpy:
            wi.description = "b[i] = b[i] + scalar*a[i]";
            wi.ratio = "2:2";
            wi.multiStructure = true;
            break;
          case StreamKernel::Triad:
            wi.description = "c[i] = a[i] + scalar*b[i]";
            wi.ratio = "2:3";
            wi.multiStructure = true;
            break;
          case StreamKernel::Add:
            wi.description = "c[i] = a[i] + b[i]";
            wi.ratio = "1:3";
            wi.multiStructure = true;
            break;
        }
        return wi;
    }

    void
    initMemory(SparseMemory &mem) const override
    {
        fillIntFloats(mem, arrays_[0], -8, 8, 101);
        if (arrays_.size() > 1 && kernel_ != StreamKernel::Copy)
            fillIntFloats(mem, arrays_[1], -8, 8, 202);
    }

    double
    hostFlops() const override
    {
        switch (kernel_) {
          case StreamKernel::Scale: return double(elements_);
          case StreamKernel::Copy: return 0.0;
          case StreamKernel::Daxpy:
          case StreamKernel::Triad: return 2.0 * double(elements_);
          case StreamKernel::Add: return double(elements_);
        }
        return 0.0;
    }

    bool
    check(const SparseMemory &mem, std::string &why) const override
    {
        // Recompute the inputs from their deterministic seeds.
        SparseMemory init;
        initMemory(init);
        // Columns: input a, input b (a again for Scale), and the
        // output, which is always the last array (a itself for Scale,
        // b for Daxpy).
        const PimArray &a = arrays_[0];
        const PimArray &b = arrays_.size() > 1 ? arrays_[1] : a;
        return scanDense<float>(
            {{&init, &a}, {&init, &b}, {&mem, &arrays_.back()}},
            [&](std::uint64_t i, const float *v) {
                float want = 0.0f;
                switch (kernel_) {
                  case StreamKernel::Scale:
                    want = streamScalar * v[0];
                    break;
                  case StreamKernel::Copy:
                    want = v[0];
                    break;
                  case StreamKernel::Daxpy:
                    want = v[1] + streamScalar * v[0];
                    break;
                  case StreamKernel::Triad:
                    want = v[0] + streamScalar * v[1];
                    break;
                  case StreamKernel::Add:
                    want = v[0] + v[1];
                    break;
                }
                if (v[2] == want)
                    return true;
                std::ostringstream os;
                os << info().name << "[" << i << "]: got " << v[2]
                   << ", want " << want;
                why = os.str();
                return false;
            });
    }

  protected:
    void
    buildImpl() override
    {
        // Allocate everything first: addArray() may reallocate the
        // arrays_ vector, so references are taken afterwards.
        addArray("a", elements_, 0);
        if (kernel_ != StreamKernel::Scale)
            addArray(kernel_ == StreamKernel::Copy ? "out_b" : "b",
                     elements_, 0);
        if (kernel_ == StreamKernel::Triad ||
            kernel_ == StreamKernel::Add)
            addArray("out_c", elements_, 0);
        const PimArray &a = arrays_[0];
        const PimArray *b = arrays_.size() > 1 ? &arrays_[1] : nullptr;
        const PimArray *c = arrays_.size() > 2 ? &arrays_[2] : nullptr;

        std::uint32_t n = cfg_.tsSlots();
        forEachChannel(
            *map_, cfg_.numChannels, streams_,
            [&](KernelBuilder &kb) {
                kb.forEachTile(a, n,
                               [&](std::uint64_t j0, std::uint64_t m) {
                                   emitTile(kb, a, b, c, j0, m);
                               });
            });
    }

  private:
    void
    emitTile(KernelBuilder &kb, const PimArray &a, const PimArray *b,
             const PimArray *c, std::uint64_t j0, std::uint64_t m)
    {
        switch (kernel_) {
          case StreamKernel::Scale:
            // Fetch-and-scale, then write back to the same row.
            kb.phase(a.memGroup,
                     [&](KernelBuilder &p) {
                         for (std::uint64_t k = 0; k < m; ++k)
                             p.fetchOp(AluOp::Scale,
                                       std::uint8_t(k), 0, a, j0 + k,
                                       streamScalar);
                     })
                .storePhase(a, j0, m);
            return;

          case StreamKernel::Copy:
            kb.loadPhase(a, j0, m).storePhase(*b, j0, m);
            return;

          case StreamKernel::Daxpy:
            // dst = b[i] + scalar * TS(a[i])
            kb.loadPhase(a, j0, m)
                .fetchPhase(AluOp::FmaRev, *b, j0, m, streamScalar)
                .storePhase(*b, j0, m);
            return;

          case StreamKernel::Triad:
            // dst = TS(a[i]) + scalar * b[i]
            kb.loadPhase(a, j0, m)
                .fetchPhase(AluOp::Fma, *b, j0, m, streamScalar)
                .storePhase(*c, j0, m);
            return;

          case StreamKernel::Add:
            kb.loadPhase(a, j0, m)
                .fetchPhase(AluOp::Add, *b, j0, m)
                .storePhase(*c, j0, m);
            return;
        }
        olight_panic("unhandled stream kernel");
    }

    StreamKernel kernel_;
};

} // namespace

std::unique_ptr<Workload>
makeStreamWorkload(StreamKernel kernel)
{
    return std::make_unique<StreamWorkload>(kernel);
}

} // namespace olight
