/**
 * @file
 * Workload interface (the suite of Table 2).
 *
 * A workload knows how to (a) build the per-channel PIM instruction
 * streams for a given system configuration (TS size, BMF, channel
 * count all change the generated stream, exactly as the paper's
 * hand-written PIM kernels depend on the memory organization),
 * (b) initialize the functional memory, (c) describe the equivalent
 * host execution for the GPU baseline, and (d) verify the result
 * against an independent mathematical reference.
 *
 * All inputs are integer-valued floats, so every reduction is exact
 * regardless of accumulation order and results are checked
 * bit-exactly — a reordering anywhere in the pipe that violates a
 * data dependence produces a detectably wrong result.
 */

#ifndef OLIGHT_WORKLOADS_WORKLOAD_HH
#define OLIGHT_WORKLOADS_WORKLOAD_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/config.hh"
#include "core/kernel_builder.hh"
#include "dram/address_map.hh"
#include "dram/storage.hh"
#include "gpu/host_stream.hh"

namespace olight
{

/** Static description of a workload (the Table 2 row). */
struct WorkloadInfo
{
    std::string name;
    std::string description;
    std::string ratio;       ///< compute:memory, e.g. "7:3"
    bool multiStructure = false;
};

/** One data-intensive kernel of the evaluation suite. */
class Workload
{
  public:
    virtual ~Workload() = default;

    virtual WorkloadInfo info() const = 0;

    /**
     * Generate instruction streams and data placement for @p cfg.
     * @p elements scales the problem (fp32 elements per principal
     * data structure).
     */
    void build(const SystemConfig &cfg, std::uint64_t elements);

    const std::vector<std::vector<PimInstr>> &
    streams() const
    {
        return streams_;
    }

    /** Fill input arrays (deterministic, integer-valued). */
    virtual void initMemory(SparseMemory &mem) const = 0;

    /** Arrays the GPU baseline streams over. */
    virtual std::vector<HostArraySpec> hostTraffic() const;

    /**
     * Host-view spec for @p arr, shifted by @p bankOffset banks.
     * The PIM layout deliberately aliases all arrays onto the same
     * banks (different rows); the GPU baseline runs on normally
     * allocated pages, which spread concurrently-streamed arrays
     * across banks — modeled by this per-array bank stagger. Host
     * traffic is timing-only, so the shift does not touch data.
     */
    HostArraySpec hostSpec(const PimArray &arr, bool write,
                           std::uint32_t bankOffset) const;

    /** Arithmetic operations of one host execution (roofline). */
    virtual double hostFlops() const;

    /** Verify @p mem against the mathematical reference. */
    virtual bool check(const SparseMemory &mem,
                       std::string &why) const = 0;

    const SystemConfig &cfg() const { return cfg_; }
    const AddressMap &map() const { return *map_; }
    std::uint64_t elements() const { return elements_; }

    /** Arrays allocated by build() (inputs then outputs). */
    const std::vector<PimArray> &arrays() const { return arrays_; }

  protected:
    /** Subclass hook: allocate arrays and emit streams. */
    virtual void buildImpl() = 0;

    PimArray &addArray(const std::string &name,
                       std::uint64_t elements, std::uint8_t group);

    /** Fill @p arr with integer-valued floats in [lo, hi]. */
    void fillIntFloats(SparseMemory &mem, const PimArray &arr, int lo,
                       int hi, std::uint64_t seed) const;

    /** Fill @p arr with pseudo-random raw bytes (bit vectors). */
    void fillBytes(SparseMemory &mem, const PimArray &arr,
                   std::uint64_t seed) const;

    /** Write the same 8-float pattern into every 32 B block. */
    void fillBlockPattern(SparseMemory &mem, const PimArray &arr,
                          const float (&pattern)[8]) const;

    /** One column of scanDense(): array @p arr as held in @p mem. */
    struct DenseColumn
    {
        const SparseMemory *mem;
        const PimArray *arr;
    };

    /**
     * Element-wise scan of dense 32-bit arrays for check(): calls
     * @p fn(i, v) for i in [0, elements_) in order, where v[c] is
     * element i of column c. Columns are read a 4 KiB page at a time
     * (one store lookup per page); the first false return ends the
     * scan and is returned.
     */
    template <typename T, std::size_t N, typename Fn>
    bool
    scanDense(const DenseColumn (&cols)[N], Fn &&fn) const
    {
        static_assert(sizeof(T) == 4);
        constexpr std::size_t kPage = SparseMemory::pageBytes / 4;
        std::vector<T> buf(N * kPage);
        for (std::uint64_t i0 = 0; i0 < elements_; i0 += kPage) {
            std::size_t n = std::min<std::uint64_t>(kPage,
                                                    elements_ - i0);
            for (std::size_t c = 0; c < N; ++c)
                cols[c].mem->read(cols[c].arr->base + 4 * i0,
                                  &buf[c * kPage], 4 * n);
            for (std::size_t k = 0; k < n; ++k) {
                T v[N];
                for (std::size_t c = 0; c < N; ++c)
                    v[c] = buf[c * kPage + k];
                if (!fn(i0 + k, v))
                    return false;
            }
        }
        return true;
    }

    SystemConfig cfg_;
    std::unique_ptr<AddressMap> map_;
    std::unique_ptr<ArrayAllocator> alloc_;
    std::uint64_t elements_ = 0;
    std::vector<PimArray> arrays_;
    std::vector<std::vector<PimInstr>> streams_;
    bool built_ = false;
};

} // namespace olight

#endif // OLIGHT_WORKLOADS_WORKLOAD_HH
