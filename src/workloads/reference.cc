#include "workloads/reference.hh"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <vector>

#include "pim/pim_unit.hh"
#include "sim/random.hh"
#include "sim/stats.hh"
#include "workloads/workload.hh"

namespace olight
{

void
runGolden(const SystemConfig &cfg, const AddressMap &map,
          const std::vector<std::vector<PimInstr>> &streams,
          SparseMemory &mem)
{
    StatSet scratch;
    for (std::uint16_t ch = 0; ch < streams.size(); ++ch) {
        PimUnit unit(cfg, map, mem, ch,
                     "golden" + std::to_string(ch), scratch);
        Tick when = 0;
        for (const PimInstr &instr : streams[ch]) {
            if (!instr.isPimCommand())
                continue; // order points / host ops do not execute
            unit.execute(instr, when++);
        }
    }
}

namespace
{

/** Reports the first differing element of one 32 B block. */
bool
blockMismatch(const std::uint8_t *a, const std::uint8_t *b,
              const PimArray &array, std::uint64_t off,
              std::string &why)
{
    for (std::uint32_t i = 0; i < 8; ++i) {
        float ga, gb;
        std::memcpy(&ga, a + 4 * i, 4);
        std::memcpy(&gb, b + 4 * i, 4);
        if (ga != gb || std::memcmp(a + 4 * i, b + 4 * i, 4)) {
            std::ostringstream os;
            os << array.name << "[byte " << (off + 4 * i)
               << "]: got " << ga << ", want " << gb;
            why = os.str();
            return false;
        }
    }
    why = array.name + ": raw block mismatch";
    return false;
}

} // namespace

bool
compareArray(const SparseMemory &got, const SparseMemory &want,
             const PimArray &array, std::string &why)
{
    // The array's whole 32 B blocks, a page at a time: one index
    // lookup and one memcmp per page; only a differing page is
    // rescanned block by block for the first mismatch.
    static const std::uint8_t zeros[SparseMemory::pageBytes] = {};
    constexpr std::uint64_t blk = SparseMemory::blockBytes;
    const std::uint64_t start = array.base - array.base % blk;
    const std::uint64_t end = (array.bytes + blk - 1) / blk * blk;
    for (std::uint64_t off = 0; off < end;) {
        std::uint64_t addr = start + off;
        std::uint64_t inPage = addr % SparseMemory::pageBytes;
        std::uint64_t take =
            std::min(end - off, SparseMemory::pageBytes - inPage);
        const std::uint8_t *a = got.pageData(addr);
        const std::uint8_t *b = want.pageData(addr);
        a = (a ? a : zeros) + inPage;
        b = (b ? b : zeros) + inPage;
        if (std::memcmp(a, b, take) != 0) {
            for (std::uint64_t k = 0;; k += blk) {
                if (std::memcmp(a + k, b + k, blk) != 0)
                    return blockMismatch(a + k, b + k, array,
                                         off + k, why);
            }
        }
        off += take;
    }
    return true;
}

// ---------------------------------------------------------------
// Workload base-class helpers (kept here to avoid a tiny extra TU).
// ---------------------------------------------------------------

void
Workload::build(const SystemConfig &cfg, std::uint64_t elements)
{
    cfg_ = cfg;
    map_ = std::make_unique<AddressMap>(cfg);
    alloc_ = std::make_unique<ArrayAllocator>(*map_);
    elements_ = elements;
    arrays_.clear();
    streams_.assign(cfg.numChannels, {});
    buildImpl();
    built_ = true;
}

PimArray &
Workload::addArray(const std::string &name, std::uint64_t elements,
                   std::uint8_t group)
{
    arrays_.push_back(alloc_->alloc(name, elements, group));
    return arrays_.back();
}

void
Workload::fillIntFloats(SparseMemory &mem, const PimArray &arr,
                        int lo, int hi, std::uint64_t seed) const
{
    Rng rng(seed);
    std::uint64_t span = std::uint64_t(hi - lo + 1);
    // Fill the padded region too so every command block is defined.
    std::uint64_t count = arr.bytes / sizeof(float);
    std::vector<float> chunk(8192);
    std::uint64_t written = 0;
    while (written < count) {
        std::size_t n = std::min<std::uint64_t>(chunk.size(),
                                                count - written);
        for (std::size_t i = 0; i < n; ++i)
            chunk[i] = float(int(rng.nextRange(span)) + lo);
        mem.write(arr.base + written * sizeof(float), chunk.data(),
                  n * sizeof(float));
        written += n;
    }
}

void
Workload::fillBytes(SparseMemory &mem, const PimArray &arr,
                    std::uint64_t seed) const
{
    // One random word per 8 bytes in address order, written a page
    // at a time; whole 32 B blocks, like every other fill.
    Rng rng(seed);
    std::uint64_t bytes = (arr.bytes + 31) / 32 * 32;
    std::vector<std::uint64_t> chunk(SparseMemory::pageBytes / 8);
    for (std::uint64_t off = 0; off < bytes;
         off += SparseMemory::pageBytes) {
        std::size_t n = std::min<std::uint64_t>(SparseMemory::pageBytes,
                                                bytes - off);
        for (std::size_t i = 0; i < n / 8; ++i)
            chunk[i] = rng.next();
        mem.write(arr.base + off, chunk.data(), n);
    }
}

void
Workload::fillBlockPattern(SparseMemory &mem, const PimArray &arr,
                           const float (&pattern)[8]) const
{
    std::vector<float> page(SparseMemory::pageBytes / sizeof(float));
    for (std::size_t i = 0; i < page.size(); ++i)
        page[i] = pattern[i % 8];
    std::uint64_t bytes = (arr.bytes + 31) / 32 * 32;
    for (std::uint64_t off = 0; off < bytes;
         off += SparseMemory::pageBytes)
        mem.write(arr.base + off, page.data(),
                  std::min<std::uint64_t>(SparseMemory::pageBytes,
                                          bytes - off));
}

HostArraySpec
Workload::hostSpec(const PimArray &arr, bool write,
                   std::uint32_t bankOffset) const
{
    HostArraySpec spec;
    std::uint64_t bank_stride =
        map_->laneStride() * map_->numLanes();
    spec.base = arr.base +
                (bankOffset % map_->numBanks()) * bank_stride;
    spec.bytes = arr.bytes;
    spec.write = write;
    spec.memGroup = arr.memGroup;
    return spec;
}

std::vector<HostArraySpec>
Workload::hostTraffic() const
{
    // Default: stream every array, outputs as writes; equal padded
    // sizes are guaranteed by equal element counts — workloads with
    // differently-sized arrays override this.
    std::vector<HostArraySpec> specs;
    for (std::uint32_t i = 0; i < arrays_.size(); ++i) {
        specs.push_back(hostSpec(arrays_[i],
                                 arrays_[i].name.starts_with("out"),
                                 i));
    }
    return specs;
}

double
Workload::hostFlops() const
{
    return double(elements_);
}

} // namespace olight
