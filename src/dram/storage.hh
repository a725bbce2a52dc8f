/**
 * @file
 * Functional backing store for simulated DRAM.
 *
 * The simulator is not timing-only: PIM units and host accesses
 * operate on real data so that ordering violations are observable as
 * wrong results (the "functionally incorrect" bar of Figure 5).
 * Storage is sparse — 4 KiB pages allocated zero-filled on first
 * touch — so the multi-terabyte aligned layouts the allocator
 * produces cost nothing. One page holds 128 command blocks behind a
 * single index entry, and every bulk path (read, write, the golden
 * compare) takes one index lookup per page it spans; reading a page
 * that was never written returns zeros and allocates nothing.
 *
 * Under channel-partitioned execution the per-channel PIM units
 * first-touch the store concurrently. Channels operate on disjoint
 * channel-interleaved address ranges, so byte *contents* never race
 * — but two channels' ranges can share a page, and the sparse index
 * itself is shared (a first-touch insert rehashes the table another
 * thread is probing). The index is therefore sharded by page number
 * with one mutex per shard, and a page is created under its shard's
 * lock, so concurrent first touches of one page agree on it. Pages
 * are allocated one by one and never move, so a returned Block& or
 * page pointer can be used lock-free, and the full store remains
 * value-deterministic regardless of insertion interleaving.
 */

#ifndef OLIGHT_DRAM_STORAGE_HH
#define OLIGHT_DRAM_STORAGE_HH

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace olight
{

/** Sparse byte-addressable memory in 4 KiB pages of 32 B blocks. */
class SparseMemory
{
  public:
    static constexpr std::uint32_t blockBytes = 32;
    static constexpr std::uint32_t pageBytes = 4096;

    using Block = std::array<std::uint8_t, blockBytes>;

    SparseMemory() = default;
    SparseMemory(const SparseMemory &other) { copyFrom(other); }
    SparseMemory &
    operator=(const SparseMemory &other)
    {
        if (this != &other) {
            clear();
            copyFrom(other);
        }
        return *this;
    }

    /** Mutable reference to the block containing @p addr (its page
     *  zero-filled on first touch). @p addr must be block-aligned.
     *  The reference is stable: later inserts never move it. */
    Block &block(std::uint64_t addr);

    /** Read-only block access; returns zeros for untouched pages. */
    const Block &blockOrZero(std::uint64_t addr) const;

    /** The 4 KiB of the page containing @p addr, from its page-aligned
     *  start; nullptr when the page was never touched (all zeros). */
    const std::uint8_t *pageData(std::uint64_t addr) const;

    /** Read @p n bytes starting at arbitrary @p addr. */
    void read(std::uint64_t addr, void *out, std::size_t n) const;

    /** Write @p n bytes starting at arbitrary @p addr. */
    void write(std::uint64_t addr, const void *in, std::size_t n);

    /** Typed helpers (fp32 is the simulator's element type). */
    float readFloat(std::uint64_t addr) const;
    void writeFloat(std::uint64_t addr, float v);
    std::uint32_t readU32(std::uint64_t addr) const;
    void writeU32(std::uint64_t addr, std::uint32_t v);

    /** Bulk typed helpers over contiguous addresses. */
    std::vector<float> readFloats(std::uint64_t addr,
                                  std::size_t count) const;
    void writeFloats(std::uint64_t addr, const std::vector<float> &v);

    /** Pages allocated so far (touched by a write or block()). */
    std::size_t numPages() const;
    void clear();

  private:
    /** Shard count: a power of two well above any channel count, so
     *  concurrent channels rarely contend on one index mutex. */
    static constexpr std::uint32_t kShards = 64;

    using Page = std::array<Block, pageBytes / blockBytes>;
    static_assert(sizeof(Page) == pageBytes);

    struct Shard
    {
        std::unordered_map<std::uint64_t, std::unique_ptr<Page>> pages;
        mutable std::mutex mu;
    };

    /** The page numbered @p num, allocated zero-filled if absent. */
    Page &page(std::uint64_t num);
    /** The page numbered @p num, or nullptr if it was never touched. */
    const Page *findPage(std::uint64_t num) const;

    /** Bulk copy (single-threaded contexts only: golden snapshots). */
    void copyFrom(const SparseMemory &other);

    std::array<Shard, kShards> shards_;
    static const Block zeroBlock_;
};

} // namespace olight

#endif // OLIGHT_DRAM_STORAGE_HH
