/** @file Unit tests for SparseMemory, StatSet, Rng, and logging. */

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <thread>
#include <vector>

#include "dram/storage.hh"
#include "sim/random.hh"
#include "sim/stats.hh"

namespace olight
{
namespace
{

TEST(SparseMemory, ZeroOnFirstTouch)
{
    SparseMemory mem;
    EXPECT_EQ(mem.readFloat(0x1000), 0.0f);
    EXPECT_EQ(mem.readU32(0xdeadbe0), 0u);
    EXPECT_EQ(mem.numPages(), 0u);

    // Reads of never-written pages see zeros and allocate nothing,
    // also across a page boundary and block by block.
    const SparseMemory::Block zero{};
    EXPECT_EQ(mem.blockOrZero(0x7fe0), zero);
    EXPECT_EQ(mem.pageData(0x7fe0), nullptr);
    std::vector<std::uint8_t> buf(3 * SparseMemory::pageBytes, 0xaa);
    mem.read(0x7ff0, buf.data(), buf.size());
    EXPECT_EQ(buf, std::vector<std::uint8_t>(buf.size(), 0));
    EXPECT_EQ(mem.numPages(), 0u);

    // A first touch allocates the whole page, zero-filled.
    mem.writeU32(0x2004, 7);
    EXPECT_EQ(mem.numPages(), 1u);
    EXPECT_EQ(mem.readU32(0x2000), 0u);
    EXPECT_EQ(mem.readU32(0x2ffc), 0u);
    EXPECT_EQ(mem.block(0x2fe0), zero);
    EXPECT_EQ(mem.numPages(), 1u);
}

TEST(SparseMemory, ReadWriteRoundTrip)
{
    SparseMemory mem;
    mem.writeFloat(0x40, 3.5f);
    EXPECT_EQ(mem.readFloat(0x40), 3.5f);
    mem.writeU32(0x44, 0xabcdef01u);
    EXPECT_EQ(mem.readU32(0x44), 0xabcdef01u);
    EXPECT_EQ(mem.readFloat(0x40), 3.5f);

    // The same under concurrent first touch, as the windowed driver's
    // channel PIM units do it: several threads write disjoint 256 B
    // chunks of the same pages at once, and each chunk must land in
    // the one page they all share (run under TSan by the
    // storage_tsan ctest entry).
    constexpr unsigned kThreads = 4;
    constexpr std::uint64_t kChunk = 256;
    constexpr std::uint64_t kPages = 64;
    constexpr std::uint64_t kBase = 0x40000000;
    SparseMemory shared;
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&shared, t] {
            std::uint8_t chunk[kChunk];
            std::memset(chunk, int(0x10 + t), kChunk);
            for (std::uint64_t c = t;
                 c * kChunk < kPages * SparseMemory::pageBytes;
                 c += kThreads) {
                if (c % 2)
                    shared.write(kBase + c * kChunk, chunk, kChunk);
                else
                    std::memcpy(shared.block(kBase + c * kChunk).data(),
                                chunk, SparseMemory::blockBytes);
            }
        });
    }
    for (std::thread &th : threads)
        th.join();
    EXPECT_EQ(shared.numPages(), kPages);
    for (std::uint64_t c = 0;
         c * kChunk < kPages * SparseMemory::pageBytes; ++c) {
        const auto &blk = shared.blockOrZero(kBase + c * kChunk);
        ASSERT_EQ(blk[0], 0x10 + c % kThreads) << "chunk " << c;
        ASSERT_EQ(blk[31], 0x10 + c % kThreads) << "chunk " << c;
    }
}

TEST(SparseMemory, UnalignedCrossBlockAccess)
{
    SparseMemory mem;
    std::uint8_t data[100];
    for (int i = 0; i < 100; ++i)
        data[i] = std::uint8_t(i);
    mem.write(0x3e, data, 100); // crosses several 32 B blocks
    std::uint8_t out[100] = {};
    mem.read(0x3e, out, 100);
    EXPECT_EQ(std::memcmp(data, out, 100), 0);
    // Bytes around the region stay zero.
    std::uint8_t b;
    mem.read(0x3d, &b, 1);
    EXPECT_EQ(b, 0);

    // An unaligned write spanning two pages lands in both, and only
    // there.
    const std::uint64_t span = 2 * SparseMemory::pageBytes - 50;
    mem.write(span, data, 100);
    std::memset(out, 0, sizeof(out));
    mem.read(span, out, 100);
    EXPECT_EQ(std::memcmp(data, out, 100), 0);
    EXPECT_EQ(mem.numPages(), 3u);
    mem.read(span - 1, &b, 1);
    EXPECT_EQ(b, 0);
    mem.read(span + 100, &b, 1);
    EXPECT_EQ(b, 0);

    // The last block of a page is its own; block() and blockOrZero()
    // see the bytes write() put there, and the next page's first
    // block is untouched.
    const std::uint64_t last =
        3 * SparseMemory::pageBytes - SparseMemory::blockBytes;
    SparseMemory::Block &blk = mem.block(last);
    for (std::uint32_t i = 0; i < SparseMemory::blockBytes; ++i)
        blk[i] = std::uint8_t(0xc0 + i);
    EXPECT_EQ(mem.readU32(last + 28), 0xdfdedddcu);
    EXPECT_EQ(&mem.blockOrZero(last), &blk);
    EXPECT_EQ(mem.blockOrZero(last + SparseMemory::blockBytes),
              SparseMemory::Block{});
    EXPECT_EQ(mem.pageData(last) + SparseMemory::pageBytes -
                  SparseMemory::blockBytes,
              blk.data());
}

TEST(SparseMemory, BulkFloatHelpers)
{
    SparseMemory mem;
    std::vector<float> vals = {1, 2, 3, 4, 5, 6, 7, 8, 9};
    mem.writeFloats(0x100, vals);
    EXPECT_EQ(mem.readFloats(0x100, 9), vals);

    // A copy is deep: writes to either side stay on that side.
    std::vector<float> big(3000);
    for (std::size_t i = 0; i < big.size(); ++i)
        big[i] = float(i);
    mem.writeFloats(0x10000, big);
    SparseMemory copy = mem;
    EXPECT_EQ(copy.numPages(), mem.numPages());
    mem.writeFloat(0x100, -1.0f);
    copy.writeFloat(0x10000 + 4 * 2999, -2.0f);
    EXPECT_EQ(copy.readFloats(0x100, 9), vals);
    EXPECT_EQ(mem.readFloat(0x10000 + 4 * 2999), 2999.0f);
    EXPECT_EQ(copy.readFloats(0x10000, 2999),
              std::vector<float>(big.begin(), big.end() - 1));
    EXPECT_NE(copy.pageData(0x10000), mem.pageData(0x10000));
    SparseMemory assigned;
    assigned.writeFloat(0x50000, 5.0f);
    assigned = copy;
    EXPECT_EQ(assigned.readFloat(0x50000), 0.0f);
    EXPECT_EQ(assigned.readFloat(0x10000 + 4 * 2999), -2.0f);
    EXPECT_EQ(assigned.numPages(), copy.numPages());
}

TEST(SparseMemoryDeath, UnalignedBlockPanics)
{
    SparseMemory mem;
    EXPECT_DEATH(mem.block(0x21), "unaligned");
}

TEST(StatSet, ScalarRegistrationIsStable)
{
    StatSet stats;
    Scalar &a = stats.scalar("x.count", "desc");
    a += 2.0;
    Scalar &b = stats.scalar("x.count");
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(b.value(), 2.0);
    ++b;
    EXPECT_EQ(stats.findScalar("x.count")->value(), 3.0);
    EXPECT_EQ(stats.findScalar("missing"), nullptr);
}

TEST(StatSet, SumScalarsByPrefixSuffix)
{
    StatSet stats;
    stats.scalar("pim0.commands") += 10;
    stats.scalar("pim1.commands") += 5;
    stats.scalar("pim1.bytes") += 99;
    stats.scalar("mc0.commands") += 7;
    EXPECT_EQ(stats.sumScalars("pim", ".commands"), 15.0);
    EXPECT_EQ(stats.sumScalars("", ".commands"), 22.0);
    EXPECT_EQ(stats.sumScalars("pim", ".bytes"), 99.0);
}

TEST(StatSet, DistributionTracksMoments)
{
    StatSet stats;
    Distribution &d = stats.distribution("lat", "latency");
    d.sample(10);
    d.sample(30);
    d.sample(20);
    EXPECT_EQ(d.count(), 3u);
    EXPECT_EQ(d.mean(), 20.0);
    EXPECT_EQ(d.minValue(), 10.0);
    EXPECT_EQ(d.maxValue(), 30.0);
    d.reset();
    EXPECT_EQ(d.count(), 0u);
    EXPECT_EQ(d.mean(), 0.0);
}

TEST(StatSet, DumpMentionsAllStats)
{
    StatSet stats;
    stats.scalar("alpha.count", "things") += 4;
    stats.distribution("beta.lat", "latencies").sample(2);
    std::ostringstream os;
    stats.dump(os);
    EXPECT_NE(os.str().find("alpha.count"), std::string::npos);
    EXPECT_NE(os.str().find("beta.lat"), std::string::npos);
    EXPECT_NE(os.str().find("things"), std::string::npos);
}

TEST(Rng, DeterministicPerSeed)
{
    Rng a(42), b(42), c(43);
    for (int i = 0; i < 100; ++i) {
        std::uint64_t va = a.next();
        EXPECT_EQ(va, b.next());
        (void)c.next();
    }
    Rng a2(42), c2(43);
    EXPECT_NE(a2.next(), c2.next());
}

TEST(Rng, RangesAreBounded)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(rng.nextRange(17), 17u);
        double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
        float f = rng.nextFloat(-2.0f, 3.0f);
        EXPECT_GE(f, -2.0f);
        EXPECT_LT(f, 3.0f);
    }
}

TEST(Rng, JitterIsDeterministicAndBounded)
{
    for (std::uint64_t id = 0; id < 1000; ++id) {
        std::uint32_t j = jitter(5, id, 8);
        EXPECT_LT(j, 8u);
        EXPECT_EQ(j, jitter(5, id, 8));
    }
    EXPECT_EQ(jitter(5, 123, 0), 0u);
    // Jitter should actually vary across ids.
    bool varied = false;
    for (std::uint64_t id = 1; id < 100 && !varied; ++id)
        varied = jitter(5, id, 8) != jitter(5, 0, 8);
    EXPECT_TRUE(varied);
}

} // namespace
} // namespace olight
