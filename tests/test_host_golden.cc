/**
 * @file
 * Host-stream engine tests and golden-executor / kernel-builder
 * tests.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/runner.hh"
#include "core/system.hh"
#include "workloads/reference.hh"
#include "workloads/registry.hh"

namespace olight
{
namespace
{

TEST(HostStream, IssuesAllRequestsOnce)
{
    SystemConfig cfg;
    auto w = makeWorkload("Copy"); // two equal arrays
    w->build(cfg, 1ull << 15);
    System sys(cfg);
    w->initMemory(sys.mem());
    sys.setHostTraffic(w->hostTraffic());
    RunMetrics m = sys.run();

    // Two arrays of padded bytes, one 32 B request per block.
    std::uint64_t expect =
        2 * w->arrays()[0].bytes / 32;
    EXPECT_EQ(m.hostRequests, expect);
    EXPECT_TRUE(sys.hostStream().done());
    EXPECT_GT(sys.hostStream().finishTick(), 0u);
    EXPECT_LE(sys.hostStream().firstDoneTick(),
              sys.hostStream().finishTick());
}

TEST(HostStream, WindowBoundsLatency)
{
    // With a 1-deep window the stream serializes completely: the
    // total time is roughly requests * round-trip, far slower than
    // the deep-MLP default.
    auto finish = [](std::uint32_t window) {
        SystemConfig cfg;
        cfg.hostWindowPerChannel = window;
        auto w = makeWorkload("Scale");
        w->build(cfg, 1ull << 14);
        System sys(cfg);
        w->initMemory(sys.mem());
        sys.setHostTraffic(w->hostTraffic());
        sys.run();
        return sys.hostStream().finishTick();
    };
    Tick serial = finish(1);
    Tick parallel = finish(256);
    EXPECT_GT(serial, parallel * 20)
        << "MLP must dominate host streaming throughput";
}

TEST(HostStream, MeanLatencyIsAtLeastThePipeLatency)
{
    SystemConfig cfg;
    auto w = makeWorkload("Scale");
    w->build(cfg, 1ull << 14);
    System sys(cfg);
    w->initMemory(sys.mem());
    sys.setHostTraffic(w->hostTraffic());
    sys.run();
    // Forward wire latency alone is 220 core cycles.
    EXPECT_GT(sys.hostStream().meanLatencyCycles(), 220.0);
}

TEST(GoldenExecutor, MatchesMathReferenceForEveryWorkload)
{
    // The golden program-order execution and the independent
    // mathematical check() must agree with each other — this guards
    // against a shared-ALU bug hiding in both the simulator and the
    // golden run.
    SystemConfig cfg;
    for (const auto &name : workloadNames()) {
        auto w = makeWorkload(name);
        w->build(cfg, 1ull << 15);
        SparseMemory golden;
        w->initMemory(golden);
        runGolden(cfg, w->map(), w->streams(), golden);
        std::string why;
        EXPECT_TRUE(w->check(golden, why)) << name << ": " << why;
    }

    // Edge geometries, simulated under every enforcing mode too:
    // Gen_Fil with fewer than four genome blocks per channel (one
    // short window), and Hist at ts 64, whose eight bins saturate
    // values past the last bin.
    struct Edge
    {
        const char *workload;
        std::uint64_t elements;
        std::uint32_t tsBytes;
    };
    for (const Edge &e : {Edge{"Gen_Fil", 2048, 256},
                          Edge{"Gen_Fil", 4096, 256},
                          Edge{"Hist", 1ull << 14, 64}}) {
        for (OrderingMode mode :
             {OrderingMode::Fence, OrderingMode::OrderLight,
              OrderingMode::Louvre}) {
            RunOptions opts;
            opts.workload = e.workload;
            opts.elements = e.elements;
            opts.tsBytes = e.tsBytes;
            opts.mode = mode;
            RunResult r = runWorkload(opts);
            EXPECT_TRUE(r.verified && r.correct)
                << e.workload << " at " << e.elements << " elements, ts "
                << e.tsBytes << ", " << toString(mode) << ": " << r.why;
        }
    }
    // With no bin slot in the TS (ts 32) Hist's check reports a
    // mismatch instead of indexing an empty bin table.
    SystemConfig tiny;
    tiny.tsBytes = 32;
    auto hist = makeWorkload("Hist");
    hist->build(tiny, 1ull << 12);
    SparseMemory mem;
    std::string why;
    EXPECT_FALSE(hist->check(mem, why));
    EXPECT_NE(why.find("no bin slot"), std::string::npos) << why;
}

TEST(GoldenExecutor, DetectsTamperedResults)
{
    SystemConfig cfg;
    auto w = makeWorkload("Add");
    w->build(cfg, 1ull << 14);
    SparseMemory golden;
    w->initMemory(golden);
    runGolden(cfg, w->map(), w->streams(), golden);

    SparseMemory tampered = golden;
    const PimArray &out = w->arrays()[2];
    tampered.writeFloat(out.base + 4 * 1000,
                        golden.readFloat(out.base + 4 * 1000) +
                            1.0f);
    std::string why;
    EXPECT_FALSE(compareArray(tampered, golden, out, why));
    EXPECT_NE(why.find("out_c"), std::string::npos);
    EXPECT_FALSE(w->check(tampered, why));

    // The compare reports the first differing element by byte
    // offset, for a flip mid-page and for one in a page's last
    // element (the page-wise memcmp must not skip either).
    auto expectFirst = [&](std::uint64_t elem, float delta) {
        SparseMemory t = golden;
        const float want = golden.readFloat(out.base + 4 * elem);
        t.writeFloat(out.base + 4 * elem, want + delta);
        t.writeFloat(out.base + 4 * (elem + 5000),
                     golden.readFloat(out.base + 4 * (elem + 5000)) +
                         1.0f);
        std::ostringstream os;
        os << "out_c[byte " << 4 * elem << "]: got " << want + delta
           << ", want " << want;
        std::string msg;
        EXPECT_FALSE(compareArray(t, golden, out, msg));
        EXPECT_EQ(msg, os.str());
    };
    const std::uint64_t perPage = SparseMemory::pageBytes / 4;
    expectFirst(perPage + 300, 2.0f);
    expectFirst(3 * perPage - 1, -4.0f);
    // Identical memories compare equal, untouched pages included.
    EXPECT_TRUE(compareArray(golden, golden, out, why));
    SparseMemory empty;
    EXPECT_TRUE(compareArray(empty, SparseMemory{}, out, why));
}

TEST(KernelBuilder, BlockAddressesAreChannelLocal)
{
    SystemConfig cfg;
    AddressMap map(cfg);
    ArrayAllocator alloc(map);
    PimArray arr = alloc.alloc("x", 1ull << 16, 2);

    for (std::uint16_t ch : {0, 3, 15}) {
        KernelBuilder kb(map, ch);
        std::uint64_t blocks = kb.blocksPerChannel(arr);
        EXPECT_GT(blocks, 0u);
        for (std::uint64_t j : {std::uint64_t(0), blocks / 2,
                                blocks - 1}) {
            DramCoord c = map.decode(kb.blockAddr(arr, j));
            EXPECT_EQ(c.channel, ch);
            EXPECT_EQ(c.lane, 0);
        }
    }
}

TEST(KernelBuilder, EmittedInstructionsCarryGroupAndOperands)
{
    SystemConfig cfg;
    AddressMap map(cfg);
    ArrayAllocator alloc(map);
    PimArray arr = alloc.alloc("x", 1ull << 14, 3);

    KernelBuilder kb(map, 0);
    kb.load(1, arr, 0)
        .fetchOp(AluOp::Fma, 1, 1, arr, 1, 2.5f)
        .compute(AluOp::Relu, 1, 1, 3)
        .orderPoint(3)
        .store(1, arr, 2);
    auto stream = kb.take();
    ASSERT_EQ(stream.size(), 5u);
    EXPECT_EQ(stream[0].type, PimOpType::PimLoad);
    EXPECT_EQ(stream[0].memGroup, 3);
    EXPECT_EQ(stream[1].scalar, 2.5f);
    EXPECT_EQ(stream[2].type, PimOpType::PimCompute);
    EXPECT_EQ(stream[3].type, PimOpType::OrderPoint);
    EXPECT_EQ(stream[4].type, PimOpType::PimStore);
    EXPECT_EQ(kb.size(), 0u) << "take() must move the stream out";
}

TEST(KernelBuilder, ArraysNeverOverlap)
{
    SystemConfig cfg;
    AddressMap map(cfg);
    ArrayAllocator alloc(map);
    PimArray small = alloc.alloc("small", 16, 0);
    PimArray big = alloc.alloc("big", 1ull << 22, 0);
    PimArray next = alloc.alloc("next", 16, 0);
    EXPECT_GE(big.base, small.base + small.bytes);
    EXPECT_GE(next.base, big.base + big.bytes);
    EXPECT_EQ(small.base % map.bankGroupStride(), 0u);
    EXPECT_EQ(big.base % map.bankGroupStride(), 0u);
}

TEST(KernelBuilderDeath, OutOfRangeBlockPanics)
{
    SystemConfig cfg;
    AddressMap map(cfg);
    ArrayAllocator alloc(map);
    PimArray arr = alloc.alloc("x", 64, 0);
    KernelBuilder kb(map, 0);
    EXPECT_DEATH(kb.blockAddr(arr, 1u << 20), "out of range");
}

} // namespace
} // namespace olight
