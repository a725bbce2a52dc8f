/**
 * @file
 * Channel-partitioned execution tests: the determinism guarantees
 * (golden workload stats, sweep CSV, litmus verdicts and oracle
 * outcomes byte-identical for every simJobs value; host-traffic runs
 * byte-identical for every worker count > 1), the steady-state
 * memory discipline of the domain infrastructure (arena-backed
 * mailboxes and sized event heaps allocate nothing once warm), and
 * the canonical event key that both drivers pop by (bindKey and
 * scheduleKeyed).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "alloc_counter.hh"
#include "core/runner.hh"
#include "core/sweep.hh"
#include "core/system.hh"
#include "sim/event_domain.hh"
#include "sim/event_queue.hh"
#include "verify/litmus.hh"
#include "workloads/reference.hh"
#include "workloads/registry.hh"

namespace olight
{
namespace
{

/** Render the deterministic per-run outputs of @p r as one string
 *  (metrics JSON plus verification and oracle outcomes; wall-clock
 *  fields deliberately excluded). */
std::string
deterministicOutputs(const RunResult &r)
{
    std::ostringstream os;
    r.metrics.writeJson(os);
    os << "\nverified=" << r.verified << " correct=" << r.correct
       << " why=" << r.why << "\noracle=" << r.oracleViolations
       << "/" << r.oracleChecks << "\n"
       << r.oracleReport;
    return os.str();
}

RunResult
goldenRun(const std::string &workload, unsigned simJobs)
{
    RunOptions opts;
    opts.workload = workload;
    opts.elements = 1ull << 12;
    opts.mode = OrderingMode::OrderLight;
    opts.verify = true;
    opts.oracle = true;
    opts.simJobs = simJobs;
    return runWorkload(opts);
}

/** The acceptance-level guarantee: a verified, oracle-attached
 *  golden workload produces byte-identical deterministic outputs at
 *  simJobs 1 (sequential driver), 2 and 4 (windowed partitioned
 *  driver).
 *  KMeans is the historical canary — its host/channel credit
 *  interleaving is what shook out the stamp/priority/credit rules
 *  documented in sim/event_domain.hh. */
TEST(Partitioned, GoldenWorkloadByteIdenticalAcrossSimJobs)
{
    for (const char *wl : {"KMeans", "Triad"}) {
        SCOPED_TRACE(wl);
        const std::string at1 = deterministicOutputs(goldenRun(wl, 1));
        const std::string at2 = deterministicOutputs(goldenRun(wl, 2));
        const std::string at4 = deterministicOutputs(goldenRun(wl, 4));
        EXPECT_EQ(at1, at2);
        EXPECT_EQ(at1, at4);
        EXPECT_NE(at1.find("\"finish_tick\""), std::string::npos)
            << "metrics JSON should carry the tick columns: " << at1;
    }
}

/** Run @p workload with its host traffic under FGA at @p simJobs:
 *  metrics JSON, oracle verdict and golden check as one string. */
std::string
hostTrafficOutputs(const char *workload, unsigned simJobs)
{
    SystemConfig cfg = configFor(OrderingMode::OrderLight, 256, 16);
    cfg.verifyOracle = true;
    EXPECT_EQ(cfg.arbitration, ArbitrationGranularity::Fine);
    auto wl = makeWorkload(workload);
    wl->build(cfg, 1ull << 14);
    ExecPolicy policy;
    policy.simJobs = simJobs;
    System sys(cfg, policy);
    wl->initMemory(sys.mem());
    sys.loadPimKernel(wl->streams());
    sys.setHostTraffic(wl->hostTraffic());
    RunMetrics metrics = sys.run();
    EXPECT_TRUE(sys.partitioned());

    SparseMemory golden;
    wl->initMemory(golden);
    runGolden(cfg, wl->map(), wl->streams(), golden);
    std::string why;
    for (const PimArray &arr : wl->arrays())
        EXPECT_TRUE(compareArray(sys.mem(), golden, arr, why)) << why;

    std::ostringstream os;
    metrics.writeJson(os);
    os << "\noracle=" << sys.oracle()->violationCount() << "/"
       << sys.oracle()->checksPerformed() << "\n";
    sys.oracle()->report(os);
    return os.str();
}

/** Concurrent host traffic through the windowed driver gives the
 *  same bytes for every worker count. It deliberately does not
 *  compare against simJobs 1: the barrier-time mailbox replay orders
 *  some host-traffic effects differently from the sequential driver
 *  (docs/INTERNALS.md section 12), a known divergence. */
TEST(Partitioned, HostTrafficIndependentOfWorkerCount)
{
    for (const char *wl : {"KMeans", "Add"}) {
        SCOPED_TRACE(wl);
        const std::string at2 = hostTrafficOutputs(wl, 2);
        const std::string at4 = hostTrafficOutputs(wl, 4);
        EXPECT_EQ(at2, at4);
        EXPECT_NE(at2.find("oracle=0/"), std::string::npos)
            << "the oracle should attach and stay clean: " << at2;
    }
}

/** Oracle verdicts (not just counts) must match across drivers. */
TEST(Partitioned, OracleVerdictsIndependentOfSimJobs)
{
    RunResult seq = goldenRun("Daxpy", 1);
    RunResult par = goldenRun("Daxpy", 4);
    EXPECT_TRUE(seq.correct);
    EXPECT_TRUE(par.correct);
    EXPECT_EQ(seq.oracleViolations, par.oracleViolations);
    EXPECT_EQ(seq.oracleChecks, par.oracleChecks);
    EXPECT_EQ(seq.oracleReport, par.oracleReport);
    EXPECT_GT(par.oracleChecks, 0u);
}

/** Sweep CSV (the artifact results/ commits) is byte-identical for
 *  every simJobs value, including with grid-level workers on top. */
TEST(Partitioned, SweepCsvByteIdenticalAcrossSimJobs)
{
    SweepSpec spec;
    spec.workloads = {"Scale", "KMeans"};
    spec.modes = {OrderingMode::Fence, OrderingMode::OrderLight};
    spec.tsSizes = {256};
    spec.bmfs = {16};
    spec.elements = 1ull << 12;
    spec.verify = true;

    std::string csvBySimJobs[3];
    unsigned simJobs[3] = {1, 2, 4};
    for (int i = 0; i < 3; ++i) {
        SweepSpec s = spec;
        s.simJobs = simJobs[i];
        s.jobs = (i == 2) ? 2 : 1; // grid workers on top, once
        std::ostringstream os;
        writeCsv(os, runSweep(s));
        csvBySimJobs[i] = os.str();
    }
    EXPECT_EQ(csvBySimJobs[0], csvBySimJobs[1]);
    EXPECT_EQ(csvBySimJobs[0], csvBySimJobs[2]);
}

/** Every litmus-table entry reaches the same verdict (violations,
 *  checks, report text) under every driver, for the mode that must
 *  stay clean and the mode that must trip. */
TEST(Partitioned, LitmusVerdictsIndependentOfSimJobs)
{
    for (const LitmusSpec &spec : litmusTable()) {
        for (OrderingMode mode :
             {OrderingMode::None, OrderingMode::Fence,
              OrderingMode::OrderLight}) {
            for (std::uint64_t seed : {1ull, 7ull}) {
                SCOPED_TRACE(std::string(spec.name) + " mode=" +
                             std::to_string(int(mode)) + " seed=" +
                             std::to_string(seed));
                LitmusResult r1 =
                    runLitmus(spec.name, mode, seed, 1);
                LitmusResult r2 =
                    runLitmus(spec.name, mode, seed, 2);
                LitmusResult r4 =
                    runLitmus(spec.name, mode, seed, 4);
                EXPECT_EQ(r1.violations, r2.violations);
                EXPECT_EQ(r1.violations, r4.violations);
                EXPECT_EQ(r1.checks, r2.checks);
                EXPECT_EQ(r1.checks, r4.checks);
                EXPECT_EQ(r1.report, r2.report);
                EXPECT_EQ(r1.report, r4.report);
            }
        }
    }
}

/** Run @p workload partitioned and return the domain profiles. */
std::vector<DomainProfile>
profilesFor(const char *workload, std::uint64_t elements)
{
    SystemConfig cfg = configFor(OrderingMode::OrderLight, 256, 16);
    auto wl = makeWorkload(workload);
    wl->build(cfg, elements);
    ExecPolicy policy;
    policy.simJobs = 4;
    System sys(cfg, policy);
    wl->initMemory(sys.mem());
    sys.loadPimKernel(wl->streams());
    sys.run();
    EXPECT_TRUE(sys.partitioned());
    return sys.domainProfiles();
}

/** Steady-state memory discipline at the System level: the per-run
 *  allocation sources the profiles count — event-heap regrows and
 *  arena chunk acquisitions — must not scale with run length. A 4x
 *  longer run executes 4x the events and crosses 4x the window
 *  barriers with the *same* heap reservations and the same arena
 *  high-water chunks: the windowed hot path reuses, never grows. */
TEST(Partitioned, DomainHeapAndArenaGrowthIndependentOfRunLength)
{
    auto small = profilesFor("Triad", 1ull << 12);
    auto large = profilesFor("Triad", 1ull << 18);
    ASSERT_EQ(small.size(), large.size());
    std::uint64_t smallEvents = 0, largeEvents = 0;
    for (std::size_t d = 0; d < small.size(); ++d) {
        SCOPED_TRACE(d);
        smallEvents += small[d].events;
        largeEvents += large[d].events;
        EXPECT_EQ(small[d].heapRegrows, 0u);
        EXPECT_EQ(large[d].heapRegrows, 0u);
        EXPECT_EQ(small[d].arenaGrows, large[d].arenaGrows);
    }
    EXPECT_GT(largeEvents, 2 * smallEvents)
        << "the large run should be several times the work";
}

/** Steady-state window cycle of the cross-domain machinery itself —
 *  mailbox pushes from a channel queue's executing context, barrier
 *  drain into the host queue, arena reset — allocates nothing once
 *  the first windows have sized the arena and the heaps. */
TEST(Partitioned, CrossDomainWindowCycleAllocatesNothing)
{
    EventQueue hostQ(256);
    EventQueue chQ(256);
    hostQ.setDomain(0, 1);
    chQ.setDomain(1, 0);
    DomainMailbox box;

    std::uint64_t applied = 0;
    auto window = [&](Tick base, int depth) {
        // Channel phase: each event records one cross-domain
        // message, as the partitioned ack/credit wrappers do.
        for (int i = 0; i < depth; ++i)
            chQ.schedule(base + Tick(i), [&] {
                CrossMsg m;
                m.kind = CrossMsg::Kind::Ack;
                m.channel = 0;
                m.applyTick = chQ.now();
                m.stamp = chQ.currentStamp();
                m.prio = chQ.currentPrio();
                box.push(m);
            });
        chQ.runUntil(base + Tick(depth));
        // Barrier: drain in order, replay into the host queue with
        // the recorded (stamp, source), then wholesale-free.
        for (std::size_t i = 0; i < box.size(); ++i) {
            const CrossMsg &m = box[i];
            hostQ.scheduleKeyed(m.applyTick, [&] { ++applied; },
                                m.prio, m.stamp, 1);
        }
        hostQ.runUntil(base + Tick(depth));
        box.reset();
    };

    Tick base = 0;
    const int kDepth = 64;
    for (int w = 0; w < 4; ++w, base += kDepth) // warm up
        window(base, kDepth);

    const std::uint64_t before = test_alloc::newCount();
    for (int w = 0; w < 32; ++w, base += kDepth)
        window(base, kDepth);
    EXPECT_EQ(test_alloc::newCount() - before, 0u)
        << "steady-state window cycles must not allocate";
    EXPECT_EQ(applied, 36u * kDepth);
}

/** Pop order covers the full canonical key: tick, priority, stamp,
 *  source id, domain rank, then insertion sequence. Everything but
 *  the sequence pair is inserted in reverse order, so only the key
 *  can produce the expected order. */
TEST(Partitioned, PopOrderFollowsTheFullCanonicalKey)
{
    EventQueue host;
    EventQueue ch0(1), ch1(1);
    host.setDomain(0, 2);
    ch0.setDomain(1, 0);
    ch1.setDomain(2, 1);
    ch0.bindKey(&host, true);
    ch1.bindKey(&host, true);

    std::vector<std::string> order;
    auto note = [&](const char *what) {
        return [&order, what] { order.push_back(what); };
    };
    const auto dflt = EventPriority::Default;
    host.scheduleKeyed(20, note("stamp"), dflt, 5, 0);
    host.scheduleKeyed(20, note("source"), dflt, 0, 1);
    host.schedule(20, note("seq-first"));
    host.schedule(20, note("seq-second"));
    ch1.schedule(20, note("rank1"));
    ch0.schedule(20, note("rank0"));
    host.schedule(20, note("priority"), EventPriority::DramTiming);
    host.schedule(10, note("tick"), EventPriority::Stats);

    EXPECT_TRUE(ch0.empty());
    EXPECT_TRUE(ch1.empty());
    EXPECT_EQ(host.size(), 8u);
    host.run();
    EXPECT_EQ(order, (std::vector<std::string>{
                         "tick", "priority", "rank0", "rank1",
                         "seq-first", "seq-second", "source",
                         "stamp"}));
}

/** The bindKey rule. A forwarding queue reads the key queue's clock
 *  and records its own source id only while the key queue runs an
 *  event of its rank; a non-forwarding queue keeps its events and its
 *  own clock but takes its stamp and source from the key queue. */
TEST(Partitioned, BoundQueuesDeriveKeysFromTheKeyQueue)
{
    EventQueue host;
    EventQueue ch(1);
    host.setDomain(0, 1);
    ch.setDomain(1, 0);
    ch.bindKey(&host, true);

    std::vector<std::string> order;
    // At tick 10 an event of ch's rank and then a host event each
    // schedule into ch for tick 30, both stamped 10. The first
    // records ch's own source (1), the second the host's (0), so the
    // later schedule pops first.
    ch.schedule(10, [&] {
        EXPECT_EQ(ch.now(), 10u);
        ch.schedule(30, [&] { order.push_back("own"); });
    });
    host.schedule(10, [&] {
        ch.schedule(30, [&] {
            EXPECT_EQ(host.currentStamp(), 10u);
            order.push_back("foreign");
        });
    }, EventPriority::Wakeup);
    host.run();
    EXPECT_EQ(order, (std::vector<std::string>{"foreign", "own"}));
    EXPECT_EQ(ch.now(), 30u);
    EXPECT_EQ(ch.numExecuted(), 0u);
    EXPECT_EQ(host.numExecuted(), 4u);

    // Non-forwarding: events stay here, the clock stays ours, and a
    // bound schedule carries the host's tick (30) and source (0).
    EventQueue q;
    q.setDomain(2, 0);
    order.clear();
    q.scheduleKeyed(50, [&] { order.push_back("keyed"); },
                    EventPriority::Default, 30, 1);
    q.bindKey(&host, false);
    EXPECT_EQ(q.now(), 0u);
    q.schedule(50, [&] {
        EXPECT_EQ(q.currentStamp(), 30u);
        order.push_back("bound");
    });
    q.bindKey(nullptr, false);
    q.schedule(50, [&] { order.push_back("unbound"); });
    EXPECT_EQ(q.size(), 3u);
    EXPECT_TRUE(host.empty());
    q.run();
    EXPECT_EQ(order,
              (std::vector<std::string>{"unbound", "bound", "keyed"}));
    EXPECT_EQ(q.now(), 50u);
    EXPECT_EQ(host.now(), 30u);
}

} // namespace
} // namespace olight
