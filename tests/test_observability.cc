/**
 * @file
 * Tests for the observability layer: JSON stat export (golden
 * against the human dump), bucketed histograms, the O(1) StatSet
 * index, interval sampling (determinism across host worker counts,
 * no effect on simulated time), the Chrome trace_event backend
 * (balanced spans, the same per-packet and per-MC sequences under
 * every driver, a chain link that leaves the others unchanged), and
 * sweep JSON rows.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/sweep.hh"
#include "core/system.hh"
#include "sim/commit_log.hh"
#include "sim/json.hh"
#include "sim/sampler.hh"
#include "sim/stats.hh"
#include "sim/thread_pool.hh"
#include "sim/trace.hh"
#include "verify/log_events.hh"
#include "workloads/registry.hh"

namespace olight
{
namespace
{

TEST(JsonNumber, RoundTripAndSpecials)
{
    auto fmt = [](double v) {
        std::ostringstream os;
        jsonNumber(os, v);
        return os.str();
    };
    // Integral values print as integers, not scientific notation.
    EXPECT_EQ(fmt(40.0), "40");
    EXPECT_EQ(fmt(0.0), "0");
    EXPECT_EQ(fmt(-3.0), "-3");
    EXPECT_EQ(fmt(1e12), "1000000000000");
    // Fractions round-trip through the shortest form.
    EXPECT_EQ(fmt(0.1), "0.1");
    EXPECT_EQ(fmt(2.5), "2.5");
    // nan/inf are invalid JSON tokens; null is emitted instead.
    EXPECT_EQ(fmt(std::nan("")), "null");
    EXPECT_EQ(fmt(1.0 / 0.0), "null");
}

TEST(JsonString, EscapesControlAndQuoteCharacters)
{
    std::ostringstream os;
    jsonString(os, "a\"b\\c\nd\x01");
    EXPECT_EQ(os.str(), "\"a\\\"b\\\\c\\nd\\u0001\"");
}

TEST(StatsJson, GoldenDocumentMatchesRegisteredValues)
{
    StatSet stats;
    stats.scalar("a.count", "a counter") += 3;
    stats.scalar("b.value") += 2.5;
    Distribution &d =
        stats.distribution("lat", "latency", 0.0, 10.0, 2);
    d.sample(1.0);  // bucket 0
    d.sample(5.0);  // bucket 1
    d.sample(12.0); // overflow

    std::ostringstream js;
    stats.dumpJson(js);
    EXPECT_EQ(js.str(),
              "{\"scalars\":{\"a.count\":3,\"b.value\":2.5},"
              "\"distributions\":{\"lat\":{\"count\":3,\"sum\":18,"
              "\"mean\":6,\"min\":1,\"max\":12,"
              "\"buckets\":{\"lo\":0,\"hi\":10,\"counts\":[1,1],"
              "\"underflow\":0,\"overflow\":1}}}}");

    // The JSON carries the same values the human dump prints.
    std::ostringstream dump;
    stats.dump(dump);
    EXPECT_NE(dump.str().find("a.count"), std::string::npos);
    EXPECT_NE(dump.str().find("count=3 mean=6"), std::string::npos);
}

TEST(StatsJson, HistogramEdgesAndUnderflow)
{
    Distribution d("d", "");
    d.initBuckets(0.0, 8.0, 4);
    ASSERT_TRUE(d.hasBuckets());
    d.sample(-0.001); // underflow
    d.sample(0.0);    // first bucket, inclusive lower edge
    d.sample(1.999);  // still first bucket
    d.sample(2.0);    // second bucket
    d.sample(7.999);  // last bucket
    d.sample(8.0);    // exclusive upper edge -> overflow
    EXPECT_EQ(d.underflow(), 1u);
    EXPECT_EQ(d.overflow(), 1u);
    ASSERT_EQ(d.bucketCounts().size(), 4u);
    EXPECT_EQ(d.bucketCounts()[0], 2u);
    EXPECT_EQ(d.bucketCounts()[1], 1u);
    EXPECT_EQ(d.bucketCounts()[2], 0u);
    EXPECT_EQ(d.bucketCounts()[3], 1u);

    // First registration wins: re-initializing is a no-op.
    d.initBuckets(0.0, 100.0, 50);
    EXPECT_EQ(d.bucketHi(), 8.0);
    ASSERT_EQ(d.bucketCounts().size(), 4u);

    // reset() zeroes the histogram but keeps its shape.
    d.reset();
    EXPECT_EQ(d.underflow(), 0u);
    EXPECT_EQ(d.bucketCounts()[0], 0u);
    EXPECT_TRUE(d.hasBuckets());
}

TEST(StatsIndex, LookupIsStableAcrossManyRegistrations)
{
    StatSet stats;
    Scalar &first = stats.scalar("ch0.requests");
    Distribution &fd = stats.distribution("ch0.latency");
    // A wide system registers thousands of stats; references handed
    // out early must survive (deque storage + hash index).
    for (int i = 1; i < 2000; ++i) {
        std::string ch = "ch" + std::to_string(i);
        stats.scalar(ch + ".requests");
        stats.distribution(ch + ".latency");
    }
    first += 7;
    fd.sample(3.0);
    EXPECT_EQ(&stats.scalar("ch0.requests"), &first)
        << "re-registration must return the original object";
    EXPECT_EQ(stats.findScalar("ch0.requests"), &first);
    EXPECT_EQ(stats.findScalar("ch0.requests")->value(), 7.0);
    EXPECT_EQ(stats.findDistribution("ch0.latency"), &fd);
    EXPECT_EQ(stats.findScalar("no.such.stat"), nullptr);
    EXPECT_EQ(stats.findDistribution("no.such.stat"), nullptr);
    EXPECT_EQ(stats.findScalar("ch1999.requests")->value(), 0.0);
}

/** Run one small PIM workload with sampling; return the CSV. */
std::string
sampledRun(Tick interval, std::uint64_t *samples = nullptr,
           Tick *finish = nullptr)
{
    SystemConfig cfg = configFor(OrderingMode::OrderLight, 256, 16);
    auto w = makeWorkload("Add");
    w->build(cfg, 1ull << 12);
    System sys(cfg);
    w->initMemory(sys.mem());
    sys.loadPimKernel(w->streams());
    std::ostringstream csv;
    sys.enableSampling(csv, interval);
    RunMetrics m = sys.run();
    if (samples)
        *samples = sys.sampler()->samples();
    if (finish)
        *finish = m.finishTick;
    return csv.str();
}

TEST(Sampler, TimeSeriesIsByteIdenticalForAnyWorkerCount)
{
    std::uint64_t samples = 0;
    Tick finish = 0;
    const Tick interval = Tick(500) * corePeriod;
    const std::string serial = sampledRun(interval, &samples, &finish);
    EXPECT_GT(samples, 0u);
    EXPECT_NE(serial.find("mc0.readq"), std::string::npos);
    EXPECT_NE(serial.find("dram0.rowHitRate"), std::string::npos);

    // Sampling is pure observation: simulated time is unchanged.
    Tick unsampled = 0;
    {
        SystemConfig cfg =
            configFor(OrderingMode::OrderLight, 256, 16);
        auto w = makeWorkload("Add");
        w->build(cfg, 1ull << 12);
        System sys(cfg);
        w->initMemory(sys.mem());
        sys.loadPimKernel(w->streams());
        unsampled = sys.run().finishTick;
    }
    EXPECT_EQ(finish, unsampled);

    // The acceptance check: concurrent Systems on a worker pool
    // produce the same bytes as the serial run, for any --jobs.
    for (unsigned jobs : {2u, 8u}) {
        std::vector<std::string> out(6);
        parallelFor(jobs, out.size(),
                    [&](std::size_t i) { out[i] = sampledRun(interval); });
        for (std::size_t i = 0; i < out.size(); ++i)
            EXPECT_EQ(out[i], serial) << "jobs=" << jobs
                                      << " run=" << i;
    }
}

TEST(Sampler, RejectsZeroInterval)
{
    EventQueue eq;
    std::ostringstream os;
    EXPECT_EXIT((Sampler{eq, os, 0, {}}),
                ::testing::ExitedWithCode(1), "interval");
}

/** Count occurrences of a substring. */
std::size_t
countOf(const std::string &text, const std::string &needle)
{
    std::size_t n = 0;
    for (std::size_t at = text.find(needle);
         at != std::string::npos; at = text.find(needle, at + 1))
        ++n;
    return n;
}

/** One traced Copy run; with @p logPath set, the oracle and a
 *  commit-log recorder join the chain (trace -> recorder -> oracle)
 *  and the log bytes and live verdict come back too. */
struct TracedRun
{
    std::string trace; ///< empty when the run was not traced
    std::string log;
    ReplayVerdict verdict;
};

TracedRun
tracedCopyRun(unsigned simJobs, bool trace,
              const std::string &logPath = "")
{
    SystemConfig cfg = configFor(OrderingMode::OrderLight, 256, 16);
    cfg.verifyOracle = !logPath.empty();
    auto w = makeWorkload("Copy");
    w->build(cfg, 1ull << 12);
    ExecPolicy policy;
    policy.simJobs = simJobs;

    TracedRun out;
    std::ostringstream json;
    {
        std::unique_ptr<CommitLogWriter> writer;
        System sys(cfg, policy);
        if (!logPath.empty()) {
            writer = std::make_unique<CommitLogWriter>(logPath, cfg, 0);
            sys.enableRecording(*writer);
        }
        if (trace)
            sys.enableTrace(json);
        w->initMemory(sys.mem());
        sys.loadPimKernel(w->streams());
        sys.run();
        if (writer) {
            out.verdict = harvestVerdict(*sys.oracle());
            EXPECT_TRUE(writer->finish(out.verdict.violations,
                                       out.verdict.checks,
                                       out.verdict.reportHash,
                                       out.verdict.clean));
        }
    } // System destruction closes the TraceWriter (JSON footer).
    out.trace = json.str();
    if (!logPath.empty()) {
        std::ifstream in(logPath, std::ios::binary);
        out.log.assign(std::istreambuf_iterator<char>(in), {});
        std::remove(logPath.c_str());
    }
    return out;
}

/** Trace events per track, in file order: each packet's spans keyed
 *  by its tid, each MC's point events keyed by the MC's name. */
std::map<std::string, std::vector<std::string>>
eventsPerTrack(const std::string &trace)
{
    std::map<std::string, std::vector<std::string>> tracks;
    std::istringstream in(trace);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("{\"name\":\"", 0) != 0)
            continue;
        if (line.back() == ',')
            line.pop_back();
        std::string key;
        if (line.find("\"ph\":\"i\"") != std::string::npos) {
            key = line.substr(9, line.find('.') - 9);
        } else {
            auto tid = line.find("\"tid\":");
            key = "pkt" + line.substr(tid + 6,
                                      line.find_first_of(",}", tid) -
                                          tid - 6);
        }
        tracks[key].push_back(line);
    }
    return tracks;
}

TEST(ChromeTrace, EmitsBalancedSpansAndValidFrame)
{
    const std::string text = tracedCopyRun(1, true).trace;
    EXPECT_EQ(text.rfind("{\"displayTimeUnit\":", 0), 0u);
    EXPECT_NE(text.find("\"traceEvents\":["), std::string::npos);
    EXPECT_EQ(text.substr(text.size() - 4), "\n]}\n");

    std::size_t begins = countOf(text, "\"ph\":\"B\"");
    std::size_t ends = countOf(text, "\"ph\":\"E\"");
    EXPECT_GT(begins, 0u);
    EXPECT_EQ(begins, ends) << "every span must be closed";

    // The packet lifecycle stages all appear.
    for (const char *stage :
         {"sm0.collect", "icnt.sm", "l2s0", "mc0.queue", "mc0.sched"})
        EXPECT_NE(text.find(stage), std::string::npos) << stage;

    // The windowed driver traces through the mailbox relays: its
    // bytes do not depend on the worker count, and every packet's
    // span sequence and every MC's point-event sequence match the
    // sequential trace (only the interleaving of different tracks
    // may differ).
    const auto serial = eventsPerTrack(text);
    const std::string j2 = tracedCopyRun(2, true).trace;
    const std::string j4 = tracedCopyRun(4, true).trace;
    EXPECT_TRUE(j2 == j4) << "sim-jobs 2 and 4 traces differ";
    EXPECT_TRUE(eventsPerTrack(j2) == serial)
        << "a packet's spans or an MC's events differ from sim-jobs 1";

    // A three-link chain (trace -> recorder -> oracle) leaves the
    // trace, the commit log and the verdict as each link alone.
    const std::string path =
        ::testing::TempDir() + "olight_chrome_trace_chain.olog";
    for (unsigned simJobs : {1u, 4u}) {
        const TracedRun plain = tracedCopyRun(simJobs, false, path);
        const TracedRun chained = tracedCopyRun(simJobs, true, path);
        EXPECT_GT(plain.verdict.checks, 0u);
        EXPECT_TRUE(chained.log == plain.log)
            << "commit log changed by the trace, sim-jobs " << simJobs;
        EXPECT_EQ(chained.verdict.checks, plain.verdict.checks);
        EXPECT_EQ(chained.verdict.violations, plain.verdict.violations);
        EXPECT_EQ(chained.verdict.reportHash, plain.verdict.reportHash);
        EXPECT_EQ(chained.verdict.clean, plain.verdict.clean);
        EXPECT_TRUE(chained.trace == (simJobs == 1 ? text : j4))
            << "trace changed by the recorder and oracle, sim-jobs "
            << simJobs;
    }
}

TEST(ChromeTrace, SpanWritesMatchedPairInOneCall)
{
    std::ostringstream os;
    {
        EventQueue clock;
        TraceWriter tw(os, clock);
        tw.span(100, 300, "stage", 42, "detail");
        tw.record(400, "mc0", "arrive", "x");
        tw.close();
        tw.close(); // idempotent
    }
    const std::string text = os.str();
    EXPECT_EQ(countOf(text, "\"ph\":\"B\""), 1u);
    EXPECT_EQ(countOf(text, "\"ph\":\"E\""), 1u);
    EXPECT_EQ(countOf(text, "\"ph\":\"i\""), 1u);
    EXPECT_EQ(countOf(text, "\"tid\":42"), 2u);
    EXPECT_EQ(countOf(text, "]}\n"), 1u);
}

TEST(SweepJson, RowsCarryGridPointAndNestedMetrics)
{
    SweepRow row;
    row.workload = "Add";
    row.mode = OrderingMode::OrderLight;
    row.tsBytes = 256;
    row.bmf = 16;
    row.verified = true;
    row.correct = true;
    row.gpuMs = 1.5;
    row.metrics.execMs = 0.25;
    row.metrics.pimCommands = 1000;
    row.hostSeconds = 0.5;
    row.eventsExecuted = 1000;

    std::ostringstream plain, timed;
    writeJsonRows(plain, {row});
    writeJsonRows(timed, {row}, true);

    const std::string text = plain.str();
    EXPECT_EQ(text.rfind("[", 0), 0u);
    EXPECT_NE(text.find("\"workload\":\"Add\""), std::string::npos);
    EXPECT_NE(text.find("\"mode\":\"OrderLight\""),
              std::string::npos);
    EXPECT_NE(text.find("\"ts_bytes\":256"), std::string::npos);
    EXPECT_NE(text.find("\"verified\":true"), std::string::npos);
    EXPECT_NE(text.find("\"gpu_ms\":1.5"), std::string::npos);
    EXPECT_NE(text.find("\"metrics\":{"), std::string::npos);
    EXPECT_NE(text.find("\"exec_ms\":0.25"), std::string::npos);
    EXPECT_NE(text.find("\"pim_commands\":1000"), std::string::npos);
    // Wall-clock fields are opt-in, like the CSV columns.
    EXPECT_EQ(text.find("host_seconds"), std::string::npos);
    EXPECT_NE(timed.str().find("\"host_seconds\":0.5"),
              std::string::npos);
    EXPECT_NE(timed.str().find("\"events_per_second\":2000"),
              std::string::npos);
}

} // namespace
} // namespace olight
