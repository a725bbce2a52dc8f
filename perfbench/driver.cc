/**
 * @file
 * Benchmark driver: runs one workload for a given time and writes
 * every raw measurement as one JSON document. perfbench/run.py builds
 * this binary, runs it and turns the raw document into metrics.
 *
 *   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
 *                    --dir WORKDIR --out RAW.json
 *
 * Workloads (see BENCHMARK.json for why each was chosen):
 *   sweep_grid          runSweep over the figure-shaped grid
 *   partitioned_oracle  System API, channel-partitioned, oracle on
 *   fga_mixed           System API, PIM kernel + host traffic (FGA)
 *
 * Every run includes the serving ladder, so the serving metrics exist
 * on every workload. The run is cut into rounds: each round times a
 * few set-ups and the workload's units, then offers every rate of the
 * ladder for a slice of its requests. Every measurement is so spread
 * over the whole run, and the host's drift averages into each.
 * With --trace 1 the same work runs with spans on, plus the per-layer
 * probes.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <thread>

#include "phases.hh"
#include "serve_load.hh"
#include "sim/json.hh"

using namespace olight;
using namespace perfbench;

namespace
{

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string dir;
    std::string out;
};

const std::vector<std::string> kGridWorkloads = {
    "Add", "Daxpy", "KMeans", "Gen_Fil", "Txn_Xfer", "Bit_Xnor"};
const std::vector<std::uint32_t> kGridTs = {128, 512};
constexpr std::uint64_t kGridElements = 1ull << 18;
constexpr std::uint64_t kPartitionedElements = 1ull << 19;
constexpr std::uint64_t kFgaElements = 1ull << 19;
/** Model-check grid behind the geomeans of the non-grid workloads. */
constexpr std::uint64_t kModelElements = 1ull << 16;
/** Rounds a run is cut into (see the file comment). */
constexpr std::size_t kRounds = 5;
/** Set-ups timed before each round and after the last; the median of
 *  all of them is reported. */
constexpr int kSetupRepsPerSlot = 3;

/** Offered rates of the serving ladder (requests/s). The fleet's cold
 *  simulations saturate near 360 requests/s on 4 cores. The first
 *  rate is "low"; kHighRung is "high", kept at half of capacity
 *  because closer to the knee the p99 swings with the host's speed;
 *  the last is twice capacity, so that slo_rate_rps is interpolated,
 *  not capped. At least 1000 requests per rate leave ten beyond p99;
 *  the ladder takes kLadderShare of the run. */
const std::vector<double> kLadder = {120, 180, 720};
constexpr std::size_t kHighRung = 1;
/** Rates from here on overload the fleet. They are offered once, in
 *  the middle round, with all their requests: a slice would end
 *  before the backlog builds, and p99 would swing with where it
 *  ended. */
constexpr std::size_t kOverloadRung = 2;
constexpr std::size_t kMinRungRequests = 1000;
constexpr double kLadderShare = 0.6;

unsigned
hardwareThreads()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

unsigned
workers()
{
    return std::min(4u, hardwareThreads());
}

/** One checked operation other than a serving request. */
struct Op
{
    std::string kind;
    bool ok = false;
    std::string detail;
};

/** Everything the run measured, in run.py's raw schema. */
struct Raw
{
    std::vector<Op> ops;
    /** (PIM commands, seconds) of each timed unit: one runSweep pass
     *  or one round of a batch workload's points. */
    std::vector<std::pair<std::uint64_t, double>> units;
    std::vector<double> setupSamples;
    std::vector<SpeedupTriple> triples;
    std::vector<Rung> rungs;
    Counts serveCounts;
    double overheadOff = 0.0, overheadOn = 0.0;
    std::ostringstream meta;
};

std::string
pointName(const PointSpec &p)
{
    return p.workload + "/" + toString(p.mode) + "/ts" +
           std::to_string(p.tsBytes) + "/" +
           std::to_string(p.elements);
}

void
account(Raw &raw, const PointSpec &p, const PointResult &r)
{
    raw.ops.push_back({"point", r.correct, pointName(p) + ": " + r.why});
}

/** Geomean triples from a small runSweep grid over @p workloads. */
void
modelGrid(Raw &raw, const std::vector<std::string> &workloads,
          std::uint64_t seed)
{
    GridPass pass = runGrid(workloads, kGridTs, kModelElements,
                            workers(), seed, false);
    raw.triples = pass.triples;
}

/** Time the set-up calls of @p points once (through loadPimKernel,
 *  and setHostTraffic when @p opts asks for it). */
void
setupRep(const std::vector<PointSpec> &points, PointOptions opts,
         Raw &raw)
{
    Tracer off(false);
    opts.setupOnly = true;
    double total = 0.0;
    for (const PointSpec &p : points)
        total += runPoint(p, opts, off).setupSeconds;
    raw.setupSamples.push_back(total);
}

/** Census of the partitioned driver for workloads that never enter
 *  it: one Add/orderlight point with the oracle on and off. */
void
partitionedCensus(Tracer &tracer, Raw &raw, std::uint64_t seed)
{
    const PointSpec p{"Add", OrderingMode::OrderLight, 256, 1ull << 18};
    PointOptions opts;
    opts.simJobs = workers();
    opts.profileDomains = true;
    opts.seed = seed;
    opts.oracle = true;
    Tracer::Span s(tracer, "census.partitioned");
    const PointResult on = runPoint(p, opts, tracer);
    account(raw, p, on);
    opts.oracle = false;
    const PointResult off = runPoint(p, opts, tracer);
    account(raw, p, off);
    tracer.add("verify.oracle_s", on.runSeconds - off.runSeconds);
}

// ---------------------------------------------------------------
// sweep_grid

/** Set-up share of the grid, timed apart from runSweep (which folds
 *  it into every point): each grid workload's build, System
 *  constructor, initMemory and loadPimKernel. */
void
sweepSetup(const Args &args, Raw &raw)
{
    std::vector<PointSpec> points;
    for (const std::string &w : kGridWorkloads)
        points.push_back({w, OrderingMode::OrderLight, 128, kGridElements});
    PointOptions opts;
    opts.seed = mix(args.seed);
    setupRep(points, opts, raw);
}

/** One verified runSweep pass over the whole grid. */
void
sweepUnit(const Args &args, std::uint64_t pass, Raw &raw)
{
    GridPass g = runGrid(kGridWorkloads, kGridTs, kGridElements,
                         workers(), mix(args.seed + pass), true);
    raw.units.push_back({g.pimCommands, g.seconds});
    for (const std::string &line : g.lines)
        raw.ops.push_back({"grid_point", true, line});
    for (const std::string &line : g.failures)
        raw.ops.push_back({"grid_point", false, line});
    if (pass == 0)
        raw.triples = g.triples;
}

/** The grid's layers, one point at a time through the calls runSweep
 *  makes; timed once untraced and once traced. */
void
sweepTraced(const Args &args, Tracer &tracer, Raw &raw)
{
    for (int traced = 0; traced < 2; ++traced) {
        tracer.setEnabled(traced);
        const perfbench::Clock::time_point t0 = perfbench::Clock::now();
        for (const std::string &w : kGridWorkloads) {
            for (OrderingMode mode :
                 {OrderingMode::Fence, OrderingMode::OrderLight,
                  OrderingMode::Louvre}) {
                for (std::uint32_t ts : kGridTs) {
                    const PointSpec p{w, mode, ts, kGridElements};
                    PointOptions opts;
                    opts.seed = mix(args.seed);
                    Tracer::Span s(tracer, "grid.point");
                    const PointResult r = runPoint(p, opts, tracer);
                    account(raw, p, r);
                    addModelCounts(r, tracer);
                }
            }
        }
        (traced ? raw.overheadOn : raw.overheadOff) = secondsSince(t0);
    }
    partitionedCensus(tracer, raw, mix(args.seed));
}

// ---------------------------------------------------------------
// partitioned_oracle and fga_mixed

struct BatchSpec
{
    std::vector<PointSpec> points;
    PointOptions opts;
    std::vector<std::string> modelWorkloads;
};

BatchSpec
partitionedSpec()
{
    BatchSpec b;
    b.points = {
        {"Add", OrderingMode::OrderLight, 256, kPartitionedElements},
        {"KMeans", OrderingMode::OrderLight, 256, kPartitionedElements},
        {"Txn_Xfer", OrderingMode::Louvre, 256, kPartitionedElements}};
    b.opts.simJobs = workers();
    b.opts.oracle = true;
    b.modelWorkloads = {"Add", "KMeans", "Txn_Xfer"};
    return b;
}

BatchSpec
fgaSpec()
{
    BatchSpec b;
    b.points = {
        {"KMeans", OrderingMode::OrderLight, 256, kFgaElements},
        {"Add", OrderingMode::OrderLight, 256, kFgaElements}};
    b.opts.simJobs = workers();
    b.opts.hostTraffic = true;
    b.modelWorkloads = {"KMeans", "Add"};
    return b;
}

/** Simulated results two drivers must agree on. */
bool
sameMetrics(const RunMetrics &a, const RunMetrics &b)
{
    std::ostringstream x, y;
    a.writeJson(x);
    b.writeJson(y);
    return x.str() == y.str();
}

/** One round: every point of the workload, each verified. */
void
batchUnit(const Args &args, const BatchSpec &spec, std::uint64_t round,
          Tracer &tracer, Raw &raw)
{
    PointOptions opts = spec.opts;
    opts.profileDomains = tracer.enabled();
    opts.seed = mix(args.seed + round);
    std::uint64_t commands = 0;
    double seconds = 0.0;
    for (const PointSpec &p : spec.points) {
        Tracer::Span s(tracer, "batch.point");
        const PointResult r = runPoint(p, opts, tracer);
        account(raw, p, r);
        commands += r.metrics.pimCommands;
        seconds += r.timedSeconds;
        if (round == 0)
            addModelCounts(r, tracer);
    }
    raw.units.push_back({commands, seconds});
}

/** Untraced vs traced timing of one round, the oracle's cost (the
 *  same point with the oracle on and off), and whether the sequential
 *  driver agrees with the partitioned one. */
void
batchTraced(const Args &args, const BatchSpec &spec, Tracer &tracer,
            Raw &raw)
{
    PointOptions opts = spec.opts;
    opts.profileDomains = true;
    opts.seed = mix(args.seed);
    for (int traced = 0; traced < 2; ++traced) {
        tracer.setEnabled(traced);
        const perfbench::Clock::time_point t0 = perfbench::Clock::now();
        for (const PointSpec &p : spec.points)
            account(raw, p, runPoint(p, opts, tracer));
        (traced ? raw.overheadOn : raw.overheadOff) = secondsSince(t0);
    }
    for (const PointSpec &p : spec.points) {
        Tracer::Span s(tracer, "batch.crosscheck");
        PointOptions other = opts;
        other.oracle = !opts.oracle;
        const PointResult a = runPoint(p, opts, tracer);
        const PointResult b = runPoint(p, other, tracer);
        account(raw, p, a);
        account(raw, p, b);
        tracer.add("verify.oracle_s", opts.oracle
                                          ? a.runSeconds - b.runSeconds
                                          : b.runSeconds - a.runSeconds);
        PointOptions seq = opts;
        seq.simJobs = 1;
        const PointResult c = runPoint(p, seq, tracer);
        account(raw, p, c);
        tracer.add("sim.driver_divergent_points",
                   sameMetrics(a.metrics, c.metrics) ? 0 : 1);
    }
}

// ---------------------------------------------------------------
// serving (every workload)

/** Start a fleet and warm its hot set. */
void
startFleet(Fleet &fleet, Raw &raw)
{
    std::string err;
    const bool ok = fleet.start(err) && fleet.warm(err);
    raw.ops.push_back({"fleet_start", ok, err});
}

/** Cold points as a backend simulates them (runWorkload's calls),
 *  layer by layer, under spans. */
void
simulateColdPoints(const Args &args, Tracer &tracer, Raw &raw)
{
    const PointSpec p{"Add", OrderingMode::OrderLight, 256, 16384};
    for (std::uint64_t i = 0; i < 4; ++i) {
        PointOptions opts;
        opts.seed = mix(args.seed ^ 0x5eedull) + i;
        Tracer::Span s(tracer, "serve.simulate");
        account(raw, p, runPoint(p, opts, tracer));
    }
}

/** A batch workload's work: one timed set-up, and one timed unit (one
 *  grid pass or one round of its points). */
struct Batch
{
    std::function<void()> setup;
    std::function<void(std::uint64_t index)> unit;
};

/**
 * The serving ladder in kRounds rounds, each offering every rate below
 * kOverloadRung @p perSlice requests; the middle round also offers the
 * overload rates kRounds * @p perSlice requests each. Before each
 * round and after the last, the batch workload times
 * kSetupRepsPerSlot set-ups and its units, until its share of
 * @p unitBudget seconds is spent.
 */
void
runServing(const Args &args, std::size_t perSlice, const Batch &batch,
           double unitBudget, Tracer &tracer, Raw &raw)
{
    Fleet fleet(args.dir + "/fleet");
    startFleet(fleet, raw);

    std::uint64_t units = 0;
    double spent = 0.0;
    auto runSlot = [&](std::size_t slot) {
        for (int i = 0; i < kSetupRepsPerSlot; ++i)
            batch.setup();
        const double until =
            unitBudget * double(slot + 1) / double(kRounds + 1);
        while (spent < until || units == 0) {
            const perfbench::Clock::time_point t0 = perfbench::Clock::now();
            batch.unit(units++);
            spent += secondsSince(t0);
        }
    };
    std::uint64_t coldSeq = 0;
    for (std::size_t round = 0; round < kRounds; ++round) {
        runSlot(round);
        for (std::size_t i = 0; i < kLadder.size(); ++i) {
            const bool overload = i >= kOverloadRung;
            if (overload && round != kRounds / 2)
                continue;
            const std::uint64_t slice = round * kLadder.size() + i;
            raw.rungs.push_back(fleet.offer(
                kLadder[i], overload ? perSlice * kRounds : perSlice,
                workers(), mix(args.seed ^ (0x1adde7ull + slice)),
                coldSeq));
        }
    }
    runSlot(kRounds);
    fleet.addCounts(raw.serveCounts);
    if (tracer.enabled()) {
        Tracer::Span s(tracer, "serve.probe");
        fleet.probeLayers(tracer);
        simulateColdPoints(args, tracer, raw);
    }
}

// ---------------------------------------------------------------
// output

void
writeRaw(std::ostream &os, const Args &args, const Tracer &tracer,
         const Raw &raw)
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof(ru));
    getrusage(RUSAGE_SELF, &ru);

    os << "{\"workload\":";
    jsonString(os, args.workload);
    os << ",\"seed\":" << args.seed << ",\"seconds\":" << args.seconds
       << ",\"trace\":" << (args.trace ? 1 : 0)
       << ",\"meta\":{\"hardware_threads\":" << hardwareThreads()
       << ",\"workers\":" << workers() << ",\"build_type\":";
    jsonString(os, PERFBENCH_BUILD_TYPE);
    os << ",\"cxx_flags\":";
    jsonString(os, PERFBENCH_CXX_FLAGS);
    os << ",\"compiler\":";
    jsonString(os, PERFBENCH_COMPILER);
    os << raw.meta.str() << "}";
    // One row per checked operation: [kind, ok, detail].
    os << ",\"ops\":[";
    for (std::size_t i = 0; i < raw.ops.size(); ++i) {
        const Op &op = raw.ops[i];
        os << (i ? ",\n" : "") << "[";
        jsonString(os, op.kind);
        os << "," << (op.ok ? 1 : 0) << ",";
        jsonString(os, op.ok ? std::string() : op.detail);
        os << "]";
    }
    os << "],\"units\":[";
    for (std::size_t i = 0; i < raw.units.size(); ++i) {
        os << (i ? "," : "") << "[" << raw.units[i].first << ",";
        jsonNumber(os, raw.units[i].second);
        os << "]";
    }
    os << "],\"peak_rss_kb\":" << ru.ru_maxrss << ",\"setup_samples\":[";
    for (std::size_t i = 0; i < raw.setupSamples.size(); ++i) {
        os << (i ? "," : "");
        jsonNumber(os, raw.setupSamples[i]);
    }
    os << "],\"triples\":[";
    for (std::size_t i = 0; i < raw.triples.size(); ++i) {
        const SpeedupTriple &t = raw.triples[i];
        os << (i ? "," : "") << "[";
        jsonString(os, t.workload);
        os << "," << t.tsBytes << ",";
        jsonNumber(os, t.fenceMs);
        os << ",";
        jsonNumber(os, t.orderlightMs);
        os << ",";
        jsonNumber(os, t.louvreMs);
        os << "]";
    }
    os << "],\"rungs\":[";
    for (std::size_t i = 0; i < raw.rungs.size(); ++i) {
        const Rung &r = raw.rungs[i];
        os << (i ? ",\n" : "") << "{\"rate\":";
        jsonNumber(os, r.rate);
        os << ",\"seconds\":";
        jsonNumber(os, r.seconds);
        // One row per request: [latency_us, lateness_us, ok, cold,
        // pim_commands].
        os << ",\"samples\":[";
        for (std::size_t j = 0; j < r.samples.size(); ++j) {
            const Sample &s = r.samples[j];
            os << (j ? "," : "") << "[";
            jsonNumber(os, s.latencyUs);
            os << ",";
            jsonNumber(os, s.latenessUs);
            os << "," << (s.ok ? 1 : 0) << "," << (s.cold ? 1 : 0)
               << "," << s.pimCommands << "]";
        }
        os << "]}";
    }
    os << "],\"serve_counts\":{";
    bool first = true;
    for (const auto &[name, v] : raw.serveCounts) {
        os << (first ? "" : ",");
        first = false;
        jsonString(os, name);
        os << ":";
        jsonNumber(os, v);
    }
    os << "},\"trace_counts\":{";
    first = true;
    for (const auto &[name, v] : tracer.counts()) {
        os << (first ? "" : ",");
        first = false;
        jsonString(os, name);
        os << ":";
        jsonNumber(os, v);
    }
    os << "},\"overhead\":{\"untraced_s\":";
    jsonNumber(os, raw.overheadOff);
    os << ",\"traced_s\":";
    jsonNumber(os, raw.overheadOn);
    os << "},\"spans\":";
    tracer.writeJson(os);
    os << "}\n";
}

bool
parseArgs(int argc, char **argv, Args &args)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i], value = argv[i + 1];
        char *end = nullptr;
        if (flag == "--workload")
            args.workload = value;
        else if (flag == "--seed")
            args.seed = std::strtoull(value.c_str(), &end, 10);
        else if (flag == "--seconds")
            args.seconds = std::strtod(value.c_str(), &end);
        else if (flag == "--trace")
            args.trace = value == "1";
        else if (flag == "--dir")
            args.dir = value;
        else if (flag == "--out")
            args.out = value;
        else
            return false;
        if (end && *end)
            return false;
    }
    return !args.workload.empty() && !args.dir.empty() &&
           !args.out.empty() && args.seconds > 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::cerr << "usage: perfbench_driver --workload NAME --seed N "
                     "--seconds S --trace 0|1 --dir DIR --out FILE\n";
        return 2;
    }
    Tracer tracer(args.trace);
    Raw raw;
    // Requests per rate: as many as fill kLadderShare of the run, and
    // at least kMinRungRequests. The batch workload's units get what
    // the ladder leaves of the run, and at least 30% of it.
    double perRequest = 0.0;
    for (double rate : kLadder)
        perRequest += 1.0 / rate;
    const std::size_t perSlice = std::max(
        kMinRungRequests / kRounds,
        std::size_t(kLadderShare * args.seconds /
                    (perRequest * double(kRounds))));
    const double batchBudget =
        std::max(args.seconds - perRequest * double(perSlice * kRounds),
                 0.3 * args.seconds);

    Batch batch;
    BatchSpec spec;
    if (args.workload == "sweep_grid") {
        raw.meta << ",\"elements\":" << kGridElements
                 << ",\"grid_points\":"
                 << kGridWorkloads.size() * 3 * kGridTs.size();
        batch.setup = [&] { sweepSetup(args, raw); };
        batch.unit = [&](std::uint64_t i) { sweepUnit(args, i, raw); };
    } else if (args.workload == "partitioned_oracle" ||
               args.workload == "fga_mixed") {
        spec = args.workload == "fga_mixed" ? fgaSpec()
                                            : partitionedSpec();
        raw.meta << ",\"elements\":" << spec.points[0].elements
                 << ",\"sim_jobs\":" << spec.opts.simJobs
                 << ",\"model_elements\":" << kModelElements;
        batch.setup = [&] {
            PointOptions opts = spec.opts;
            opts.seed = mix(args.seed);
            setupRep(spec.points, opts, raw);
        };
        batch.unit = [&](std::uint64_t i) {
            batchUnit(args, spec, i, tracer, raw);
        };
    } else {
        std::cerr << "perfbench_driver: unknown workload '"
                  << args.workload << "'\n";
        return 2;
    }
    raw.meta << ",\"serve_elements\":16384,\"rung_requests\":"
             << perSlice * kRounds << ",\"rounds\":" << kRounds
             << ",\"high_rung\":" << kHighRung
             << ",\"connections\":" << workers()
             << ",\"cold_share\":0.1";
    runServing(args, perSlice, batch, batchBudget, tracer, raw);

    if (args.workload == "sweep_grid") {
        if (tracer.enabled())
            sweepTraced(args, tracer, raw);
    } else {
        modelGrid(raw, spec.modelWorkloads, mix(args.seed));
        if (tracer.enabled())
            batchTraced(args, spec, tracer, raw);
    }
    removeTree(args.dir);

    std::ofstream out(args.out);
    writeRaw(out, args, tracer, raw);
    out.close();
    if (!out) {
        std::cerr << "perfbench_driver: cannot write " << args.out
                  << "\n";
        return 2;
    }
    return 0;
}
