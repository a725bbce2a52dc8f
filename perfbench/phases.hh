/**
 * @file
 * Measurement phases of the benchmark driver, built only from the
 * simulator's public calls: a span recorder, one simulation point
 * driven layer by layer through the System API, the runSweep grid,
 * and the small fixed grid the model-speedup geomeans come from.
 *
 * Everything here runs on the driver's main thread; the recorder is
 * deliberately single-threaded.
 */

#ifndef PERFBENCH_PHASES_HH
#define PERFBENCH_PHASES_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "core/config.hh"
#include "core/metrics.hh"
#include "sim/event_domain.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0);

/**
 * In-memory span recorder. A span is (name, parent, start, end) in
 * nanoseconds since the recorder was made; the parent is the span
 * open on this thread when it began. Off, a Span costs one branch.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled)
        : enabled_(enabled), origin_(Clock::now())
    {}

    bool enabled() const { return enabled_; }

    /** Turn recording on or off between spans (used to time the same
     *  work with and without tracing inside one traced run). */
    void setEnabled(bool on) { enabled_ = on; }

    class Span
    {
      public:
        Span(Tracer &tracer, const char *name);
        ~Span();
        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;

      private:
        Tracer *tracer_;
        int index_ = -1;
    };

    /** Add @p v to the named count (only while recording). */
    void
    add(const std::string &name, double v)
    {
        if (enabled_)
            counts_[name] += v;
    }

    const std::map<std::string, double> &counts() const
    {
        return counts_;
    }

    /** Spans as a JSON array of [name, parent, start_ns, end_ns]. */
    void writeJson(std::ostream &os) const;

  private:
    struct Record
    {
        const char *name;
        int parent;
        std::int64_t startNs;
        std::int64_t endNs;
    };

    std::int64_t nowNs() const;

    bool enabled_;
    Clock::time_point origin_;
    std::vector<Record> spans_;
    std::map<std::string, double> counts_;
    int open_ = -1;
};

/** Named numbers a phase hands to the report (counts, totals). */
using Counts = std::map<std::string, double>;

/** One simulation point of a batch workload. */
struct PointSpec
{
    std::string workload;
    olight::OrderingMode mode = olight::OrderingMode::OrderLight;
    std::uint32_t tsBytes = 256;
    std::uint64_t elements = 0;
};

struct PointOptions
{
    unsigned simJobs = 1;
    bool oracle = false;
    bool hostTraffic = false; ///< setHostTraffic(hostTraffic()) (FGA)
    bool profileDomains = false;
    std::uint64_t seed = 1;   ///< SystemConfig::seed (collector jitter)
    bool setupOnly = false;   ///< stop after the kernel is loaded
};

/** What one point measured and whether its output was right. */
struct PointResult
{
    olight::RunMetrics metrics;
    double setupSeconds = 0.0; ///< build, ctor, init, kernel load
    double runSeconds = 0.0;   ///< System::run
    double timedSeconds = 0.0; ///< run + oracle verdict + verification
    bool correct = false; ///< golden bit-exact, check() passed, oracle clean
    std::string why;
    std::vector<olight::DomainProfile> profiles;
    Counts model; ///< deterministic modelled-component counts
};

/**
 * Drive one point through the public calls, each under its own span:
 * makeWorkload+build, the System constructor, initMemory,
 * loadPimKernel (+ setHostTraffic), System::run, runGolden, and
 * compareArray + Workload::check.
 */
PointResult runPoint(const PointSpec &spec, const PointOptions &opts,
                     Tracer &tracer);

/** Fence exec over orderlight and louvre exec, one (workload, TS). */
struct SpeedupTriple
{
    std::string workload;
    std::uint32_t tsBytes = 0;
    double fenceMs = 0.0, orderlightMs = 0.0, louvreMs = 0.0;
};

/** One runSweep call's outcome. */
struct GridPass
{
    double seconds = 0.0;
    std::uint64_t pimCommands = 0;
    std::vector<std::string> lines;    ///< verified and correct points
    std::vector<std::string> failures; ///< the other points
    std::vector<SpeedupTriple> triples;
};

/**
 * runSweep over @p workloads x {fence, orderlight, louvre} x @p ts at
 * BMF 16 with verify on and no GPU baseline.
 */
GridPass runGrid(const std::vector<std::string> &workloads,
                 const std::vector<std::uint32_t> &ts,
                 std::uint64_t elements, unsigned jobs,
                 std::uint64_t seed, bool verify);

/** Add every modelled-component count of @p r to @p tracer. */
void addModelCounts(const PointResult &r, Tracer &tracer);

/** splitMix64: seeds every generated input from the run's --seed. */
std::uint64_t mix(std::uint64_t x);

} // namespace perfbench

#endif // PERFBENCH_PHASES_HH
