#include "phases.hh"

#include <algorithm>
#include <memory>

#include "core/runner.hh"
#include "core/sweep.hh"
#include "core/system.hh"
#include "sim/json.hh"
#include "workloads/reference.hh"
#include "workloads/registry.hh"

namespace perfbench
{

using namespace olight;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

std::int64_t
Tracer::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
}

Tracer::Span::Span(Tracer &tracer, const char *name) : tracer_(&tracer)
{
    if (!tracer.enabled_)
        return;
    index_ = int(tracer.spans_.size());
    tracer.spans_.push_back({name, tracer.open_, tracer.nowNs(), -1});
    tracer.open_ = index_;
}

Tracer::Span::~Span()
{
    if (index_ < 0)
        return;
    Record &rec = tracer_->spans_[std::size_t(index_)];
    rec.endNs = tracer_->nowNs();
    tracer_->open_ = rec.parent;
}

void
Tracer::writeJson(std::ostream &os) const
{
    os << "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Record &r = spans_[i];
        os << (i ? ",\n" : "") << "[";
        jsonString(os, r.name);
        os << "," << r.parent << "," << r.startNs << "," << r.endNs
           << "]";
    }
    os << "]";
}

namespace
{

/** Per-domain profile totals of a partitioned run. */
void
addDomainCounts(const PointResult &r, Tracer &into)
{
    if (r.profiles.empty())
        return;
    const DomainProfile &host = r.profiles[0];
    double channelMax = 0.0;
    for (std::size_t i = 1; i < r.profiles.size(); ++i) {
        const DomainProfile &p = r.profiles[i];
        channelMax = std::max(channelMax, p.execSeconds);
        into.add("sim.mailbox_msgs", double(p.msgsOut));
    }
    for (const DomainProfile &p : r.profiles) {
        into.add("sim.stall_windows", double(p.stallWindows));
        into.add("sim.arena_grows", double(p.arenaGrows));
        into.add("sim.heap_regrows", double(p.heapRegrows));
    }
    into.add("sim.host_phase_s", host.execSeconds);
    into.add("sim.channel_phase_max_s", channelMax);
    into.add("sim.windows", double(host.windows));
    into.add("sim.partitioned_points", 1);
}

} // namespace

PointResult
runPoint(const PointSpec &spec, const PointOptions &opts,
         Tracer &tracer)
{
    SystemConfig base;
    base.seed = opts.seed;
    SystemConfig cfg = configFor(spec.mode, spec.tsBytes, 16, base);
    cfg.verifyOracle = opts.oracle;

    PointResult r;
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<Workload> workload;
    {
        Tracer::Span s(tracer, "workloads.build");
        workload = makeWorkload(spec.workload);
        workload->build(cfg, spec.elements);
    }
    ExecPolicy policy;
    policy.simJobs = opts.simJobs;
    policy.profileDomains = opts.profileDomains;
    std::unique_ptr<System> sys;
    {
        Tracer::Span s(tracer, "core.system_ctor");
        sys = std::make_unique<System>(cfg, policy);
    }
    {
        Tracer::Span s(tracer, "workloads.init");
        workload->initMemory(sys->mem());
    }
    {
        Tracer::Span s(tracer, "core.load_kernel");
        sys->loadPimKernel(workload->streams());
        if (opts.hostTraffic)
            sys->setHostTraffic(workload->hostTraffic());
    }
    const Clock::time_point t1 = Clock::now();
    r.setupSeconds = std::chrono::duration<double>(t1 - t0).count();
    if (opts.setupOnly)
        return r;
    {
        Tracer::Span s(tracer, "sim.run");
        r.metrics = sys->run();
    }
    r.runSeconds = secondsSince(t1);
    r.profiles = sys->domainProfiles();
    tracer.add("sim.events", double(sys->eventsExecuted()));
    addDomainCounts(r, tracer);

    r.correct = true;
    if (const OrderingOracle *oracle = sys->oracle()) {
        const std::uint64_t violations = oracle->violationCount();
        tracer.add("verify.oracle_checks",
                   double(oracle->checksPerformed()));
        tracer.add("verify.oracle_violations", double(violations));
        if (!oracle->clean()) {
            r.correct = false;
            r.why = "ordering oracle: " + std::to_string(violations) +
                    " violation(s)";
        }
    }
    SparseMemory golden;
    {
        Tracer::Span s(tracer, "verify.golden");
        workload->initMemory(golden);
        runGolden(cfg, workload->map(), workload->streams(), golden);
    }
    {
        Tracer::Span s(tracer, "verify.check");
        std::string why;
        for (const PimArray &arr : workload->arrays()) {
            if (!compareArray(sys->mem(), golden, arr, why)) {
                r.correct = false;
                r.why = "golden mismatch: " + why;
                break;
            }
        }
        if (!workload->check(sys->mem(), why)) {
            r.correct = false;
            r.why = "check failed: " + why;
        }
    }
    r.timedSeconds = secondsSince(t1);

    const StatSet &st = sys->stats();
    const RunMetrics &m = r.metrics;
    r.model = {
        {"gpu.stall_cycles", double(m.stallCycles)},
        {"gpu.wait_per_fence", m.waitPerFence},
        {"gpu.wait_per_ol", m.waitPerOl},
        {"noc.l2_forwarded", st.sumScalars("l2s", ".toDram.forwarded")},
        {"noc.ol_copies", st.sumScalars("l2s", ".div.olCopies")},
        {"noc.ol_merges", st.sumScalars("l2s", ".conv.olMerges")},
        {"memctrl.pim_scheduled", st.sumScalars("mc", ".pimScheduled")},
        {"memctrl.host_scheduled",
         st.sumScalars("mc", ".hostScheduled")},
        {"memctrl.ordering_blocked",
         st.sumScalars("mc", ".orderingBlocked")},
        {"dram.row_hits", double(m.rowHits)},
        {"dram.row_misses", double(m.rowMisses)},
        {"dram.acts", double(m.acts)},
        {"pim.commands", double(m.pimCommands)},
        {"pim.bytes", st.sumScalars("pim", ".bytes")},
        {"model.exec_us", m.execMs * 1e3},
    };
    return r;
}

void
addModelCounts(const PointResult &r, Tracer &tracer)
{
    for (const auto &[name, value] : r.model)
        tracer.add(name, value);
    tracer.add("model.points", 1);
}

GridPass
runGrid(const std::vector<std::string> &workloads,
        const std::vector<std::uint32_t> &ts, std::uint64_t elements,
        unsigned jobs, std::uint64_t seed, bool verify)
{
    SweepSpec spec;
    spec.workloads = workloads;
    spec.modes = {OrderingMode::Fence, OrderingMode::OrderLight,
                  OrderingMode::Louvre};
    spec.tsSizes = ts;
    spec.bmfs = {16};
    spec.elements = elements;
    spec.verify = verify;
    spec.gpuBaseline = false;
    spec.jobs = jobs;
    spec.simJobs = 1;
    spec.base.seed = seed;

    GridPass pass;
    const Clock::time_point t0 = Clock::now();
    const std::vector<SweepRow> rows = runSweep(spec);
    pass.seconds = secondsSince(t0);

    for (const SweepRow &row : rows) {
        pass.pimCommands += row.metrics.pimCommands;
        if (verify)
            (row.verified && row.correct ? pass.lines : pass.failures)
                .push_back(progressLine(row));
        auto it = std::find_if(
            pass.triples.begin(), pass.triples.end(),
            [&](const SpeedupTriple &t) {
                return t.workload == row.workload &&
                       t.tsBytes == row.tsBytes;
            });
        if (it == pass.triples.end()) {
            pass.triples.push_back({row.workload, row.tsBytes});
            it = pass.triples.end() - 1;
        }
        switch (row.mode) {
          case OrderingMode::Fence:
            it->fenceMs = row.metrics.execMs;
            break;
          case OrderingMode::OrderLight:
            it->orderlightMs = row.metrics.execMs;
            break;
          case OrderingMode::Louvre:
            it->louvreMs = row.metrics.execMs;
            break;
          default:
            break;
        }
    }
    return pass;
}

} // namespace perfbench
