/**
 * @file
 * Command-line driver for the OrderLight simulator.
 *
 * Runs any registered workload at any experiment point and reports
 * metrics, optionally with full statistics, energy breakdown,
 * verification, the GPU host baseline, and a Chrome packet trace.
 *
 *   olight_cli --workload Add --mode orderlight --ts 256 --bmf 16
 *   olight_cli --workload Gen_Fil --mode fence --verify --energy
 *   olight_cli --list
 */

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "cli_common.hh"
#include "core/disasm.hh"
#include "core/energy.hh"
#include "core/runner.hh"
#include "core/system.hh"
#include "sim/thread_pool.hh"
#include "workloads/reference.hh"
#include "workloads/registry.hh"

using namespace olight;

namespace
{

void
usage()
{
    std::cout <<
        "usage: olight_cli [options]\n"
        "  --workload NAME   Table 2 kernel (default Add)\n"
        "  --mode MODE       " + modeNamesJoined(true, '|') + "\n"
        "  --ts BYTES        temporary storage per lane (default 256)\n"
        "  --bmf N           bandwidth multiplication factor (16)\n"
        "  --elements N      fp32 elements per array (default 2^18)\n"
        "  --channels N      memory channels (default 16)\n"
        "  --cpu-host        use the OoO-CPU host preset\n"
        "  --verify          golden + mathematical verification and\n"
        "                    the in-pipe ordering oracle\n"
        "  --gpu-baseline    also time GPU host execution\n"
        "  --stats           dump all statistics\n"
        "  --energy          print the energy breakdown\n"
        "  --jobs N          worker threads for verification and\n"
        "                    baseline runs (0 = auto, default 1)\n"
        "  --sim-jobs N      intra-run event workers: channel-\n"
        "                    partitioned simulation (0 = auto,\n"
        "                    default 1; results are bit-identical\n"
        "                    for every value)\n"
        "  --profile-domains FILE  write per-domain self-profiling\n"
        "                    JSON (needs --sim-jobs > 1)\n"
        "  --record FILE     record the observer hook stream into a\n"
        "                    binary commit log (forces the ordering\n"
        "                    oracle on; replay with olight_replay)\n"
        "  --trace-json FILE write a Chrome trace_event JSON trace\n"
        "                    (open in Perfetto / chrome://tracing;\n"
        "                    works at every --sim-jobs)\n"
        "  --stats-json FILE write metrics + all statistics as JSON\n"
        "  --sample FILE     write an interval time-series CSV\n"
        "  --sample-interval N  sampling period in core cycles\n"
        "                    (default 1000)\n"
        "  --dump-kernel N   disassemble N instrs per channel\n"
        "  --flush           model the pre-kernel coherence flush\n"
        "  --list            list workloads and exit\n";
}

/** Number parsing that survives typos: `--ts x` names the flag and
 *  exits 2 instead of dying on an uncaught std::invalid_argument. */
std::uint64_t
parseNumber(const std::string &flag, const std::string &value)
{
    return cli::parseNumber("olight_cli", flag, value);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload = "Add";
    OrderingMode mode = OrderingMode::OrderLight;
    std::uint32_t ts = 256, bmf = 16, channels = 16;
    std::uint64_t elements = 1ull << 18;
    bool cpu_host = false, verify = false, gpu_baseline = false;
    bool dump_stats = false, energy = false, flush = false;
    std::size_t dump_kernel = 0;
    unsigned jobs = 1, sim_jobs = 1;
    std::string trace_json_path, stats_json_path;
    std::string sample_path, profile_path, record_path;
    std::uint64_t sample_interval_cycles = 1000;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << arg << " needs a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--workload")
            workload = next();
        else if (arg == "--mode")
            mode = cli::parseMode(next());
        else if (arg == "--ts")
            ts = std::uint32_t(parseNumber(arg, next()));
        else if (arg == "--bmf")
            bmf = std::uint32_t(parseNumber(arg, next()));
        else if (arg == "--elements")
            elements = parseNumber(arg, next());
        else if (arg == "--channels")
            channels = std::uint32_t(parseNumber(arg, next()));
        else if (arg == "--cpu-host")
            cpu_host = true;
        else if (arg == "--verify")
            verify = true;
        else if (arg == "--gpu-baseline")
            gpu_baseline = true;
        else if (arg == "--stats")
            dump_stats = true;
        else if (arg == "--energy")
            energy = true;
        else if (arg == "--jobs" || arg == "-j")
            jobs = unsigned(parseNumber(arg, next()));
        else if (arg == "--sim-jobs")
            sim_jobs = cli::parseSimJobs("olight_cli", next());
        else if (arg == "--record")
            record_path = next();
        else if (arg == "--profile-domains")
            profile_path = next();
        else if (arg == "--trace-json")
            trace_json_path = next();
        else if (arg == "--stats-json")
            stats_json_path = next();
        else if (arg == "--sample")
            sample_path = next();
        else if (arg == "--sample-interval")
            sample_interval_cycles = parseNumber(arg, next());
        else if (arg == "--dump-kernel")
            dump_kernel = std::size_t(parseNumber(arg, next()));
        else if (arg == "--flush")
            flush = true;
        else if (arg == "--list") {
            for (const auto &name : workloadNames()) {
                auto w = makeWorkload(name);
                WorkloadInfo info = w->info();
                std::cout << name << "\t" << info.ratio << "\t"
                          << info.description << "\n";
            }
            return 0;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            std::cerr << "unknown option: " << arg << "\n";
            usage();
            return 2;
        }
    }

    if (!findWorkload(workload)) {
        std::cerr << unknownWorkloadMessage(workload) << "\n";
        return 2;
    }

    cli::enforceLimits("olight_cli", elements,
                       std::max<std::uint64_t>(jobs, sim_jobs), 1);

    if (sim_jobs > 1 && (!sample_path.empty() || flush)) {
        // These features poll the whole pipe per event; they need
        // the classic single-queue driver.
        std::cerr << "olight_cli: --sample/--flush require the "
                     "sequential driver; forcing --sim-jobs 1\n";
        sim_jobs = 1;
    }
    if (!profile_path.empty() && sim_jobs <= 1) {
        std::cerr << "olight_cli: --profile-domains needs "
                     "--sim-jobs > 1\n";
        return 2;
    }

    SystemConfig base = cpu_host ? cpuHostBase() : SystemConfig{};
    base.numChannels = channels;
    SystemConfig cfg = configFor(mode, ts, bmf, base);
    // End-to-end check + live invariants; a recorded log carries the
    // oracle's verdict in its footer, so --record forces it on.
    cfg.verifyOracle = verify || !record_path.empty();
    cfg.print(std::cout);

    auto w = makeWorkload(workload);
    w->build(cfg, elements);

    // Output streams are declared before the System so the
    // TraceWriter can still flush its JSON footer when the System
    // (which owns it) is destroyed.
    auto open_out = [](std::ofstream &file, const std::string &path) {
        file.open(path);
        if (!file) {
            std::cerr << "cannot open output file " << path << "\n";
            std::exit(2);
        }
    };
    std::ofstream trace_file, sample_file, stats_json_file;
    if (!stats_json_path.empty())
        open_out(stats_json_file, stats_json_path);

    ExecPolicy policy;
    policy.simJobs = sim_jobs;
    policy.profileDomains = !profile_path.empty();
    std::unique_ptr<CommitLogWriter> log_writer;
    System sys(cfg, policy);
    if (!record_path.empty()) {
        log_writer = std::make_unique<CommitLogWriter>(record_path,
                                                       cfg, 0);
        sys.enableRecording(*log_writer);
    }
    if (!trace_json_path.empty()) {
        open_out(trace_file, trace_json_path);
        sys.enableTrace(trace_file);
    }
    if (!sample_path.empty()) {
        open_out(sample_file, sample_path);
        sys.enableSampling(sample_file,
                           Tick(sample_interval_cycles) * corePeriod);
    }

    if (dump_kernel > 0)
        dumpKernel(std::cout, w->streams(), w->map(), dump_kernel);

    w->initMemory(sys.mem());
    sys.loadPimKernel(w->streams());
    if (flush)
        sys.setCoherenceFlush(w->hostTraffic());

    // With --jobs > 1, the golden-reference execution and the GPU
    // host baseline are independent of the main simulation, so they
    // run on pool workers while sys.run() occupies this thread.
    if (jobs == 0)
        jobs = ThreadPool::defaultThreads();
    ThreadPool pool(jobs > 1 ? jobs - 1 : 1);
    bool overlap = jobs > 1;

    SparseMemory golden;
    bool golden_ready = false;
    auto run_golden = [&] {
        w->initMemory(golden);
        runGolden(cfg, w->map(), w->streams(), golden);
        golden_ready = true;
    };
    double gpu_ms = 0.0;
    auto run_gpu = [&] {
        gpu_ms = gpuBaselineMs(workload, elements, base);
    };
    if (overlap) {
        if (verify)
            pool.submit(run_golden);
        if (gpu_baseline)
            pool.submit(run_gpu);
    }

    RunMetrics m = sys.run();
    if (overlap)
        pool.wait();

    if (log_writer) {
        const ReplayVerdict live = harvestVerdict(*sys.oracle());
        if (!log_writer->finish(live.violations, live.checks,
                                live.reportHash, live.clean)) {
            std::cerr << "olight_cli: failed to write commit log "
                      << record_path << "\n";
            return 2;
        }
        std::cout << "  commit log: " << record_path << " ("
                  << log_writer->records() << " records)\n";
    }

    std::cout << "\n" << workload << " / " << toString(mode) << " / "
              << tsLabel(cfg) << " / BMF " << bmf << ":\n  ";
    m.print(std::cout);
    std::cout << "\n";
    if (flush)
        std::cout << "  coherence flush: "
                  << ticksToMs(sys.flushDoneTick()) << " ms\n";

    if (verify) {
        if (!golden_ready)
            run_golden();
        std::string why;
        bool ok = true;
        for (const auto &arr : w->arrays()) {
            if (!compareArray(sys.mem(), golden, arr, why)) {
                ok = false;
                break;
            }
        }
        if (ok && !w->check(sys.mem(), why))
            ok = false;
        std::cout << "  verification: "
                  << (ok ? "bit-exact" : ("FAILED: " + why)) << "\n";
        if (const OrderingOracle *oracle = sys.oracle()) {
            std::cout << "  ordering oracle: "
                      << oracle->checksPerformed() << " checks, "
                      << oracle->violationCount()
                      << " violation(s)\n";
            if (!oracle->clean()) {
                oracle->report(std::cout);
                ok = false;
            }
        }
        if (!ok)
            return 1;
    }

    if (gpu_baseline) {
        if (!overlap)
            run_gpu();
        std::cout << "  GPU host execution: " << gpu_ms
                  << " ms (PIM speedup "
                  << gpu_ms / m.execMs << "x)\n";
    }

    if (energy) {
        EnergyBreakdown e = computeEnergy(sys.stats(), cfg);
        std::cout << "  ";
        e.print(std::cout);
        std::cout << "\n";
    }

    if (dump_stats) {
        std::cout << "\n";
        sys.stats().dump(std::cout);
    }

    if (!profile_path.empty()) {
        std::ofstream profile_file;
        open_out(profile_file, profile_path);
        sys.writeDomainProfile(profile_file);
        profile_file << "\n";
    }

    if (stats_json_file.is_open()) {
        WorkloadInfo info = w->info();
        stats_json_file << "{\"config_fingerprint\":\""
                        << fingerprintHex(fingerprint(cfg))
                        << "\",\"workload\":{\"name\":\""
                        << info.name << "\",\"family\":\""
                        << toString(workloadFamily(workload))
                        << "\",\"ratio\":\"" << info.ratio
                        << "\",\"multi_structure\":"
                        << (info.multiStructure ? "true" : "false")
                        << "},\"metrics\":";
        m.writeJson(stats_json_file);
        stats_json_file << ",\"stats\":";
        sys.stats().dumpJson(stats_json_file);
        stats_json_file << "}\n";
    }
    return 0;
}
