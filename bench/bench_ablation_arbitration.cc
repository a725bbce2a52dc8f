/**
 * @file
 * Ablation: arbitration granularity (Figure 2 / Section 3).
 *
 * Runs the Add PIM kernel together with concurrent host traffic
 * under fine-grained arbitration (FGA: requests interleave at the
 * memory controller) and coarse-grained arbitration (CGA: memory is
 * inaccessible to the host until the PIM computation finishes), and
 * reports the host's time-to-first-service and completion time —
 * the QoS cost the paper attributes to CGA designs.
 */

#include <iomanip>
#include <iostream>

#include "common.hh"
#include "core/system.hh"
#include "workloads/registry.hh"

using namespace olight;

namespace
{

struct Outcome
{
    double hostFirstMs;
    double hostFinishMs;
    double pimFinishMs;
    double totalMs;
};

Outcome
run(ArbitrationGranularity arb, std::uint64_t elements)
{
    SystemConfig base;
    base.arbitration = arb;
    SystemConfig cfg =
        configFor(OrderingMode::OrderLight, 256, 16, base);
    auto w = makeWorkload("Add");
    w->build(cfg, elements);
    System sys(cfg);
    w->initMemory(sys.mem());
    sys.loadPimKernel(w->streams());
    sys.setHostTraffic(w->hostTraffic());
    RunMetrics m = sys.run();
    return {ticksToMs(sys.hostStream().firstDoneTick()),
            ticksToMs(sys.hostStream().finishTick()),
            ticksToMs(sys.pimFinishTick()), m.execMs};
}

} // namespace

int
main()
{
    SystemConfig cfg = configFor(OrderingMode::OrderLight, 256, 16);
    bench::printHeader(
        "Ablation: FGA vs CGA arbitration with concurrent host "
        "traffic",
        cfg);

    std::uint64_t elements = bench::defaultElements();
    Outcome fga = run(ArbitrationGranularity::Fine, elements);
    Outcome cga = run(ArbitrationGranularity::Coarse, elements);

    auto row = [](const char *name, const Outcome &o) {
        std::cout << std::left << std::setw(6) << name << std::right
                  << std::fixed << std::setprecision(4)
                  << std::setw(16) << o.hostFirstMs << std::setw(16)
                  << o.hostFinishMs << std::setw(16) << o.pimFinishMs
                  << std::setw(13) << o.totalMs << std::defaultfloat
                  << "\n";
    };
    std::cout << std::left << std::setw(6) << "Mode" << std::right
              << std::setw(16) << "Host 1st(ms)" << std::setw(16)
              << "Host done(ms)" << std::setw(16) << "PIM done(ms)"
              << std::setw(13) << "Total(ms)" << "\n";
    row("FGA", fga);
    row("CGA", cga);

    std::cout << std::fixed << std::setprecision(1)
              << "\nCGA denies the host memory service for "
              << cga.hostFirstMs / fga.hostFirstMs
              << "x longer than FGA\n(Section 3.2: CGA renders "
                 "system memory inaccessible to the host during PIM "
                 "computations).\n\n"
              << std::defaultfloat;

    return 0;
}
