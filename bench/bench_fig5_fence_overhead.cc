/**
 * @file
 * Figure 5: fence overhead for the vector_add kernel. Reproduces the
 * bars (execution time) and the line (waiting cycles per fence
 * instruction) for No-Fence and Fence at TS = 1/16..1/2 RB, and
 * flags the No-Fence configuration as functionally incorrect by
 * actually verifying the computed result.
 */

#include <iomanip>
#include <iostream>

#include "common.hh"

using namespace olight;

int
main()
{
    SystemConfig cfg = configFor(OrderingMode::Fence, 256, 16);
    bench::printHeader(
        "Figure 5: fence overhead for the vector_add kernel", cfg);

    std::uint64_t elements = bench::defaultElements();

    std::cout << std::left << std::setw(18) << "Config" << std::right
              << std::setw(12) << "Exec(ms)" << std::setw(16)
              << "Wait/fence(cyc)" << std::setw(10) << "Fences"
              << std::setw(14) << "Slowdown" << std::setw(14)
              << "Functional" << "\n";

    RunOptions none;
    none.workload = "Add";
    none.mode = OrderingMode::None;
    none.elements = elements;
    none.verify = true;
    RunResult no_fence = runWorkload(none);

    std::cout << std::left << std::setw(18) << "No Fence"
              << std::right << std::fixed << std::setprecision(4)
              << std::setw(12) << no_fence.metrics.execMs
              << std::setw(16) << "-" << std::setw(10) << 0
              << std::setw(14) << "1.00x" << std::setw(14)
              << (no_fence.correct ? "correct" : "INCORRECT")
              << "\n";

    for (std::uint32_t ts : bench::tsSizes()) {
        RunOptions opts;
        opts.workload = "Add";
        opts.mode = OrderingMode::Fence;
        opts.tsBytes = ts;
        opts.elements = elements;
        opts.verify = true;
        RunResult r = runWorkload(opts);
        double slowdown =
            r.metrics.execMs / no_fence.metrics.execMs;
        std::cout << std::left << std::setw(18)
                  << ("Fence " + bench::tsName(ts)) << std::right
                  << std::setw(12) << r.metrics.execMs
                  << std::setprecision(1) << std::setw(16)
                  << r.metrics.waitPerFence << std::setw(10)
                  << r.metrics.fenceCount << std::setprecision(2)
                  << std::setw(13) << slowdown << "x"
                  << std::setprecision(4) << std::setw(14)
                  << (r.correct ? "correct" : "INCORRECT") << "\n";
    }
    std::cout << std::defaultfloat
              << "\nPaper: fences slow vector_add down by 4.5x-25x "
                 "and wait 165-245 cycles per fence;\nthe No-Fence "
                 "point is fast but functionally incorrect.\n";

    // Three-backend comparison: the same kernel under each enforcing
    // primitive (drain-and-count OrderLight vs versioned Louvre),
    // normalized to Fence at the same TS.
    std::cout << "\n" << std::left << std::setw(9) << "TS"
              << std::right << std::setw(12) << "Fence(ms)"
              << std::setw(12) << "OL(ms)" << std::setw(12)
              << "Louvre(ms)" << std::setw(11) << "OL-spd"
              << std::setw(11) << "Lv-spd" << "\n";
    for (std::uint32_t ts : bench::tsSizes()) {
        RunResult fence = bench::runPoint(
            "Add", OrderingMode::Fence, ts, 16, elements);
        RunResult ol = bench::runPoint(
            "Add", OrderingMode::OrderLight, ts, 16, elements);
        RunResult louvre = bench::runPoint(
            "Add", OrderingMode::Louvre, ts, 16, elements);
        std::cout << std::left << std::setw(9) << bench::tsName(ts)
                  << std::right << std::fixed << std::setprecision(4)
                  << std::setw(12) << fence.metrics.execMs
                  << std::setw(12) << ol.metrics.execMs
                  << std::setw(12) << louvre.metrics.execMs
                  << std::setprecision(2) << std::setw(10)
                  << fence.metrics.execMs / ol.metrics.execMs << "x"
                  << std::setw(10)
                  << fence.metrics.execMs / louvre.metrics.execMs
                  << "x" << std::defaultfloat << "\n";
    }
    std::cout << "\n";

    return 0;
}
