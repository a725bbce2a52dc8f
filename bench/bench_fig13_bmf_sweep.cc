/**
 * @file
 * Figure 13: Fence vs OrderLight at different PIM bandwidth
 * multiplication factors (4x, 8x, 16x) for the Add kernel, across
 * TS sizes, with the GPU host-execution time as the reference.
 */

#include <iomanip>
#include <iostream>

#include "common.hh"

using namespace olight;

int
main()
{
    SystemConfig cfg = configFor(OrderingMode::OrderLight, 256, 16);
    bench::printHeader(
        "Figure 13: BMF sweep (Add kernel, Fence vs OrderLight)",
        cfg);

    std::uint64_t elements = bench::defaultElements();
    double gpu_ms = gpuBaselineMs("Add", elements);
    std::cout << std::fixed << std::setprecision(4)
              << "GPU host execution: " << gpu_ms << " ms\n\n"
              << std::defaultfloat;

    std::cout << std::left << std::setw(6) << "BMF" << std::setw(9)
              << "TS" << std::right << std::setw(12) << "Fence(ms)"
              << std::setw(12) << "OL(ms)" << std::setw(11)
              << "OL/Fence" << std::setw(13) << "Fence>GPU?"
              << std::setw(10) << "OL>GPU?" << "\n";

    std::uint32_t fence_beats = 0, ol_beats = 0, points = 0;
    std::vector<double> ratios;
    for (std::uint32_t bmf : {4u, 8u, 16u}) {
        for (std::uint32_t ts : bench::tsSizes()) {
            RunResult fence = bench::runPoint(
                "Add", OrderingMode::Fence, ts, bmf, elements);
            RunResult ol = bench::runPoint(
                "Add", OrderingMode::OrderLight, ts, bmf, elements);
            double ratio = fence.metrics.execMs / ol.metrics.execMs;
            ratios.push_back(ratio);
            bool f_wins = fence.metrics.execMs < gpu_ms;
            bool o_wins = ol.metrics.execMs < gpu_ms;
            fence_beats += f_wins;
            ol_beats += o_wins;
            ++points;
            std::cout << std::left << std::setw(6)
                      << (std::to_string(bmf) + "x")
                      << std::setw(9) << bench::tsName(ts)
                      << std::right << std::fixed
                      << std::setprecision(4) << std::setw(12)
                      << fence.metrics.execMs << std::setw(12)
                      << ol.metrics.execMs << std::setprecision(2)
                      << std::setw(10) << ratio << "x"
                      << std::setw(13) << (f_wins ? "yes" : "no")
                      << std::setw(10) << (o_wins ? "yes" : "no")
                      << std::defaultfloat << "\n";
        }
    }
    std::cout << std::fixed << std::setprecision(2)
              << "\nOrderLight over Fence: geomean "
              << bench::geomean(ratios)
              << "x (paper: 1.9x-3.1x across BMFs).\n"
              << "Fence-based PIM beats the GPU in " << fence_beats
              << "/" << points
              << " points (paper: 4/12); OrderLight in " << ol_beats
              << "/" << points << " (paper: 10/12).\n"
              << "Lower BMF means more commands for the same job, "
                 "which grows the fence burden.\n\n"
              << std::defaultfloat;

    return 0;
}
