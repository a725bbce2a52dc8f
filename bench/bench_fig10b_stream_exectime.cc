/**
 * @file
 * Figure 10b: execution time and core stall cycles for the STREAM
 * kernels — the GPU host-execution bar plus Fence and OrderLight PIM
 * bars across TS sizes.
 */

#include <iomanip>
#include <iostream>

#include "common.hh"
#include "workloads/registry.hh"

using namespace olight;

int
main()
{
    SystemConfig cfg = configFor(OrderingMode::OrderLight, 256, 16);
    bench::printHeader(
        "Figure 10b: STREAM execution time and core stall cycles",
        cfg);

    std::uint64_t elements = bench::defaultElements();

    std::cout << std::left << std::setw(8) << "Kernel"
              << std::setw(9) << "TS" << std::right << std::setw(11)
              << "GPU(ms)" << std::setw(12) << "Fence(ms)"
              << std::setw(12) << "OL(ms)" << std::setw(13)
              << "FenceStalls" << std::setw(11) << "OLStalls"
              << std::setw(10) << "OLvsGPU" << "\n";

    std::vector<double> ol_vs_gpu, fence_vs_gpu;
    for (const auto &kernel : streamWorkloadNames()) {
        double gpu_ms = gpuBaselineMs(kernel, elements);
        for (std::uint32_t ts : bench::tsSizes()) {
            RunResult fence = bench::runPoint(
                kernel, OrderingMode::Fence, ts, 16, elements);
            RunResult ol = bench::runPoint(
                kernel, OrderingMode::OrderLight, ts, 16, elements);
            double speedup = gpu_ms / ol.metrics.execMs;
            ol_vs_gpu.push_back(speedup);
            fence_vs_gpu.push_back(gpu_ms / fence.metrics.execMs);
            std::cout << std::left << std::setw(8) << kernel
                      << std::setw(9) << bench::tsName(ts)
                      << std::right << std::fixed
                      << std::setprecision(4) << std::setw(11)
                      << gpu_ms << std::setw(12)
                      << fence.metrics.execMs << std::setw(12)
                      << ol.metrics.execMs << std::setprecision(0)
                      << std::setw(13) << fence.metrics.stallCycles
                      << std::setw(11)
                      << double(ol.metrics.stallCycles)
                      << std::setprecision(2) << std::setw(9)
                      << speedup << "x" << std::defaultfloat
                      << "\n";
        }
    }

    std::uint32_t fence_wins = 0, ol_wins = 0;
    for (double s : fence_vs_gpu)
        fence_wins += s > 1.0;
    for (double s : ol_vs_gpu)
        ol_wins += s > 1.0;
    std::cout << std::fixed << std::setprecision(2)
              << "\nOrderLight beats the GPU in " << ol_wins << "/"
              << ol_vs_gpu.size()
              << " points (geomean speedup "
              << bench::geomean(ol_vs_gpu)
              << "x; paper: 3.5x-7.4x at every TS size).\n"
              << "Fence-based PIM beats the GPU in " << fence_wins
              << "/" << fence_vs_gpu.size()
              << " points (paper: only at 1/4 and 1/2 RB, by "
                 "2x-3.4x).\n\n"
              << std::defaultfloat;

    return 0;
}
