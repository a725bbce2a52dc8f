/**
 * @file
 * Figure 10a: PIM command bandwidth (GC/s) and PIM data bandwidth
 * (GB/s) for the five STREAM kernels, Fence vs OrderLight, across
 * TS sizes, at BMF 16.
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
        "Figure 10a: STREAM command & data bandwidth "
        "(Fence vs OrderLight, BMF 16)",
        cfg);

    std::uint64_t elements = bench::defaultElements();

    std::cout << std::left << std::setw(8) << "Kernel"
              << std::setw(9) << "TS" << std::right << std::setw(14)
              << "Fence(GC/s)" << std::setw(14) << "OL(GC/s)"
              << std::setw(10) << "OL/F" << std::setw(15)
              << "Fence(GB/s)" << std::setw(15) << "OL(GB/s)"
              << "\n";

    std::vector<double> cmd_ratios, data_ratios;
    for (const auto &kernel : streamWorkloadNames()) {
        for (std::uint32_t ts : bench::tsSizes()) {
            RunResult fence = bench::runPoint(
                kernel, OrderingMode::Fence, ts, 16, elements);
            RunResult ol = bench::runPoint(
                kernel, OrderingMode::OrderLight, ts, 16, elements);
            double cmd_ratio = ol.metrics.commandBwGCs /
                               fence.metrics.commandBwGCs;
            cmd_ratios.push_back(cmd_ratio);
            data_ratios.push_back(ol.metrics.dataBwGBs /
                                  fence.metrics.dataBwGBs);
            std::cout << std::left << std::setw(8) << kernel
                      << std::setw(9) << bench::tsName(ts)
                      << std::right << std::fixed
                      << std::setprecision(3) << std::setw(14)
                      << fence.metrics.commandBwGCs << std::setw(14)
                      << ol.metrics.commandBwGCs
                      << std::setprecision(2) << std::setw(9)
                      << cmd_ratio << "x" << std::setprecision(1)
                      << std::setw(15) << fence.metrics.dataBwGBs
                      << std::setw(15) << ol.metrics.dataBwGBs
                      << std::defaultfloat << "\n";
        }
    }
    std::cout << std::fixed << std::setprecision(2)
              << "\nGeomean OrderLight/Fence command bandwidth: "
              << bench::geomean(cmd_ratios)
              << "x (paper: 2.6x on Add)\n"
              << "Geomean OrderLight/Fence data bandwidth:    "
              << bench::geomean(data_ratios)
              << "x (paper: 3.8x average)\n"
              << "Peak external HBM data bandwidth: 405 GB/s^ — "
                 "OrderLight's PIM data bandwidth exceeds it (paper: "
                 "4.3x on average).\n\n"
              << std::defaultfloat;

    return 0;
}
