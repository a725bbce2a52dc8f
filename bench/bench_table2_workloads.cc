/**
 * @file
 * Table 2: the workload suite. Prints, per kernel, the paper's
 * compute:memory ratio and data-structure count plus the *measured*
 * instruction mix of the generated PIM kernel (memory commands,
 * compute commands, ordering points) at the default TS size.
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
    bench::printHeader("Table 2: summary of workloads", cfg);

    std::cout << std::left << std::setw(12) << "Kernel"
              << std::setw(38) << "Description" << std::setw(8)
              << "Ratio" << std::setw(7) << "Multi?" << std::right
              << std::setw(10) << "MemCmds" << std::setw(10)
              << "Computes" << std::setw(10) << "OrdPts"
              << std::setw(10) << "Ord/Instr" << "\n";

    for (const auto &name : workloadNames()) {
        auto w = makeWorkload(name);
        WorkloadInfo info = w->info();
        w->build(cfg, bench::defaultElements());

        std::uint64_t mem = 0, compute = 0, ord = 0;
        for (const auto &stream : w->streams()) {
            for (const auto &instr : stream) {
                if (instr.type == PimOpType::OrderPoint)
                    ++ord;
                else if (instr.type == PimOpType::PimCompute)
                    ++compute;
                else
                    ++mem;
            }
        }
        std::cout << std::left << std::setw(12) << info.name
                  << std::setw(38) << info.description
                  << std::setw(8) << info.ratio << std::setw(7)
                  << (info.multiStructure ? "yes" : "no")
                  << std::right << std::setw(10) << mem
                  << std::setw(10) << compute << std::setw(10) << ord
                  << std::setw(10) << std::fixed
                  << std::setprecision(3)
                  << double(ord) / double(mem + compute)
                  << std::defaultfloat << "\n";
    }
    std::cout << "\n";

    return 0;
}
