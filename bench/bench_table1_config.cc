/**
 * @file
 * Table 1 + Figure 1: print the simulated configuration and the PIM
 * taxonomy with literature placements.
 */

#include <iomanip>
#include <iostream>

#include "common.hh"
#include "core/taxonomy.hh"

using namespace olight;

int
main()
{
    SystemConfig cfg = configFor(OrderingMode::OrderLight, 256, 16);
    bench::printHeader(
        "Table 1: simulator configuration (GPU + PIM-enabled HBM)",
        cfg);

    std::cout << "\nFigure 1: taxonomy of PIM designs "
                 "(offload x arbitration granularity)\n\n";
    for (auto offload : {OffloadGranularity::Fine,
                         OffloadGranularity::Coarse}) {
        for (auto arb : {ArbitrationGranularity::Fine,
                         ArbitrationGranularity::Coarse}) {
            DesignPoint point{offload, arb};
            std::cout << "  " << std::left << std::setw(8)
                      << quadrantName(point) << ": ";
            bool first = true;
            for (const auto &ex : examplesIn(point)) {
                std::cout << (first ? "" : ", ") << ex.name;
                first = false;
            }
            std::cout << "\n";
        }
    }
    std::cout << "\nThis work targets FGO/FGA (Section 3.5).\n\n";

    return 0;
}
