/**
 * @file
 * Figure 11: DRAM timing limit on peak PIM command bandwidth.
 *
 * Analytically: opening the row for vector p, issuing 8 column
 * writes (TS = 256 B), and switching to the row for vector q costs
 * tRCDW + 7*tCCDL + tWTP + tRP = 9 + 14 + 9 + 12 = 44 memory cycles,
 * so the peak command bandwidth is 8/44 of the command-bus peak —
 * about 2.3 GC/s over 16 channels at 850 MHz. The bench derives the
 * same number from the timing engine directly and compares it with
 * the command bandwidth OrderLight actually achieves on Add (the
 * paper reports 2.1 GC/s achieved vs 2.3 GC/s peak).
 */

#include <iomanip>
#include <iostream>

#include "common.hh"
#include "dram/channel_timing.hh"

using namespace olight;

namespace
{

/** Cycles per TS-worth of writes + row switch, from the engine. */
double
measuredCyclePerBurst(std::uint32_t burst)
{
    SystemConfig cfg;
    StatSet stats;
    ChannelTiming ct(cfg, "dram", stats);
    // Steady-state: alternate rows of one bank, `burst` writes each.
    Tick first_col = 0, last_col = 0;
    constexpr int rows = 64;
    for (int r = 0; r < rows; ++r) {
        for (std::uint32_t i = 0; i < burst; ++i) {
            Reservation res = ct.reserve(AccessKind::Write, 0,
                                         std::uint32_t(r % 2), 0);
            if (r == 0 && i == 0)
                first_col = res.colTick;
            last_col = res.colTick;
        }
    }
    return double(last_col - first_col) / memPeriod /
           double((rows - 1) * burst);
}

} // namespace

int
main()
{
    SystemConfig cfg = configFor(OrderingMode::OrderLight, 256, 16);
    bench::printHeader(
        "Figure 11: DRAM timing limit on peak command bandwidth",
        cfg);

    const DramTiming &t = cfg.timing;
    std::cout << "Analytic (TS = 256 B -> 8 writes per row visit):\n"
              << "  tRCDW(" << t.rcdw << ") + 7*tCCDL(" << t.ccdl
              << ") + tWTP(" << t.wtp << ") + tRP(" << t.rp
              << ") = " << (t.rcdw + 7 * t.ccdl + t.wtp + t.rp)
              << " memory cycles per 8 commands\n";

    double mem_ghz = 0.85;
    std::cout << std::fixed << std::setprecision(2);

    std::cout << "\n" << std::left << std::setw(8) << "TS"
              << std::right << std::setw(14) << "cyc/cmd(eng)"
              << std::setw(16) << "peak GC/s(16ch)" << std::setw(18)
              << "achieved GC/s(OL)" << std::setw(12) << "achieved%"
              << "\n";

    for (std::uint32_t ts : bench::tsSizes()) {
        std::uint32_t burst = ts / 32;
        double cyc_per_cmd = measuredCyclePerBurst(burst);
        double peak = 16.0 * mem_ghz / cyc_per_cmd;
        RunResult ol = bench::runPoint("Add",
                                       OrderingMode::OrderLight, ts,
                                       16, bench::defaultElements());
        // Add issues 3 phases per tile (load/add/store), all of
        // which behave like the analyzed burst.
        std::cout << std::left << std::setw(8) << bench::tsName(ts)
                  << std::right << std::setw(14) << cyc_per_cmd
                  << std::setw(16) << peak << std::setw(18)
                  << ol.metrics.commandBwGCs << std::setw(11)
                  << 100.0 * ol.metrics.commandBwGCs / peak << "%"
                  << "\n";
    }
    std::cout
        << "\nPaper: peak 2.3 GC/s at TS = 1/8 RB; OrderLight "
           "achieves 2.1 GC/s (~91%).\n\n"
        << std::defaultfloat;

    return 0;
}
