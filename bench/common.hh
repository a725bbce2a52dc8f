/**
 * @file
 * Shared helpers for the benchmark binaries. Each binary reproduces
 * one table or figure of the paper: it prints the same rows/series
 * the paper reports (simulated metrics). Simulator speed is measured
 * by bench_perf_sweep and perfbench/, not here.
 *
 * Problem sizes scale with the OLIGHT_BENCH_ELEMENTS environment
 * variable (fp32 elements per principal array, default 2^18).
 */

#ifndef OLIGHT_BENCH_COMMON_HH
#define OLIGHT_BENCH_COMMON_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/runner.hh"

namespace olight::bench
{

/** TS sizes of the paper's sweep: 1/16, 1/8, 1/4, 1/2 row buffer. */
const std::vector<std::uint32_t> &tsSizes();

/** Label like "1/8 RB" for a TS size. */
std::string tsName(std::uint32_t tsBytes);

/** Problem size (fp32 elements), env-overridable. */
std::uint64_t defaultElements();

/** Print the benchmark banner with the Table 1 configuration. */
void printHeader(const std::string &title, const SystemConfig &cfg);

/** Run one experiment point (verification off for speed). */
RunResult runPoint(const std::string &workload, OrderingMode mode,
                   std::uint32_t tsBytes, std::uint32_t bmf,
                   std::uint64_t elements,
                   const SystemConfig &base = {});

/** Geometric mean helper for speedup summaries. */
double geomean(const std::vector<double> &values);

} // namespace olight::bench

#endif // OLIGHT_BENCH_COMMON_HH
