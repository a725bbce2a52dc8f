#include "common.hh"

#include <cmath>
#include <cstdlib>
#include <iostream>

namespace olight::bench
{

const std::vector<std::uint32_t> &
tsSizes()
{
    static const std::vector<std::uint32_t> sizes = {128, 256, 512,
                                                     1024};
    return sizes;
}

std::string
tsName(std::uint32_t tsBytes)
{
    SystemConfig cfg;
    cfg.tsBytes = tsBytes;
    return tsLabel(cfg);
}

std::uint64_t
defaultElements()
{
    if (const char *env = std::getenv("OLIGHT_BENCH_ELEMENTS"))
        return std::strtoull(env, nullptr, 0);
    return 1ull << 18;
}

void
printHeader(const std::string &title, const SystemConfig &cfg)
{
    std::cout << std::string(72, '=') << "\n"
              << title << "\n"
              << std::string(72, '=') << "\n";
    cfg.print(std::cout);
    std::cout << "problem size: " << defaultElements()
              << " fp32 elements per principal array"
              << " (set OLIGHT_BENCH_ELEMENTS to scale)\n"
              << std::string(72, '-') << "\n";
}

RunResult
runPoint(const std::string &workload, OrderingMode mode,
         std::uint32_t tsBytes, std::uint32_t bmf,
         std::uint64_t elements, const SystemConfig &base)
{
    RunOptions opts;
    opts.workload = workload;
    opts.mode = mode;
    opts.tsBytes = tsBytes;
    opts.bmf = bmf;
    opts.elements = elements;
    opts.verify = false;
    opts.base = base;
    return runWorkload(opts);
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / double(values.size()));
}

} // namespace olight::bench
