/** @file Tests for the energy model and the packet tracer. */

#include <gtest/gtest.h>

#include <sstream>

#include "core/energy.hh"
#include "core/runner.hh"
#include "core/system.hh"
#include "workloads/registry.hh"

namespace olight
{
namespace
{

EnergyBreakdown
runAndMeasure(OrderingMode mode, std::ostream *trace = nullptr,
              RunMetrics *metrics_out = nullptr)
{
    SystemConfig cfg = configFor(mode, 256, 16);
    auto w = makeWorkload("Add");
    w->build(cfg, 1ull << 15);
    System sys(cfg);
    if (trace)
        sys.enableTrace(*trace);
    w->initMemory(sys.mem());
    sys.loadPimKernel(w->streams());
    RunMetrics m = sys.run();
    if (metrics_out)
        *metrics_out = m;
    return computeEnergy(sys.stats(), cfg);
}

TEST(Energy, BreakdownIsPositiveAndComplete)
{
    EnergyBreakdown e = runAndMeasure(OrderingMode::OrderLight);
    EXPECT_GT(e.rowOps, 0.0);
    EXPECT_GT(e.columns, 0.0);
    EXPECT_GT(e.compute, 0.0);
    EXPECT_GT(e.pipe, 0.0);
    EXPECT_GT(e.ordering, 0.0);
    EXPECT_NEAR(e.totalNj(), e.rowOps + e.columns + e.compute +
                                 e.pipe + e.ordering,
                1e-9);
}

TEST(Energy, OrderingOverheadIsNegligible)
{
    EnergyBreakdown e = runAndMeasure(OrderingMode::OrderLight);
    EXPECT_LT(e.orderingFraction(), 0.01)
        << "OrderLight packets must cost well under 1% of total "
           "energy";
}

TEST(Energy, FenceModeHasNoOrderingEnergy)
{
    EnergyBreakdown e = runAndMeasure(OrderingMode::Fence);
    EXPECT_EQ(e.ordering, 0.0);
    EXPECT_GT(e.columns, 0.0);
}

TEST(Energy, ScalesWithCoefficients)
{
    SystemConfig cfg = configFor(OrderingMode::OrderLight, 256, 16);
    auto w = makeWorkload("Scale");
    w->build(cfg, 1ull << 14);
    System sys(cfg);
    w->initMemory(sys.mem());
    sys.loadPimKernel(w->streams());
    sys.run();

    EnergyParams doubled;
    doubled.actPreNj *= 2.0;
    EnergyBreakdown base = computeEnergy(sys.stats(), cfg);
    EnergyBreakdown more = computeEnergy(sys.stats(), cfg, doubled);
    EXPECT_NEAR(more.rowOps, 2.0 * base.rowOps, 1e-9);
    EXPECT_EQ(more.columns, base.columns);
}

TEST(Energy, PrintMentionsTotal)
{
    EnergyBreakdown e = runAndMeasure(OrderingMode::OrderLight);
    std::ostringstream os;
    e.print(os);
    EXPECT_NE(os.str().find("total="), std::string::npos);
    EXPECT_NE(os.str().find("ordering"), std::string::npos);
}

TEST(Trace, RecordsArrivalsAndSchedules)
{
    std::ostringstream trace;
    runAndMeasure(OrderingMode::OrderLight, &trace);
    std::string text = trace.str();
    EXPECT_EQ(text.rfind("{\"displayTimeUnit\":", 0), 0u);
    EXPECT_NE(text.find("{\"name\":\"mc0.arrive\",\"ph\":\"i\""),
              std::string::npos);
    EXPECT_NE(text.find("{\"name\":\"mc0.schedule\",\"ph\":\"i\""),
              std::string::npos);
    EXPECT_NE(text.find("OL[ch="), std::string::npos)
        << "OrderLight packets must appear in the trace";
    EXPECT_NE(text.find("PimLoad["), std::string::npos);
}

TEST(Trace, ScheduleNeverPrecedesArrivalPerPacket)
{
    std::ostringstream trace;
    runAndMeasure(OrderingMode::OrderLight, &trace);
    std::istringstream in(trace.str());
    std::string line;
    std::map<std::string, int> state; // mcN + detail -> 1 arrived
    std::uint64_t checked = 0;
    while (std::getline(in, line) && checked < 5000) {
        // Point events: {"name":"mcN.EVENT","ph":"i",...,
        // "args":{"detail":"DETAIL"}}
        if (line.find("\"ph\":\"i\"") == std::string::npos)
            continue;
        auto dot = line.find('.');
        auto quote = line.find('"', dot);
        std::string mc = line.substr(9, dot - 9);
        std::string event = line.substr(dot + 1, quote - dot - 1);
        auto at = line.find("\"detail\":") + 9;
        std::string detail =
            mc + " " + line.substr(at, line.find("}}", at) - at);
        if (event == "arrive") {
            state[detail] = 1;
        } else if (event == "schedule") {
            EXPECT_EQ(state[detail], 1)
                << "scheduled before arrival: " << detail;
            ++checked;
        }
    }
    EXPECT_GT(checked, 0u);
}

} // namespace
} // namespace olight
