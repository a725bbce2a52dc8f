#include "sim/trace.hh"

#include <cstdio>

#include "sim/json.hh"
#include "sim/logging.hh"

namespace olight
{

namespace
{

/** Chrome trace timestamps are microseconds; keep ns resolution. */
std::string
ticksToUs(Tick t)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.6f", double(t) * tickPs * 1e-6);
    return buf;
}

std::string
mcName(std::uint16_t channel)
{
    return "mc" + std::to_string(channel);
}

} // namespace

TraceWriter::TraceWriter(std::ostream &os, const EventQueue &clock)
    : os_(os), clock_(clock)
{
    os_ << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
}

TraceWriter::~TraceWriter()
{
    close();
}

void
TraceWriter::close()
{
    if (closed_)
        return;
    closed_ = true;
    os_ << "\n]}\n";
    os_.flush();
}

void
TraceWriter::chromeEventHead(const char *ph, Tick ts,
                             const std::string &name,
                             std::uint64_t tid)
{
    os_ << (firstEvent_ ? "\n" : ",\n");
    firstEvent_ = false;
    os_ << "{\"name\":";
    jsonString(os_, name);
    os_ << ",\"ph\":\"" << ph << "\",\"ts\":" << ticksToUs(ts)
        << ",\"pid\":0,\"tid\":" << tid;
}

void
TraceWriter::record(Tick tick, const std::string &component,
                    const std::string &event,
                    const std::string &detail)
{
    chromeEventHead("i", tick, component + "." + event, 0);
    os_ << ",\"s\":\"g\",\"args\":{\"detail\":";
    jsonString(os_, detail);
    os_ << "}}";
}

void
TraceWriter::span(Tick begin, Tick end, const std::string &stage,
                  std::uint64_t pktId, const std::string &detail)
{
    chromeEventHead("B", begin, stage, pktId);
    os_ << ",\"args\":{\"detail\":";
    jsonString(os_, detail);
    os_ << "}}";
    chromeEventHead("E", end, stage, pktId);
    os_ << "}";
}

void
TraceWriter::onCollectorInject(const Packet &pkt, Tick begin, Tick end)
{
    span(begin, end, "sm" + std::to_string(pkt.smId) + ".collect",
         pkt.id, pkt.describe());
    PipeObserver::onCollectorInject(pkt, begin, end);
}

void
TraceWriter::onStageEgress(const std::string &stage, const Packet &pkt,
                           Tick begin, Tick end)
{
    span(begin, end, stage, pkt.id, pkt.describe());
    PipeObserver::onStageEgress(stage, pkt, begin, end);
}

void
TraceWriter::onMcAdmit(std::uint16_t channel, const Packet &pkt)
{
    admitted_[pkt.id] = clock_.now();
    record(clock_.now(), mcName(channel), "arrive", pkt.describe());
    PipeObserver::onMcAdmit(channel, pkt);
}

void
TraceWriter::onMcOrderLight(std::uint16_t channel, const Packet &pkt)
{
    record(clock_.now(), mcName(channel), "arrive", pkt.describe());
    PipeObserver::onMcOrderLight(channel, pkt);
}

void
TraceWriter::onMcCommit(std::uint16_t channel, const Packet &pkt,
                        Tick colTick)
{
    auto admit = admitted_.find(pkt.id);
    if (admit == admitted_.end())
        olight_panic("trace: packet ", pkt.id,
                     " committed without an MC admit");
    Tick now = clock_.now();
    std::string mc = mcName(channel);
    std::string detail = pkt.describe();
    record(now, mc, "schedule", detail);
    span(admit->second, now, mc + ".queue", pkt.id, detail);
    span(now, colTick, mc + ".sched", pkt.id, detail);
    admitted_.erase(admit);
    PipeObserver::onMcCommit(channel, pkt, colTick);
}

} // namespace olight
