#include "verify/log_events.hh"

#include <sstream>

#include "core/config.hh"
#include "sim/logging.hh"
#include "verify/oracle.hh"

namespace olight
{

void
packRecord(LogRecord &rec, const Packet &pkt)
{
    rec.pktId = pkt.id;
    rec.addr = pkt.instr.addr;
    rec.createdAt = pkt.createdAt;
    rec.smId = pkt.smId;
    rec.warpId = pkt.warpId;
    rec.seq = pkt.seq;
    rec.scalar = pkt.instr.scalar;
    rec.scalar2 = pkt.instr.scalar2;
    rec.olPktNumber = pkt.ol.pktNumber;
    rec.channel = pkt.channel;
    rec.aux = pkt.instr.aux;
    rec.pktKind = std::uint8_t(pkt.kind);
    rec.instrType = std::uint8_t(pkt.instr.type);
    rec.alu = std::uint8_t(pkt.instr.alu);
    rec.dstSlot = pkt.instr.dstSlot;
    rec.srcSlot = pkt.instr.srcSlot;
    rec.memGroup = pkt.instr.memGroup;
    rec.olChannelId = pkt.ol.channelId;
    rec.olMemGroupId = pkt.ol.memGroupId;
    rec.olMemGroupId2 = pkt.ol.memGroupId2;
    rec.olFlags = pkt.ol.hasSecondGroup ? 1 : 0;
}

Packet
unpackRecord(const LogRecord &rec)
{
    Packet pkt;
    pkt.kind = PacketKind(rec.pktKind);
    pkt.id = rec.pktId;
    pkt.smId = rec.smId;
    pkt.warpId = rec.warpId;
    pkt.channel = rec.channel;
    pkt.seq = rec.seq;
    pkt.createdAt = rec.createdAt;
    pkt.instr.type = PimOpType(rec.instrType);
    pkt.instr.alu = AluOp(rec.alu);
    pkt.instr.dstSlot = rec.dstSlot;
    pkt.instr.srcSlot = rec.srcSlot;
    pkt.instr.memGroup = rec.memGroup;
    pkt.instr.addr = rec.addr;
    pkt.instr.scalar = rec.scalar;
    pkt.instr.scalar2 = rec.scalar2;
    pkt.instr.aux = rec.aux;
    pkt.ol.channelId = rec.olChannelId;
    pkt.ol.memGroupId = rec.olMemGroupId;
    pkt.ol.memGroupId2 = rec.olMemGroupId2;
    pkt.ol.hasSecondGroup = (rec.olFlags & 1) != 0;
    pkt.ol.pktNumber = rec.olPktNumber;
    return pkt;
}

namespace
{

LogRecord
baseRecord(LogRecordKind kind, const Packet &pkt)
{
    LogRecord rec;
    rec.kind = std::uint8_t(kind);
    packRecord(rec, pkt);
    return rec;
}

} // namespace

void
RecordingObserver::onWarpIssue(const Packet &pkt)
{
    writer_.append(baseRecord(LogRecordKind::WarpIssue, pkt));
    PipeObserver::onWarpIssue(pkt);
}

void
RecordingObserver::onOrderPoint(std::uint16_t channel,
                                std::uint8_t group, int group2)
{
    LogRecord rec;
    rec.kind = std::uint8_t(LogRecordKind::OrderPoint);
    rec.channel = channel;
    rec.group = group;
    rec.group2 = std::int8_t(group2);
    writer_.append(rec);
    PipeObserver::onOrderPoint(channel, group, group2);
}

void
RecordingObserver::onOlInject(const Packet &pkt)
{
    writer_.append(baseRecord(LogRecordKind::OlInject, pkt));
    PipeObserver::onOlInject(pkt);
}

void
RecordingObserver::onCollectorInject(const Packet &pkt, Tick begin,
                                     Tick end)
{
    LogRecord rec = baseRecord(LogRecordKind::CollectorInject, pkt);
    rec.tickA = begin;
    rec.tickB = end;
    writer_.append(rec);
    PipeObserver::onCollectorInject(pkt, begin, end);
}

void
RecordingObserver::onStageEgress(const std::string &stage,
                                 const Packet &pkt, Tick begin,
                                 Tick end)
{
    LogRecord rec = baseRecord(LogRecordKind::StageEgress, pkt);
    rec.name = writer_.intern(stage);
    rec.tickA = begin;
    rec.tickB = end;
    writer_.append(rec);
    PipeObserver::onStageEgress(stage, pkt, begin, end);
}

void
RecordingObserver::onOlReplicate(const std::string &point,
                                 const Packet &pkt,
                                 std::uint32_t copies)
{
    LogRecord rec = baseRecord(LogRecordKind::OlReplicate, pkt);
    rec.name = writer_.intern(point);
    rec.extra = copies;
    writer_.append(rec);
    PipeObserver::onOlReplicate(point, pkt, copies);
}

void
RecordingObserver::onOlMergeIn(const std::string &point,
                               std::uint32_t path, const Packet &pkt)
{
    LogRecord rec = baseRecord(LogRecordKind::OlMergeIn, pkt);
    rec.name = writer_.intern(point);
    rec.extra = path;
    writer_.append(rec);
    PipeObserver::onOlMergeIn(point, path, pkt);
}

void
RecordingObserver::onOlMergeOut(const std::string &point,
                                const Packet &pkt,
                                std::uint32_t copies)
{
    LogRecord rec = baseRecord(LogRecordKind::OlMergeOut, pkt);
    rec.name = writer_.intern(point);
    rec.extra = copies;
    writer_.append(rec);
    PipeObserver::onOlMergeOut(point, pkt, copies);
}

void
RecordingObserver::onMcAdmit(std::uint16_t channel, const Packet &pkt)
{
    // The hook's channel argument travels in `extra`: `channel` holds
    // pkt.channel, and the two must round-trip independently.
    LogRecord rec = baseRecord(LogRecordKind::McAdmit, pkt);
    rec.extra = channel;
    writer_.append(rec);
    PipeObserver::onMcAdmit(channel, pkt);
}

void
RecordingObserver::onMcOrderLight(std::uint16_t channel,
                                  const Packet &pkt)
{
    LogRecord rec = baseRecord(LogRecordKind::McOrderLight, pkt);
    rec.extra = channel;
    writer_.append(rec);
    PipeObserver::onMcOrderLight(channel, pkt);
}

void
RecordingObserver::onMcCommit(std::uint16_t channel, const Packet &pkt,
                              Tick colTick)
{
    LogRecord rec = baseRecord(LogRecordKind::McCommit, pkt);
    rec.extra = channel;
    rec.tickA = colTick;
    writer_.append(rec);
    PipeObserver::onMcCommit(channel, pkt, colTick);
}

void
RecordingObserver::onAck(const Packet &pkt)
{
    writer_.append(baseRecord(LogRecordKind::Ack, pkt));
    PipeObserver::onAck(pkt);
}

void
replayRecord(const LogRecord &rec, const LogData &log,
             PipeObserver &obs)
{
    switch (LogRecordKind(rec.kind)) {
      case LogRecordKind::WarpIssue:
        obs.onWarpIssue(unpackRecord(rec));
        return;
      case LogRecordKind::OrderPoint:
        obs.onOrderPoint(rec.channel, rec.group, int(rec.group2));
        return;
      case LogRecordKind::OlInject:
        obs.onOlInject(unpackRecord(rec));
        return;
      case LogRecordKind::CollectorInject:
        obs.onCollectorInject(unpackRecord(rec), rec.tickA, rec.tickB);
        return;
      case LogRecordKind::StageEgress:
        obs.onStageEgress(log.stringAt(rec.name), unpackRecord(rec),
                          rec.tickA, rec.tickB);
        return;
      case LogRecordKind::OlReplicate:
        obs.onOlReplicate(log.stringAt(rec.name), unpackRecord(rec),
                          rec.extra);
        return;
      case LogRecordKind::OlMergeIn:
        obs.onOlMergeIn(log.stringAt(rec.name), rec.extra,
                        unpackRecord(rec));
        return;
      case LogRecordKind::OlMergeOut:
        obs.onOlMergeOut(log.stringAt(rec.name), unpackRecord(rec),
                         rec.extra);
        return;
      case LogRecordKind::McAdmit:
        obs.onMcAdmit(std::uint16_t(rec.extra), unpackRecord(rec));
        return;
      case LogRecordKind::McOrderLight:
        obs.onMcOrderLight(std::uint16_t(rec.extra),
                           unpackRecord(rec));
        return;
      case LogRecordKind::McCommit:
        obs.onMcCommit(std::uint16_t(rec.extra), unpackRecord(rec),
                       rec.tickA);
        return;
      case LogRecordKind::Ack:
        obs.onAck(unpackRecord(rec));
        return;
      case LogRecordKind::Invalid:
        break;
    }
    olight_fatal("replay of invalid record kind ", unsigned(rec.kind));
}

ReplayVerdict
harvestVerdict(const OrderingOracle &oracle)
{
    ReplayVerdict v;
    v.violations = oracle.violationCount();
    v.checks = oracle.checksPerformed();
    v.clean = oracle.clean();
    std::ostringstream os;
    oracle.report(os);
    v.report = os.str();
    v.reportHash = fnv1a64(v.report);
    return v;
}

ReplayVerdict
replayLog(const LogData &log)
{
    // The oracle only reads the group-count geometry from the config;
    // the header carries everything it needs.
    SystemConfig cfg;
    cfg.numChannels = log.header.numChannels;
    cfg.numMemGroups = log.header.numMemGroups;
    cfg.orderingMode = OrderingMode(log.header.orderingMode);
    OrderingOracle oracle(cfg);
    for (const LogRecord &rec : log.records)
        replayRecord(rec, log, oracle);
    oracle.finalize();
    return harvestVerdict(oracle);
}

} // namespace olight
