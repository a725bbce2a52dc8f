#include "gpu/sm.hh"

#include "sim/logging.hh"
#include "verify/observer.hh"

namespace olight
{

Sm::Sm(const SystemConfig &cfg, std::uint32_t id, EventQueue &eq,
       AcceptPort &injectPort, StatSet &stats)
    : cfg_(cfg),
      id_(id),
      eq_(eq),
      injectPort_(injectPort),
      stats_(stats),
      statIssued_(stats.scalar("sm" + std::to_string(id) + ".issued",
                               "instructions issued")),
      statFences_(stats.scalar("sm" + std::to_string(id) + ".fences",
                               "fence instructions completed")),
      statOlIssued_(stats.scalar(
          "sm" + std::to_string(id) + ".olIssued",
          "OrderLight packets injected")),
      statStallCycles_(stats.scalar(
          "sm" + std::to_string(id) + ".stallCycles",
          "core cycles warps spent blocked on ordering")),
      statFenceWait_(stats.distribution(
          "sm" + std::to_string(id) + ".fenceWait",
          "waiting cycles per fence instruction", 0.0, 1024.0, 32)),
      statOlWait_(stats.distribution(
          "sm" + std::to_string(id) + ".olWait",
          "waiting cycles per OrderLight instruction", 0.0, 1024.0,
          32)),
      statCreditWait_(stats.distribution(
          "sm" + std::to_string(id) + ".creditWait",
          "waiting cycles per credit-stalled request (SeqNum)"))
{
    injectFwd_.bind(
        injectPort_,
        [](void *self) { static_cast<Sm *>(self)->scheduleTick(); },
        this);
    collector_ = std::make_unique<OperandCollector>(cfg, id, eq,
                                                    injectPort, stats);
    collector_->setInjectedFn([this](const Packet &pkt) {
        std::uint32_t local = pkt.warpId - id_ * cfg_.warpsPerSm;
        Warp &warp = *warps_.at(local);
        if (warp.inCollector == 0)
            olight_panic("sm", id_, ": collector count underflow");
        --warp.inCollector;
        ++warp.outstandingAcks;
        if (observer_)
            observer_->onCollectorInject(pkt, pkt.createdAt,
                                         eq_.now());
    });
    collector_->setChangedFn([this] { scheduleTick(); });
}

void
Sm::addWarp(std::uint16_t channel, const std::vector<PimInstr> *stream)
{
    if (warps_.size() >= cfg_.warpsPerSm)
        olight_fatal("sm", id_, ": too many warps");
    std::uint32_t global =
        id_ * cfg_.warpsPerSm +
        static_cast<std::uint32_t>(warps_.size());
    warps_.push_back(std::make_unique<Warp>(global, channel, stream));
}

void
Sm::start()
{
    started_ = true;
    scheduleTick();
}

bool
Sm::done() const
{
    if (!collector_->empty())
        return false;
    for (const auto &w : warps_)
        if (!w->done())
            return false;
    return true;
}

std::uint64_t
Sm::stallCycles() const
{
    return static_cast<std::uint64_t>(statStallCycles_.value());
}

void
Sm::onAck(const Packet &pkt)
{
    if (observer_)
        observer_->onAck(pkt);
    std::uint32_t local = pkt.warpId - id_ * cfg_.warpsPerSm;
    Warp &warp = *warps_.at(local);
    if (warp.outstandingAcks == 0)
        olight_panic("sm", id_, ": ack underflow for warp ",
                     pkt.warpId);
    --warp.outstandingAcks;
    scheduleTick();
}

std::uint64_t
Sm::nextPacketId(const Warp &warp)
{
    return (std::uint64_t(warp.globalId()) << 40) | packetSeq_++;
}

void
Sm::scheduleTick()
{
    if (tickScheduled_ || !started_)
        return;
    Tick when = std::max(eq_.now(), lastIssueTick_ + corePeriod);
    when = coreClock.nextEdge(when);
    tickScheduled_ = true;
    eq_.schedule(when, [this] {
        tickScheduled_ = false;
        tick();
    });
}

void
Sm::tick()
{
    std::size_t n = warps_.size();
    for (std::size_t k = 0; k < n; ++k) {
        std::size_t idx = (rrIndex_ + k) % n;
        Warp &warp = *warps_[idx];
        if (warp.done())
            continue;
        if (tryIssue(warp)) {
            rrIndex_ = (idx + 1) % n;
            lastIssueTick_ = eq_.now();
            ++statIssued_;
            scheduleTick();
            return;
        }
    }
    // Nothing issuable: sleep until an ack / collector / space event.
}

void
Sm::markBlocked(Warp &warp)
{
    if (!warp.blocked) {
        warp.blocked = true;
        warp.blockStart = eq_.now();
    }
}

void
Sm::releaseBlocked(Warp &warp, bool isFence)
{
    std::uint64_t cycles = 0;
    if (warp.blocked) {
        cycles = (eq_.now() - warp.blockStart) / corePeriod;
        warp.blocked = false;
    }
    statStallCycles_ += double(cycles);
    (isFence ? statFenceWait_ : statOlWait_).sample(double(cycles));
}

bool
Sm::tryIssue(Warp &warp)
{
    const PimInstr &instr = warp.current();
    if (instr.type == PimOpType::OrderPoint)
        return issueOrderPoint(warp);

    // SeqNum baseline: every request consumes a reorder-buffer
    // credit at the memory controller; the credit returns with the
    // acknowledgement once the request is issued to memory. Kim et
    // al.'s credit round trip is what throttles command bandwidth.
    if (cfg_.orderingMode == OrderingMode::SeqNum &&
        warp.inCollector + warp.outstandingAcks >=
            cfg_.seqNumCredits) {
        markBlocked(warp);
        return false;
    }

    if (!collector_->hasFreeUnit())
        return false; // structural stall, retried on collector change

    Packet pkt;
    pkt.kind = PacketKind::Request;
    pkt.id = nextPacketId(warp);
    pkt.smId = id_;
    pkt.warpId = warp.globalId();
    pkt.channel = warp.channel();
    pkt.instr = instr;
    pkt.createdAt = eq_.now();

    // The sequence number must only be consumed once allocation is
    // guaranteed, or a failed allocate would leave a gap the memory
    // controller waits on forever.
    if (cfg_.orderingMode == OrderingMode::SeqNum &&
        instr.isPimCommand())
        pkt.seq = warp.nextSeq();

    // Louvre: the seq field carries the request's window version
    // (the two uses are mutually exclusive by mode). Counting into
    // the window must also wait for guaranteed allocation — the
    // release packet reports the count to the MC.
    if (cfg_.orderingMode == OrderingMode::Louvre &&
        instr.isPimCommand())
        pkt.seq = warp.louvreTagRequest(instr.memGroup);

    if (!collector_->tryAllocate(pkt))
        olight_panic("collector refused after hasFreeUnit()");
    if (observer_)
        observer_->onWarpIssue(pkt);
    if (warp.blocked) {
        // Credit stall released.
        std::uint64_t cycles =
            (eq_.now() - warp.blockStart) / corePeriod;
        statStallCycles_ += double(cycles);
        statCreditWait_.sample(double(cycles));
        warp.blocked = false;
    }
    ++warp.inCollector;
    warp.advance();
    return true;
}

bool
Sm::issueOrderPoint(Warp &warp)
{
    const PimInstr &instr = warp.current();
    switch (cfg_.orderingMode) {
      case OrderingMode::None:
      case OrderingMode::SeqNum:
        // SeqNum enforces a total per-channel order implicitly; the
        // explicit marker is dropped. The observer still sees the
        // program-order position of the constraint — under None that
        // is what lets the oracle detect what nothing enforces.
        if (observer_)
            observer_->onOrderPoint(warp.channel(), instr.memGroup,
                                    instr.secondOrderGroup());
        warp.advance();
        return true;

      case OrderingMode::OrderLight: {
        int group2 = instr.secondOrderGroup();
        if (collector_->pendingFor(warp.channel(), instr.memGroup) >
                0 ||
            (group2 >= 0 &&
             collector_->pendingFor(warp.channel(),
                                    std::uint8_t(group2)) > 0)) {
            markBlocked(warp);
            return false;
        }
        Packet pkt;
        pkt.kind = PacketKind::OrderLight;
        pkt.id = nextPacketId(warp);
        pkt.smId = id_;
        pkt.warpId = warp.globalId();
        pkt.channel = warp.channel();
        pkt.ol.channelId = warp.channel() & 0xf;
        pkt.ol.memGroupId = instr.memGroup;
        if (group2 >= 0) {
            pkt.ol.hasSecondGroup = true;
            pkt.ol.memGroupId2 = std::uint8_t(group2);
        }
        pkt.createdAt = eq_.now();
        if (!injectFwd_.tryReserve(pkt)) {
            markBlocked(warp);
            return false;
        }
        pkt.ol.pktNumber = warp.nextOlNumber(instr.memGroup);
        if (observer_) {
            observer_->onOrderPoint(warp.channel(), instr.memGroup,
                                    group2);
            observer_->onOlInject(pkt);
        }
        injectFwd_.deliver(std::move(pkt), eq_.now());
        releaseBlocked(warp, false);
        ++statOlIssued_;
        warp.advance();
        return true;
      }

      case OrderingMode::Louvre: {
        // Versioned release consistency: unlike OrderLight there is
        // no collector drain — the release injects immediately and
        // younger requests may overtake older ones in flight. The
        // packet closes the affected window(s) and carries their
        // request counts so the MC's VersionTracker can hold
        // window-V requests until every earlier window has fully
        // scheduled, even with stragglers still in the pipe.
        int group2 = instr.secondOrderGroup();
        Packet pkt;
        pkt.kind = PacketKind::OrderLight;
        pkt.id = nextPacketId(warp);
        pkt.smId = id_;
        pkt.warpId = warp.globalId();
        pkt.channel = warp.channel();
        pkt.ol.channelId = warp.channel() & 0xf;
        pkt.ol.memGroupId = instr.memGroup;
        if (group2 >= 0) {
            pkt.ol.hasSecondGroup = true;
            pkt.ol.memGroupId2 = std::uint8_t(group2);
        }
        pkt.createdAt = eq_.now();
        if (!injectFwd_.tryReserve(pkt)) {
            markBlocked(warp);
            return false;
        }
        // Like the pktNumber, window closure must only happen once
        // injection is guaranteed.
        pkt.ol.pktNumber = warp.nextOlNumber(instr.memGroup);
        pkt.ol.verCount = warp.louvreCloseWindow(instr.memGroup);
        if (group2 >= 0)
            pkt.ol.verCount2 =
                warp.louvreCloseWindow(std::uint8_t(group2));
        if (observer_) {
            observer_->onOrderPoint(warp.channel(), instr.memGroup,
                                    group2);
            observer_->onOlInject(pkt);
        }
        injectFwd_.deliver(std::move(pkt), eq_.now());
        releaseBlocked(warp, false);
        ++statOlIssued_;
        warp.advance();
        return true;
      }

      case OrderingMode::Fence:
        if (warp.inCollector > 0 || warp.outstandingAcks > 0) {
            markBlocked(warp);
            return false;
        }
        releaseBlocked(warp, true);
        if (observer_)
            observer_->onOrderPoint(warp.channel(), instr.memGroup,
                                    instr.secondOrderGroup());
        ++statFences_;
        warp.advance();
        return true;
    }
    return false;
}

} // namespace olight
