#include "memctrl/memory_controller.hh"

#include "sim/logging.hh"
#include "verify/observer.hh"

namespace olight
{

namespace
{

bool
isHostRequest(const Packet &pkt)
{
    return pkt.instr.type == PimOpType::HostLoad ||
           pkt.instr.type == PimOpType::HostStore;
}

} // namespace

MemoryController::MemoryController(const SystemConfig &cfg,
                                   const AddressMap &map,
                                   std::uint16_t channel,
                                   EventQueue &eq,
                                   ChannelTiming &timing, PimUnit &pim,
                                   const std::string &name,
                                   StatSet &stats)
    : cfg_(cfg),
      map_(map),
      channel_(channel),
      eq_(eq),
      timing_(timing),
      pim_(pim),
      name_(name),
      readQ_(cfg.readQueueSize),
      writeQ_(cfg.writeQueueSize),
      tracker_(cfg.numMemGroups),
      versions_(cfg.numMemGroups),
      expectedOlNumber_(cfg.numMemGroups, 0),
      statOlPackets_(stats.scalar(name + ".olPackets",
                                  "OrderLight packets received")),
      statPimScheduled_(stats.scalar(name + ".pimScheduled",
                                     "PIM commands scheduled")),
      statHostScheduled_(stats.scalar(name + ".hostScheduled",
                                      "host requests scheduled")),
      statOlBlockedPicks_(stats.scalar(
          name + ".orderingBlocked",
          "scheduler passes blocked by ordering")),
      statQueueLatency_(stats.distribution(
          name + ".queueLatency", "ticks from arrival to schedule",
          0.0, double(2000 * memPeriod), 25)),
      statReadOcc_(stats.distribution(name + ".readQueueOcc",
                                      "read queue occupancy", 0.0,
                                      double(cfg.readQueueSize), 16))
{
}

bool
MemoryController::tryReserve(const Packet &pkt)
{
    if (pkt.isOrderLight())
        return true; // markers live in the tracker, not the queues
    return isWriteQueueKind(pkt) ? writeQ_.reserve() : readQ_.reserve();
}

void
MemoryController::deliver(Packet pkt, Tick when)
{
    eq_.schedule(when, [this, pkt = std::move(pkt)]() mutable {
        arrive(std::move(pkt));
    });
}

void
MemoryController::enqueueWaiter(const Packet &, PortWaiter &w)
{
    spaceWaiters_.enqueue(w);
}

void
MemoryController::setHostBlocked(bool blocked)
{
    hostBlocked_ = blocked;
    if (!blocked)
        wake();
}

void
MemoryController::arrive(Packet pkt)
{
    if (pkt.isOrderLight()) {
        ++statOlPackets_;
        if (observer_)
            observer_->onMcOrderLight(channel_, pkt);
        if (pkt.ol.channelId != (channel_ & 0xf))
            olight_panic(name_, ": OrderLight packet for channel ",
                         unsigned(pkt.ol.channelId));
        std::uint32_t group = pkt.ol.memGroupId;
        if (group >= tracker_.numGroups())
            olight_panic(name_, ": OrderLight group out of range");
        // Packet-number sanity check (the field's stated purpose).
        if (std::int64_t(pkt.ol.pktNumber) !=
            expectedOlNumber_[group]) {
            olight_panic(name_, ": OrderLight packet #",
                         pkt.ol.pktNumber, " for group ", group,
                         " arrived out of order (expected #",
                         expectedOlNumber_[group], ")");
        }
        ++expectedOlNumber_[group];
        if (pkt.ol.hasSecondGroup &&
            pkt.ol.memGroupId2 >= tracker_.numGroups())
            olight_panic(name_, ": OrderLight group2 out of range");
        if (cfg_.orderingMode == OrderingMode::Louvre) {
            // A release can complete a window outright (e.g. all of
            // its requests already scheduled, or an empty window),
            // unblocking queued younger-window requests — wake.
            if (pkt.ol.hasSecondGroup)
                versions_.onDualRelease(group, pkt.ol.verCount,
                                        pkt.ol.memGroupId2,
                                        pkt.ol.verCount2);
            else
                versions_.onRelease(group, pkt.ol.verCount);
            wake();
        } else if (pkt.ol.hasSecondGroup) {
            tracker_.onDualOrderLightArrive(group,
                                            pkt.ol.memGroupId2);
        } else {
            tracker_.onOrderLightArrive(group);
        }
        return;
    }

    std::uint32_t group = pkt.instr.memGroup;
    if (group >= tracker_.numGroups())
        olight_panic(name_, ": request group out of range: ", group);
    if (observer_)
        observer_->onMcAdmit(channel_, pkt);

    Transaction txn;
    // Louvre requests carry their window version from the SM (seq
    // field); arrival order means nothing without drains, so the
    // arrival-epoch tracker is bypassed. Host requests are untagged
    // (version 0) and never blocked — they obey no PIM ordering.
    txn.epoch = cfg_.orderingMode == OrderingMode::Louvre
                    ? pkt.seq
                    : tracker_.onRequestArrive(group);
    txn.arrival = eq_.now();
    if (pkt.instr.isMemAccess()) {
        DramCoord c = map_.decode(pkt.instr.addr);
        if (c.channel != channel_)
            olight_panic(name_, ": request routed to wrong channel");
        txn.bank = c.bank;
        txn.row = c.row;
    }
    bool is_write = isWriteQueueKind(pkt);
    txn.pkt = std::move(pkt);
    statReadOcc_.sample(double(readQ_.size()));
    (is_write ? writeQ_ : readQ_).push(std::move(txn));
    wake();
}

void
MemoryController::scheduleWake(Tick when)
{
    if (wakeScheduled_)
        return;
    wakeScheduled_ = true;
    // Raw-pointer fast path: this fires once per scheduler stall on
    // every channel, the queue's single heaviest event source.
    eq_.scheduleAt(
        std::max(when, eq_.now()),
        [](void *self) {
            auto *mc = static_cast<MemoryController *>(self);
            mc->wakeScheduled_ = false;
            mc->wake();
        },
        this, EventPriority::Wakeup);
}

void
MemoryController::wake()
{
    auto eligible = [this](const Transaction &txn) {
        if (hostBlocked_ && isHostRequest(txn.pkt))
            return false;
        if (cfg_.orderingMode == OrderingMode::SeqNum &&
            txn.pkt.instr.isPimCommand())
            return txn.pkt.seq == nextExpectedSeq_;
        if (cfg_.orderingMode == OrderingMode::Louvre)
            return !txn.pkt.instr.isPimCommand() ||
                   versions_.eligible(txn.pkt.instr.memGroup,
                                      txn.epoch);
        return tracker_.eligible(txn.pkt.instr.memGroup, txn.epoch);
    };
    auto row_hit = [this](std::uint16_t bank, std::uint32_t row) {
        return timing_.openRowOf(bank) == std::int64_t(row);
    };

    while (true) {
        Tick slack = Tick(cfg_.schedulerSlackCycles) * memPeriod;
        Tick horizon = eq_.now() + slack;
        if (timing_.cmdBusFreeAt() > horizon) {
            scheduleWake(timing_.cmdBusFreeAt() - slack);
            return;
        }

        // Write-drain hysteresis: once draining, keep draining
        // until the queue falls to the low watermark, avoiding a
        // bus turnaround per write.
        if (!drainingWrites_ &&
            writeQ_.size() >= cfg_.writeDrainWatermark)
            drainingWrites_ = true;
        if (drainingWrites_ && writeQ_.size() <= cfg_.writeDrainLow)
            drainingWrites_ = false;
        bool write_mode = drainingWrites_ ||
                          (readQ_.empty() && !writeQ_.empty());

        TransactionQueue *primary = write_mode ? &writeQ_ : &readQ_;
        TransactionQueue *secondary = write_mode ? &readQ_ : &writeQ_;

        auto idx = primary->pick(eligible, row_hit);
        TransactionQueue *chosen = primary;
        if (!idx) {
            idx = secondary->pick(eligible, row_hit);
            chosen = secondary;
        }
        if (!idx) {
            if (!readQ_.empty() || !writeQ_.empty())
                ++statOlBlockedPicks_;
            return; // sleep until the next arrival or unblock
        }
        issue(chosen->pop(*idx));
        notifySpace();
    }
}

void
MemoryController::issue(Transaction txn)
{
    const Packet &pkt = txn.pkt;
    std::uint32_t group = pkt.instr.memGroup;
    if (cfg_.orderingMode == OrderingMode::Louvre) {
        // Host requests are outside the louvre window discipline:
        // untagged, never held, never counted against a release.
        if (pkt.instr.isPimCommand())
            versions_.onScheduled(group, txn.epoch);
    } else {
        tracker_.onScheduled(group, txn.epoch);
    }
    if (cfg_.orderingMode == OrderingMode::SeqNum &&
        pkt.instr.isPimCommand())
        ++nextExpectedSeq_;
    statQueueLatency_.sample(double(eq_.now() - txn.arrival));

    Tick col_tick;
    if (pkt.instr.type == PimOpType::PimCompute) {
        col_tick = timing_.reserveComputeSlot(eq_.now());
    } else {
        AccessKind kind = pkt.instr.isWrite() ? AccessKind::Write
                                              : AccessKind::Read;
        Reservation res =
            timing_.reserve(kind, txn.bank, txn.row, eq_.now());
        col_tick = res.colTick;
    }
    if (observer_)
        observer_->onMcCommit(channel_, pkt, col_tick);

    if (pkt.instr.isPimCommand()) {
        ++statPimScheduled_;
        PimInstr instr = pkt.instr;
        std::uint32_t version =
            cfg_.orderingMode == OrderingMode::Louvre ? pkt.seq : 0;
        eq_.schedule(col_tick,
                     [this, instr, col_tick, version] {
                         pim_.execute(instr, col_tick, version);
                     },
                     EventPriority::DramTiming);
        // Fence ack: the request has been issued to memory in a
        // fixed position of the command stream.
        if (ackFn_) {
            Packet ack = pkt;
            eq_.schedule(eq_.now() +
                             Tick(cfg_.ackLatency) * corePeriod,
                         [this, ack = std::move(ack)] {
                             ackFn_(ack);
                         });
        }
    } else {
        ++statHostScheduled_;
        if (hostDoneFn_) {
            Tick done = pkt.instr.type == PimOpType::HostLoad
                            ? col_tick +
                                  Tick(cfg_.timing.cl) * memPeriod
                            : eq_.now();
            done += Tick(cfg_.ackLatency) * corePeriod;
            Packet resp = pkt;
            eq_.schedule(done, [this, resp = std::move(resp)] {
                hostDoneFn_(resp);
            });
        }
    }
}

void
MemoryController::notifySpace()
{
    spaceWaiters_.wakeAll();
}

bool
MemoryController::idle() const
{
    return readQ_.empty() && writeQ_.empty() &&
           readQ_.reserved() == 0 && writeQ_.reserved() == 0;
}

} // namespace olight
