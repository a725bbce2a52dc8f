#include "core/system.hh"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "sim/logging.hh"

namespace olight
{

namespace
{

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

System::System(const SystemConfig &cfg, ExecPolicy policy)
    : cfg_(cfg),
      policy_(policy),
      partitioned_(policy.simJobs > 1),
      eq_(hostHeapHint(cfg, partitioned_)),
      map_(cfg_)
{
    cfg_.validate();
    if (policy_.simJobs == 0)
        policy_.simJobs = 1;

    profiles_.resize(std::size_t(cfg_.numChannels) + 1);

    // Channel domains exist in every mode, each named by its (source
    // id, rank). Sequentially every channel queue forwards into the
    // host queue, so the canonical order is what that one heap pops;
    // the windowed driver gives each domain its own heap.
    eq_.setDomain(0, cfg_.numChannels);
    for (std::uint16_t ch = 0; ch < cfg_.numChannels; ++ch) {
        // Forwarding queues never hold events (the host queue's hint
        // covers them), so they skip the per-channel reservation.
        chEqs_.push_back(std::make_unique<EventQueue>(
            partitioned_ ? channelHeapHint(cfg_) : 1));
        chEqs_[ch]->setDomain(std::uint16_t(ch + 1), ch);
        if (!partitioned_)
            chEqs_[ch]->bindKey(&eq_, true);
    }
    if (partitioned_) {
        creditCtxs_.reserve(cfg_.numChannels);
        for (std::uint16_t ch = 0; ch < cfg_.numChannels; ++ch)
            mailboxes_.push_back(std::make_unique<DomainMailbox>());
    }

    std::vector<L2Slice *> slice_ptrs;
    for (std::uint16_t ch = 0; ch < cfg_.numChannels; ++ch) {
        // Channel-side components live on the channel's own event
        // domain; everything host-side (SMs, interconnect, host
        // stream) stays on eq_.
        EventQueue &domEq = *chEqs_[ch];
        std::string ch_str = std::to_string(ch);
        timings_.push_back(std::make_unique<ChannelTiming>(
            cfg_, "dram" + ch_str, stats_));
        pims_.push_back(std::make_unique<PimUnit>(
            cfg_, map_, mem_, ch, "pim" + ch_str, stats_));
        mcs_.push_back(std::make_unique<MemoryController>(
            cfg_, map_, ch, domEq, *timings_[ch], *pims_[ch],
            "mc" + ch_str, stats_));
        slices_.push_back(
            std::make_unique<L2Slice>(cfg_, ch, domEq, stats_));
        slices_[ch]->setDownstream(mcs_[ch].get());
        slice_ptrs.push_back(slices_[ch].get());
    }

    icnt_ = std::make_unique<Interconnect>(cfg_, eq_, slice_ptrs,
                                           stats_);

    for (std::uint32_t sm = 0; sm < cfg_.numSms; ++sm)
        sms_.push_back(std::make_unique<Sm>(cfg_, sm, eq_,
                                            icnt_->smPort(sm),
                                            stats_));

    host_ = std::make_unique<HostStream>(cfg_, map_, eq_, stats_);
    std::vector<AcceptPort *> slice_inputs;
    for (auto &slice : slices_)
        slice_inputs.push_back(&slice->input());
    host_->connect(std::move(slice_inputs));

    for (std::uint16_t ch = 0; ch < cfg_.numChannels; ++ch) {
        MemoryController *mc = mcs_[ch].get();
        if (!partitioned_) {
            mc->setAckFn([this](const Packet &pkt) {
                if (pkt.smId < sms_.size())
                    sms_[pkt.smId]->onAck(pkt);
            });
            mc->setHostDoneFn([this](const Packet &pkt) {
                host_->onDone(pkt);
            });
            continue;
        }

        // Reverse (channel -> host) edges have zero minimum latency,
        // so they cross domains through the channel's mailbox: the
        // wrapper records the effect at the channel's current tick
        // and the host replays it as an ordinary event.
        mc->setAckFn([this, ch](const Packet &pkt) {
            CrossMsg m;
            m.kind = CrossMsg::Kind::Ack;
            m.channel = ch;
            m.applyTick = chEqs_[ch]->now();
            m.stamp = chEqs_[ch]->currentStamp();
            m.prio = chEqs_[ch]->currentPrio();
            m.pkt = pkt;
            mailboxes_[ch]->push(m);
        });
        mc->setHostDoneFn([this, ch](const Packet &pkt) {
            CrossMsg m;
            m.kind = CrossMsg::Kind::HostDone;
            m.channel = ch;
            m.applyTick = chEqs_[ch]->now();
            m.stamp = chEqs_[ch]->currentStamp();
            m.prio = chEqs_[ch]->currentPrio();
            m.pkt = pkt;
            mailboxes_[ch]->push(m);
        });

        // Credit releases on the L2 input queue are host-visible
        // state (host-side senders poll tryReserve and park on the
        // waiter list), so every release defers through the mailbox
        // and takes effect at the host's own clock.
        creditCtxs_.push_back(CreditCtx{this, ch});
        slices_[ch]->input().setCreditHook(
            [](void *p) {
                auto *c = static_cast<CreditCtx *>(p);
                c->sys->onCreditRelease(c->channel);
            },
            &creditCtxs_.back());
    }

    if (cfg_.verifyOracle)
        oracle_ = std::make_unique<OrderingOracle>(cfg_);
}

void
System::enableRecording(CommitLogWriter &writer)
{
    if (!oracle_)
        olight_fatal("recording requires the ordering oracle "
                     "(SystemConfig::verifyOracle)");
    if (ran_)
        olight_fatal("enableRecording must be called before run()");
    recorder_ = std::make_unique<RecordingObserver>(writer);
}

void
System::enableTrace(std::ostream &os)
{
    if (ran_)
        olight_fatal("enableTrace must be called before run()");
    trace_ = std::make_unique<TraceWriter>(os, eq_);
}

void
System::attachObservers()
{
    // Link the chain back to front: trace -> recorder -> oracle.
    PipeObserver *links[] = {oracle_.get(), recorder_.get(),
                             trace_.get()};
    for (PipeObserver *obs : links) {
        if (!obs)
            continue;
        obs->next = hostObs_;
        hostObs_ = obs;
    }
    if (!hostObs_)
        return;
    icnt_->setObserver(hostObs_);
    for (auto &sm : sms_)
        sm->setObserver(hostObs_);
    for (std::uint16_t ch = 0; ch < cfg_.numChannels; ++ch) {
        PipeObserver *chObs = hostObs_;
        if (partitioned_) {
            // The chain is host-owned; channel-side hooks are
            // recorded in the mailbox and replayed by the host.
            relays_.push_back(std::make_unique<ObserverRelay>(
                *mailboxes_[ch], *chEqs_[ch], ch));
            chObs = relays_.back().get();
        }
        mcs_[ch]->setObserver(chObs);
        slices_[ch]->setObserver(chObs);
    }
}

void
System::loadPimKernel(std::vector<std::vector<PimInstr>> streams)
{
    if (hasKernel_)
        olight_fatal("a PIM kernel is already loaded");
    if (streams.size() != cfg_.numChannels)
        olight_fatal("need one instruction stream per channel (got ",
                     streams.size(), ", expected ", cfg_.numChannels,
                     ")");
    streams_ = std::move(streams);
    hasKernel_ = true;
    for (std::uint16_t ch = 0; ch < cfg_.numChannels; ++ch) {
        std::uint32_t sm = ch / cfg_.warpsPerSm;
        sms_.at(sm)->addWarp(ch, &streams_[ch]);
    }
}

void
System::setHostTraffic(std::vector<HostArraySpec> arrays)
{
    host_->setTraffic(std::move(arrays));
    hasHostTraffic_ = true;
}

void
System::setCoherenceFlush(std::vector<HostArraySpec> arrays)
{
    if (hasHostTraffic_)
        olight_fatal("coherence flush and concurrent host traffic "
                     "share the host engine; use one or the other");
    for (auto &spec : arrays)
        spec.write = true; // write-backs of dirty lines
    host_->setTraffic(std::move(arrays));
    hasFlush_ = true;
}

void
System::enableSampling(std::ostream &os, Tick interval)
{
    if (partitioned_)
        olight_fatal("probe sampling polls every channel in step; "
                     "run with simJobs=1");
    if (sampler_)
        olight_fatal("sampling is already enabled on this system");
    std::vector<Sampler::Probe> probes;
    for (std::uint16_t ch = 0; ch < cfg_.numChannels; ++ch) {
        std::string mc = "mc" + std::to_string(ch);
        MemoryController *mcp = mcs_[ch].get();
        probes.push_back({mc + ".readq", [mcp] {
                              return double(mcp->readQueueDepth());
                          }});
        probes.push_back({mc + ".writeq", [mcp] {
                              return double(mcp->writeQueueDepth());
                          }});
        probes.push_back({mc + ".olFlags", [mcp] {
            const OrderingTracker &t = mcp->tracker();
            double set = 0.0;
            for (std::uint32_t g = 0; g < t.numGroups(); ++g)
                set += t.flagSet(g) ? 1.0 : 0.0;
            return set;
        }});
        probes.push_back({mc + ".olPending", [mcp] {
            const OrderingTracker &t = mcp->tracker();
            double pending = 0.0;
            for (std::uint32_t g = 0; g < t.numGroups(); ++g)
                pending += double(t.pendingCount(g));
            return pending;
        }});
        std::string dram = "dram" + std::to_string(ch);
        const Scalar *hits = stats_.findScalar(dram + ".rowHits");
        const Scalar *misses = stats_.findScalar(dram + ".rowMisses");
        probes.push_back({dram + ".rowHitRate", [hits, misses] {
            double h = hits ? hits->value() : 0.0;
            double m = misses ? misses->value() : 0.0;
            return h + m > 0.0 ? h / (h + m) : 0.0;
        }});
    }
    sampler_ =
        std::make_unique<Sampler>(eq_, os, interval, std::move(probes));
    sampler_->start();
}

bool
System::stepSim(bool burst)
{
    // One heap holds every domain's events in canonical order. The
    // single-step form exists for the coherence-flush and CGA drain
    // polls, which must see every event boundary.
    if (!eq_.step())
        return false;
    if (sampler_)
        sampler_->poll();
    while (burst && eq_.step()) {
        if (sampler_)
            sampler_->poll();
    }
    return true;
}

bool
System::smsDone() const
{
    for (const auto &sm : sms_)
        if (!sm->done())
            return false;
    return true;
}

bool
System::pimDrained() const
{
    if (!smsDone())
        return false;
    for (const auto &mc : mcs_)
        if (!mc->idle())
            return false;
    for (const auto &slice : slices_)
        if (!slice->idle())
            return false;
    return icnt_->idle();
}

Tick
System::pimFinishTick() const
{
    Tick latest = 0;
    for (const auto &pim : pims_)
        latest = std::max(latest, pim->lastExecTick());
    return latest;
}

std::uint64_t
System::eventsExecuted() const
{
    std::uint64_t n = eq_.numExecuted();
    for (const auto &q : chEqs_)
        n += q->numExecuted();
    return n;
}

RunMetrics
System::run()
{
    if (ran_)
        olight_fatal("System::run() may only be called once");
    ran_ = true;
    attachObservers();
    return partitioned_ ? runPartitioned() : runSequential();
}

RunMetrics
System::runSequential()
{
    bool cga_phase =
        cfg_.arbitration == ArbitrationGranularity::Coarse &&
        hasKernel_ && hasHostTraffic_;

    if (hasFlush_) {
        // Section 5.4: flush dirty PIM operands to memory before
        // launching the PIM kernel.
        host_->start();
        // No bursting here: the host-done poll must see every event
        // boundary, or the kernel would launch at a later tick.
        while (!host_->done() && stepSim(false)) {
        }
        if (!host_->done())
            olight_panic("coherence flush did not complete");
        flushDoneTick_ = eq_.now();
    }

    if (hasKernel_) {
        for (auto &sm : sms_)
            sm->start();
    }
    if (hasHostTraffic_ && !cga_phase) {
        host_->start();
    } else if (cga_phase) {
        for (auto &mc : mcs_)
            mc->setHostBlocked(true);
    }

    // Under CGA the drain poll below must run between single events
    // (host admission happens at the exact tick the kernel drains);
    // otherwise bursts are safe — nothing external is polled.
    while (stepSim(!cga_phase)) {
        if (cga_phase && pimDrained()) {
            // PIM kernel complete: admit the host's memory traffic.
            cga_phase = false;
            pimDoneTick_ = pimFinishTick();
            for (auto &mc : mcs_)
                mc->setHostBlocked(false);
            host_->start();
        }
    }
    if (cga_phase && pimDrained()) {
        cga_phase = false;
        for (auto &mc : mcs_)
            mc->setHostBlocked(false);
        host_->start();
        while (stepSim()) {
        }
    }

    checkCompletion();
    if (oracle_)
        oracle_->finalize();
    if (pimDoneTick_ == 0)
        pimDoneTick_ = pimFinishTick();

    Tick finish = std::max(eq_.now(), pimDoneTick_);
    for (const auto &q : chEqs_)
        finish = std::max(finish, q->now());
    return collectMetrics(stats_, cfg_, finish, host_->finishTick());
}

/*
 * Channel-partitioned driver.
 *
 * Window protocol (see sim/event_domain.hh for the model):
 *
 *   next = min pending tick across all domains
 *   end  = next + lookahead            (lookahead = min host->channel
 *                                       latency: icnt traversal)
 *   1. channel phase: workers claim channels from an atomic cursor
 *      and run each channel queue to `end`. Channels only touch
 *      channel-owned state; host-bound effects go to the mailbox.
 *   2. barrier, then the host drains the mailboxes in channel order,
 *      scheduling each message on the host queue at its applyTick
 *      under the sending domain's (stamp, source id) (scheduleKeyed).
 *   3. host phase: the host queue runs to `end`. Host->channel
 *      deliveries go through pipe stages whose queues belong to the
 *      channels; those queues derive their key from the host queue
 *      (bindKey without forwarding). Every such arrival carries
 *      >= lookahead of wire latency, so it lands at or after `end` —
 *      the channels never miss an input produced inside their own
 *      window.
 *
 * Safety: within a window the host trails the channels (it consumes
 * their mailbox output), and the channels never see host work of the
 * same window. Determinism: every queue pops by the canonical key
 * (tick, priority, stamp, source, rank, sequence), so results do not
 * depend on the worker count or on scheduling interleavings. They
 * match the sequential driver except under concurrent host traffic,
 * where the barrier-time replay of step 2 can order a mailbox message
 * differently (docs/INTERNALS.md section 12).
 */
RunMetrics
System::runPartitioned()
{
    if (hasFlush_)
        olight_fatal("the coherence-flush prologue polls the host "
                     "stream per event; run with simJobs=1");
    if (cfg_.arbitration == ArbitrationGranularity::Coarse &&
        hasKernel_ && hasHostTraffic_) {
        olight_fatal("coarse-grained arbitration polls PIM drain per "
                     "event; run with simJobs=1");
    }

    if (hasKernel_) {
        for (auto &sm : sms_)
            sm->start();
    }
    if (hasHostTraffic_)
        host_->start();

    lookahead_ = Tick(cfg_.interconnectLatency) * corePeriod;
    unsigned workers =
        std::min<unsigned>(policy_.simJobs, cfg_.numChannels);

    PhaseCtx ctx;
    ctx.sys = this;
    WorkerGang gang(workers - 1, &System::channelPhaseBody, &ctx);

    while (true) {
        Tick next = minNextTick();
        if (next == maxTick)
            break;
        Tick end = next + lookahead_;
        ctx.nextChannel.store(0, std::memory_order_relaxed);
        ctx.windowEnd = end;
        gang.round();
        drainMailboxes();
        hostPhase(end);
        ++windows_;
    }

    // Harvest the allocation counters into the profiles.
    profiles_[0].heapRegrows = eq_.heapRegrows();
    for (std::uint16_t ch = 0; ch < cfg_.numChannels; ++ch) {
        profiles_[ch + 1].heapRegrows = chEqs_[ch]->heapRegrows();
        profiles_[ch + 1].arenaGrows =
            mailboxes_[ch]->arena().grows();
    }

    checkCompletion();
    if (oracle_)
        oracle_->finalize();
    pimDoneTick_ = pimFinishTick();

    Tick finish = std::max(eq_.now(), pimDoneTick_);
    for (const auto &q : chEqs_)
        finish = std::max(finish, q->now());
    return collectMetrics(stats_, cfg_, finish, host_->finishTick());
}

Tick
System::minNextTick() const
{
    Tick next = maxTick;
    if (!eq_.empty())
        next = eq_.nextTick();
    for (const auto &q : chEqs_)
        if (!q->empty())
            next = std::min(next, q->nextTick());
    return next;
}

void
System::channelPhaseBody(void *p)
{
    auto *ctx = static_cast<PhaseCtx *>(p);
    System *sys = ctx->sys;
    for (;;) {
        std::uint32_t ch = ctx->nextChannel.fetch_add(
            1, std::memory_order_relaxed);
        if (ch >= sys->cfg_.numChannels)
            return;
        sys->runChannelWindow(std::uint16_t(ch), ctx->windowEnd);
    }
}

void
System::runChannelWindow(std::uint16_t ch, Tick end)
{
    EventQueue &eq = *chEqs_[ch];
    DomainMailbox &box = *mailboxes_[ch];
    DomainProfile &prof = profiles_[std::size_t(ch) + 1];

    // The previous window's messages were consumed during the host
    // phase (every applyTick lies inside that window), so the arena
    // can be recycled wholesale here.
    box.reset();

    bool inWindow = !eq.empty() && eq.nextTick() < end;
    std::uint64_t before = eq.numExecuted();

    if (policy_.profileDomains) {
        auto t0 = std::chrono::steady_clock::now();
        eq.runUntil(end);
        prof.execSeconds += secondsSince(t0);
    } else {
        eq.runUntil(end);
    }

    prof.events += eq.numExecuted() - before;
    ++prof.windows;
    if (!inWindow && !eq.empty())
        ++prof.stallWindows;
    prof.msgsOut += box.size();
}

void
System::drainMailboxes()
{
    for (std::uint16_t ch = 0; ch < cfg_.numChannels; ++ch) {
        DomainMailbox &box = *mailboxes_[ch];
        for (std::size_t i = 0; i < box.size(); ++i) {
            const CrossMsg *m = &box[i];
            // The message outlives the callback: arena storage is
            // recycled only at the *next* window's channel phase,
            // after every applyTick of this window has executed.
            eq_.scheduleKeyed(
                m->applyTick, [this, m] { applyCrossMsg(*m); },
                m->prio, m->stamp, std::uint16_t(ch + 1));
        }
    }
}

void
System::hostPhase(Tick end)
{
    // While the host runs, channel queues are quiescent; key any
    // host->channel arrival by the host tick that produced it.
    for (auto &q : chEqs_)
        q->bindKey(&eq_, false);

    DomainProfile &prof = profiles_[0];
    bool inWindow = !eq_.empty() && eq_.nextTick() < end;
    std::uint64_t before = eq_.numExecuted();

    if (policy_.profileDomains) {
        auto t0 = std::chrono::steady_clock::now();
        eq_.runUntil(end);
        prof.execSeconds += secondsSince(t0);
    } else {
        eq_.runUntil(end);
    }

    prof.events += eq_.numExecuted() - before;
    ++prof.windows;
    if (!inWindow && !eq_.empty())
        ++prof.stallWindows;

    for (auto &q : chEqs_)
        q->bindKey(nullptr, false);
}

void
System::applyCrossMsg(const CrossMsg &m)
{
    switch (m.kind) {
    case CrossMsg::Kind::Ack:
        if (m.pkt.smId < sms_.size())
            sms_[m.pkt.smId]->onAck(m.pkt);
        return;
    case CrossMsg::Kind::HostDone:
        host_->onDone(m.pkt);
        return;
    case CrossMsg::Kind::CreditWake:
        slices_[m.channel]->input().applyCreditRelease();
        return;
    case CrossMsg::Kind::StageEgress:
        hostObs_->onStageEgress(*m.name, m.pkt, m.a, m.b);
        return;
    case CrossMsg::Kind::OlReplicate:
        hostObs_->onOlReplicate(*m.name, m.pkt, m.extra);
        return;
    case CrossMsg::Kind::OlMergeIn:
        hostObs_->onOlMergeIn(*m.name, m.extra, m.pkt);
        return;
    case CrossMsg::Kind::OlMergeOut:
        hostObs_->onOlMergeOut(*m.name, m.pkt, m.extra);
        return;
    case CrossMsg::Kind::McAdmit:
        hostObs_->onMcAdmit(m.channel, m.pkt);
        return;
    case CrossMsg::Kind::McOrderLight:
        hostObs_->onMcOrderLight(m.channel, m.pkt);
        return;
    case CrossMsg::Kind::McCommit:
        hostObs_->onMcCommit(m.channel, m.pkt, m.a);
        return;
    }
    olight_panic("unhandled cross-domain message kind");
}

void
System::onCreditRelease(std::uint16_t ch)
{
    CrossMsg m;
    m.kind = CrossMsg::Kind::CreditWake;
    m.channel = ch;
    m.applyTick = chEqs_[ch]->now();
    m.stamp = chEqs_[ch]->currentStamp();
    m.prio = chEqs_[ch]->currentPrio();
    mailboxes_[ch]->push(m);
}

void
System::writeDomainProfile(std::ostream &os) const
{
    writeDomainProfileJson(os, lookahead_, windows_, profiles_);
}

void
System::checkCompletion() const
{
    std::ostringstream why;
    bool stuck = false;
    for (std::size_t i = 0; i < sms_.size(); ++i) {
        if (!sms_[i]->done()) {
            stuck = true;
            why << " sm" << i << " not done;";
        }
    }
    if ((hasHostTraffic_ || hasFlush_) && !host_->done()) {
        stuck = true;
        why << " host stream not done;";
    }
    for (std::size_t ch = 0; ch < mcs_.size(); ++ch) {
        if (!mcs_[ch]->idle()) {
            stuck = true;
            why << " mc" << ch << " not idle;";
        }
        if (!slices_[ch]->idle()) {
            stuck = true;
            why << " l2s" << ch << " not idle;";
        }
    }
    if (stuck)
        olight_panic("simulation deadlocked:", why.str());
}

} // namespace olight
