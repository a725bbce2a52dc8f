/**
 * @file
 * Top-level simulated system: a GPU host (SMs, operand collectors),
 * the memory pipe (interconnect, L2 slices with sub-partitions and
 * copy-and-merge FSMs), per-channel memory controllers with
 * OrderLight tracking, the HBM timing model, and functional PIM
 * units — the full Figure 6 plus the host-execution baseline.
 */

#ifndef OLIGHT_CORE_SYSTEM_HH
#define OLIGHT_CORE_SYSTEM_HH

#include <atomic>
#include <memory>
#include <ostream>
#include <vector>

#include "core/config.hh"
#include "core/metrics.hh"
#include "core/pim_isa.hh"
#include "dram/address_map.hh"
#include "dram/channel_timing.hh"
#include "dram/storage.hh"
#include "gpu/host_stream.hh"
#include "gpu/sm.hh"
#include "memctrl/memory_controller.hh"
#include "noc/interconnect.hh"
#include "noc/l2_slice.hh"
#include "pim/pim_unit.hh"
#include "sim/event_domain.hh"
#include "sim/event_queue.hh"
#include "sim/sampler.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"
#include "verify/log_events.hh"
#include "verify/oracle.hh"

namespace olight
{

/** A complete host + PIM-enabled-memory system. */
class System
{
  public:
    /**
     * @param policy intra-run execution policy. simJobs > 1 selects
     * channel-partitioned execution: each channel's L2 slice, memory
     * controller, DRAM timing engine and PIM unit live in their own
     * event domain advanced in parallel under conservative lookahead
     * (see sim/event_domain.hh); results are bit-identical for every
     * worker count, and to simJobs=1 except in runs with concurrent
     * host traffic (docs/INTERNALS.md section 12). The policy never
     * enters SystemConfig (fingerprints must not depend on worker
     * counts).
     */
    explicit System(const SystemConfig &cfg, ExecPolicy policy = {});
    System(const System &) = delete;
    System &operator=(const System &) = delete;

    const SystemConfig &config() const { return cfg_; }
    SparseMemory &mem() { return mem_; }
    const AddressMap &map() const { return map_; }
    StatSet &stats() { return stats_; }
    const StatSet &stats() const { return stats_; }
    EventQueue &eq() { return eq_; }

    /** Whether the channel-partitioned driver will be / was used. */
    bool partitioned() const { return partitioned_; }

    /** Events executed across every domain queue (equals the host
     *  queue's count in sequential mode). */
    std::uint64_t eventsExecuted() const;

    /**
     * Load the PIM kernel: one instruction stream per memory
     * channel. Each channel's stream is bound to one dedicated warp
     * (Section 5.4's synchronization-free model).
     */
    void loadPimKernel(std::vector<std::vector<PimInstr>> streams);

    /** Background / baseline host traffic. */
    void setHostTraffic(std::vector<HostArraySpec> arrays);

    /**
     * Stream a Chrome trace_event file into @p os with a span per
     * pipeline stage of every packet's life (SM collect ->
     * interconnect -> L2 -> MC queue -> scheduled), ready for
     * Perfetto / chrome://tracing. The tracer heads the observer
     * chain, so it works under every driver. Call before run().
     */
    void enableTrace(std::ostream &os);

    /**
     * Sample per-channel observability probes (read/write queue
     * depth, OrderLight flags and pending counts, row-hit rate)
     * every @p interval ticks into @p os as time-series CSV. Call
     * before run().
     */
    void enableSampling(std::ostream &os, Tick interval);

    /** The sampler, when sampling is enabled (else nullptr). */
    const Sampler *sampler() const { return sampler_.get(); }

    /** The ordering oracle, when cfg.verifyOracle is set (else
     *  nullptr). Finalized automatically at the end of run(). */
    const OrderingOracle *oracle() const { return oracle_.get(); }

    /**
     * Tee every PipeObserver hook into @p writer (then on to the
     * oracle, which recording requires — cfg.verifyOracle must be
     * set). Call before run(). The recorder always runs on the host
     * thread: under the partitioned driver, channel-side hooks reach
     * it through the mailbox relays, so a multi-worker recording is
     * race-free and byte-identical for every worker count > 1. Its
     * verdict matches a simJobs=1 recording; the record order may
     * not (docs/INTERNALS.md section 13).
     */
    void enableRecording(CommitLogWriter &writer);

    /**
     * Model the coherence flush of Section 5.4: before the PIM
     * kernel starts, dirty lines of the PIM operands are written
     * back through the memory system (and host copies invalidated,
     * which is free). Mutually exclusive with setHostTraffic().
     */
    void setCoherenceFlush(std::vector<HostArraySpec> arrays);

    /** When the pre-kernel flush completed (0 if none ran). */
    Tick flushDoneTick() const { return flushDoneTick_; }

    /**
     * Run to completion and harvest metrics. Under coarse-grained
     * arbitration (CGA) with both a PIM kernel and host traffic, the
     * host stream is blocked until the PIM kernel finishes.
     */
    RunMetrics run();

    /** Last tick at which any PIM unit executed a command. */
    Tick pimFinishTick() const;

    /** Per-domain self-profiling (index 0 = host domain, 1+ch =
     *  channel ch). Populated by a partitioned run; counters are
     *  always filled, wall-clock timing only when
     *  ExecPolicy::profileDomains was set. */
    const std::vector<DomainProfile> &domainProfiles() const
    {
        return profiles_;
    }

    /** JSON rendering of the domain profiles (--profile-domains). */
    void writeDomainProfile(std::ostream &os) const;

    HostStream &hostStream() { return *host_; }

    PimUnit &pimUnit(std::uint16_t channel)
    {
        return *pims_.at(channel);
    }
    MemoryController &controller(std::uint16_t channel)
    {
        return *mcs_.at(channel);
    }

  private:
    struct PhaseCtx
    {
        System *sys = nullptr;
        std::atomic<std::uint32_t> nextChannel{0};
        Tick windowEnd = 0;
    };
    struct CreditCtx
    {
        System *sys = nullptr;
        std::uint16_t channel = 0;
    };

    void attachObservers();
    bool smsDone() const;
    bool pimDrained() const;
    bool stepSim(bool burst = true);
    void checkCompletion() const;

    // Partitioned driver (core/system.cc has the window protocol).
    RunMetrics runSequential();
    RunMetrics runPartitioned();
    Tick minNextTick() const;
    static void channelPhaseBody(void *ctx);
    void runChannelWindow(std::uint16_t ch, Tick end);
    void drainMailboxes();
    void hostPhase(Tick end);
    void applyCrossMsg(const CrossMsg &msg);
    void onCreditRelease(std::uint16_t ch);

    /** Event-heap reservation: channels x banks bounds the number of
     *  concurrently pending DRAM-side events; x8 covers the pipe
     *  stages and wakeups layered on top plus the window-barrier
     *  spike, when every channel's mailbox replays into the host
     *  queue at once (the no-regrow tests pin this). A sequential
     *  host queue also holds the events its channel queues forward,
     *  so it reserves their share too. */
    static std::size_t
    channelHeapHint(const SystemConfig &cfg)
    {
        return std::size_t(cfg.banksPerChannel) * 16;
    }
    static std::size_t
    hostHeapHint(const SystemConfig &cfg, bool partitioned)
    {
        std::size_t n =
            std::size_t(cfg.numChannels) * cfg.banksPerChannel * 8;
        if (!partitioned)
            n += std::size_t(cfg.numChannels) * channelHeapHint(cfg);
        return n;
    }

    SystemConfig cfg_;
    ExecPolicy policy_;
    bool partitioned_ = false;
    EventQueue eq_; ///< host-domain queue (SMs, icnt, host stream)
    StatSet stats_;
    SparseMemory mem_;
    AddressMap map_;

    std::vector<std::unique_ptr<EventQueue>> chEqs_;
    std::vector<std::unique_ptr<DomainMailbox>> mailboxes_;
    std::vector<std::unique_ptr<ObserverRelay>> relays_;
    std::vector<CreditCtx> creditCtxs_;
    std::vector<DomainProfile> profiles_;
    Tick lookahead_ = 0;
    std::uint64_t windows_ = 0;

    std::vector<std::unique_ptr<ChannelTiming>> timings_;
    std::vector<std::unique_ptr<PimUnit>> pims_;
    std::vector<std::unique_ptr<MemoryController>> mcs_;
    std::vector<std::unique_ptr<L2Slice>> slices_;
    std::unique_ptr<Interconnect> icnt_;
    std::vector<std::unique_ptr<Sm>> sms_;
    std::unique_ptr<HostStream> host_;

    std::unique_ptr<TraceWriter> trace_;
    std::unique_ptr<Sampler> sampler_;
    std::unique_ptr<OrderingOracle> oracle_;
    std::unique_ptr<RecordingObserver> recorder_;
    /** Head of the observer chain (trace -> recorder -> oracle);
     *  mailbox-relayed hooks land here, on the host thread. */
    PipeObserver *hostObs_ = nullptr;
    std::vector<std::vector<PimInstr>> streams_;
    bool hasKernel_ = false;
    bool hasHostTraffic_ = false;
    bool hasFlush_ = false;
    bool ran_ = false;
    Tick pimDoneTick_ = 0;
    Tick flushDoneTick_ = 0;
};

} // namespace olight

#endif // OLIGHT_CORE_SYSTEM_HH
