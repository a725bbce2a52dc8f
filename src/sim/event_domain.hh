/**
 * @file
 * Channel-partitioned event execution: the pieces a System composes
 * to advance per-channel event domains in parallel.
 *
 * The system's natural sharding — independent HBM channels behind
 * per-channel memory controllers — becomes a domain decomposition:
 * domain 0 (the "host" domain) owns the SMs, operand collectors,
 * interconnect injection queues and the host stream; domain 1+ch
 * owns channel ch's L2 slice, memory controller, DRAM timing engine
 * and PIM unit. Channels never talk to each other; they only
 * exchange with the host domain, and every host->channel edge
 * carries at least the interconnect traversal latency. That minimum
 * latency is the conservative lookahead: within a window
 * [W, W + lookahead) the channel domains can run to the window edge
 * without ever missing a host-side input, because anything the host
 * produces inside the window lands at or after the edge.
 *
 * Execution alternates phases per window (channels in parallel,
 * barrier, host serially) because the reverse edges — MC acks, host
 * completions, credit releases on the L2 input queues — have *zero*
 * minimum latency: the host trails the channels inside each window
 * and consumes their outputs through mailboxes, so it observes every
 * channel effect at the exact tick a global queue would have.
 *
 * Determinism: mailbox messages carry the sending event's
 * (stamp, priority) and are drained in channel order at the barrier,
 * each replayed under its channel's source id; the host queue pops
 * them by the canonical (tick, priority, stamp, source id, domain
 * rank, sequence) key — see sim/event_queue.hh — so results are
 * bit-identical for every worker count, which the golden
 * byte-identity tests enforce. They also match the sequential
 * driver, except in runs with concurrent host traffic
 * (docs/INTERNALS.md section 12).
 *
 * Memory discipline: each mailbox draws its storage from a
 * per-domain Arena reset at the barrier, per-domain counters are
 * padded to the destructive-interference size, and the worker gang
 * reuses its threads with a generation barrier — no allocation, no
 * false sharing on the steady-state path.
 */

#ifndef OLIGHT_SIM_EVENT_DOMAIN_HH
#define OLIGHT_SIM_EVENT_DOMAIN_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <new>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "core/pim_isa.hh"
#include "sim/arena.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"
#include "verify/observer.hh"

namespace olight
{

/**
 * Destructive-interference padding for per-domain hot counters.
 * Pinned to 64 rather than std::hardware_destructive_interference_
 * size: the library constant varies with -mtune and compiler
 * version (GCC warns it is unsuitable for ABI-visible types), while
 * 64 B is the actual line size of every x86-64 and the vast
 * majority of AArch64 parts this simulator runs on.
 */
inline constexpr std::size_t kInterferenceSize = 64;

/**
 * Execution policy of one System run — deliberately *not* part of
 * SystemConfig: worker counts never change simulated results, so
 * they must stay out of the canonical serialization and the
 * fingerprint (the daemon's cache hits across jobs values).
 */
struct ExecPolicy
{
    /** Intra-run event-execution workers: 1 = the classic
     *  single-queue path, N > 1 = channel-partitioned domains
     *  advanced by min(N, channels) workers. */
    unsigned simJobs = 1;

    /** Collect per-domain self-profiling (execution time, lookahead
     *  stalls, mailbox traffic) for --profile-domains output. */
    bool profileDomains = false;
};

/** Self-profiling counters of one event domain (padded: each domain
 *  bumps its own copy from its own worker thread). */
struct alignas(kInterferenceSize) DomainProfile
{
    double execSeconds = 0.0;      ///< wall time inside the domain
    std::uint64_t events = 0;      ///< events the domain executed
    std::uint64_t windows = 0;     ///< windows the domain ran in
    std::uint64_t stallWindows = 0; ///< windows with pending work but
                                    ///< nothing inside the lookahead
    std::uint64_t msgsOut = 0;     ///< mailbox messages sent
    std::uint64_t arenaGrows = 0;  ///< arena chunk acquisitions
    std::uint64_t heapRegrows = 0; ///< event-heap regrows
};

/** One cross-domain handoff, recorded in a channel's mailbox. */
struct CrossMsg
{
    enum class Kind : std::uint8_t
    {
        Ack,          ///< MC fence ack -> Sm::onAck
        HostDone,     ///< host request completion -> HostStream
        CreditWake,   ///< L2 input credit release (deferred slot free)
        StageEgress,  ///< observer relay: PipeStage onStageEgress
        OlReplicate,  ///< observer relay: divergence FSM
        OlMergeIn,    ///< observer relay: convergence FSM input
        OlMergeOut,   ///< observer relay: convergence FSM output
        McAdmit,      ///< observer relay: MC queue admit
        McOrderLight, ///< observer relay: OL marker at the MC
        McCommit,     ///< observer relay: command-bus commit
    };

    Kind kind;
    std::uint16_t channel = 0;
    Tick applyTick = 0; ///< tick the effect takes place at the host
    Tick stamp = 0;     ///< originating event's stamp (merge key)
    EventPriority prio =
        EventPriority::Default; ///< originating event's priority
    const std::string *name = nullptr; ///< stage/point (stable ref)
    Tick a = 0;         ///< hook begin tick / colTick
    Tick b = 0;         ///< hook end tick
    std::uint32_t extra = 0; ///< copies / path index
    Packet pkt;
};

/**
 * Single-producer mailbox of one channel domain, drained by the
 * coordinator at the window barrier. No locking: the producer only
 * appends during the channel phase, the consumer only reads between
 * phases, and the gang barrier orders the two. Message storage comes
 * from the domain's arena and dies at the barrier.
 */
class DomainMailbox
{
  public:
    DomainMailbox() : msgs_(arena_) {}

    CrossMsg &push(const CrossMsg &msg) { return msgs_.push_back(msg); }

    std::size_t size() const { return msgs_.size(); }
    bool empty() const { return msgs_.empty(); }
    const CrossMsg &operator[](std::size_t i) const { return msgs_[i]; }

    /** Drop this window's messages (barrier-time wholesale free). */
    void
    reset()
    {
        msgs_.clear();
        arena_.reset();
    }

    const Arena &arena() const { return arena_; }

  private:
    Arena arena_;
    ArenaVector<CrossMsg> msgs_;
};

/**
 * Pipe observer that forwards channel-side hooks into the channel's
 * mailbox instead of touching the host-owned observer chain (packet
 * tracer, commit-log recorder, OrderingOracle) from a worker thread.
 * The host replays the hooks into the chain's head in deterministic
 * order when it drains the mailbox. Stage and point names are passed
 * by pointer: they are stable members of the observed components.
 */
class ObserverRelay final : public PipeObserver
{
  public:
    ObserverRelay(DomainMailbox &box, const EventQueue &eq,
                  std::uint16_t channel)
        : box_(box), eq_(eq), channel_(channel)
    {
    }

    void
    onStageEgress(const std::string &stage, const Packet &pkt,
                  Tick begin, Tick end) override
    {
        CrossMsg m = base(CrossMsg::Kind::StageEgress, pkt);
        m.name = &stage;
        m.a = begin;
        m.b = end;
        box_.push(m);
    }

    void
    onOlReplicate(const std::string &point, const Packet &pkt,
                  std::uint32_t copies) override
    {
        CrossMsg m = base(CrossMsg::Kind::OlReplicate, pkt);
        m.name = &point;
        m.extra = copies;
        box_.push(m);
    }

    void
    onOlMergeIn(const std::string &point, std::uint32_t path,
                const Packet &pkt) override
    {
        CrossMsg m = base(CrossMsg::Kind::OlMergeIn, pkt);
        m.name = &point;
        m.extra = path;
        box_.push(m);
    }

    void
    onOlMergeOut(const std::string &point, const Packet &pkt,
                 std::uint32_t copies) override
    {
        CrossMsg m = base(CrossMsg::Kind::OlMergeOut, pkt);
        m.name = &point;
        m.extra = copies;
        box_.push(m);
    }

    void
    onMcAdmit(std::uint16_t, const Packet &pkt) override
    {
        box_.push(base(CrossMsg::Kind::McAdmit, pkt));
    }

    void
    onMcOrderLight(std::uint16_t, const Packet &pkt) override
    {
        box_.push(base(CrossMsg::Kind::McOrderLight, pkt));
    }

    void
    onMcCommit(std::uint16_t, const Packet &pkt, Tick colTick) override
    {
        CrossMsg m = base(CrossMsg::Kind::McCommit, pkt);
        m.a = colTick;
        box_.push(m);
    }

  private:
    CrossMsg
    base(CrossMsg::Kind kind, const Packet &pkt) const
    {
        CrossMsg m;
        m.kind = kind;
        m.channel = channel_;
        m.applyTick = eq_.now();
        m.stamp = eq_.currentStamp();
        m.prio = eq_.currentPrio();
        m.pkt = pkt;
        return m;
    }

    DomainMailbox &box_;
    const EventQueue &eq_; ///< the channel domain's clock
    std::uint16_t channel_;
};

/**
 * Reusable worker gang for the channel phase.
 *
 * The shared ThreadPool's job queue allocates a std::function per
 * submission — fine for sweep points that run for seconds, fatal for
 * a phase barrier crossed thousands of times per run. The gang keeps
 * its threads parked on a generation counter: round() publishes a
 * new generation, every worker (plus the calling thread) runs the
 * bound body once, and round() returns when all are done. Nothing is
 * allocated after construction.
 */
class WorkerGang
{
  public:
    using Body = void (*)(void *);

    /** @param extraWorkers gang threads beyond the caller. */
    WorkerGang(unsigned extraWorkers, Body body, void *ctx);
    ~WorkerGang();

    WorkerGang(const WorkerGang &) = delete;
    WorkerGang &operator=(const WorkerGang &) = delete;

    /** Run the body once on every participant; blocks until done. */
    void round();

    unsigned participants() const
    {
        return unsigned(threads_.size()) + 1;
    }

  private:
    void workerLoop();

    Body body_;
    void *ctx_;
    std::vector<std::thread> threads_;
    std::mutex mutex_;
    std::condition_variable startCv_;
    std::condition_variable doneCv_;
    std::uint64_t generation_ = 0;
    unsigned running_ = 0;
    bool stop_ = false;
};

/** JSON rendering of per-domain profiles (--profile-domains):
 *  {"lookahead_ticks":..,"windows":..,"domains":[{...},...]}. */
void writeDomainProfileJson(std::ostream &os, Tick lookahead,
                            std::uint64_t windows,
                            const std::vector<DomainProfile> &profiles);

} // namespace olight

#endif // OLIGHT_SIM_EVENT_DOMAIN_HH
