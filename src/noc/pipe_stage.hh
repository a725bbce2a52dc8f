/**
 * @file
 * A generic queued stage of the memory pipe.
 *
 * Models one FIFO queue of the GPU memory pipe (LDST queue,
 * interconnect input, L2 sub-partition queue, L2-to-DRAM queue...):
 * bounded capacity with credit-based acceptance, one packet serviced
 * per core clock cycle, an optional deterministic per-packet service
 * jitter (this is the mechanism that reorders requests *across*
 * parallel stages, e.g. L2 sub-partitions), and a wire latency added
 * when forwarding to the downstream port.
 *
 * Within a single stage order is always preserved (it is a FIFO);
 * reordering only arises from path divergence, which is exactly the
 * situation OrderLight's copy-and-merge FSM (Figure 9) handles.
 *
 * The stage is a template over its concrete downstream type so the
 * statically wired pipe interior forwards with direct (inlinable)
 * calls; it still implements AcceptPort on its *receiving* side so
 * polymorphic producers (SMs, the host stream, tests) can feed it.
 * Queued entries live in a fixed ring sized at capacity — the credit
 * protocol guarantees occupancy never exceeds outstanding credits —
 * so the steady state allocates nothing.
 */

#ifndef OLIGHT_NOC_PIPE_STAGE_HH
#define OLIGHT_NOC_PIPE_STAGE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "noc/forwarder.hh"
#include "noc/port.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/stats.hh"
#include "verify/observer.hh"

namespace olight
{

/** Construction parameters shared by every PipeStage instantiation. */
struct PipeParams
{
    std::uint32_t capacity = 64;
    Tick wireLatency = 0;      ///< added when forwarding downstream
    std::uint32_t jitterCycles = 0; ///< 0..j-1 extra service cycles
    std::uint64_t jitterSalt = 0;   ///< keys the per-packet jitter
};

/** One bounded FIFO queue with rate-1 service and wire latency. */
template <class Downstream = AcceptPort>
class PipeStage final : public AcceptPort
{
  public:
    using Params = PipeParams;

    PipeStage(EventQueue &eq, std::string name, const Params &params,
              StatSet &stats)
        : eq_(eq),
          name_(std::move(name)),
          params_(params),
          statAccepted_(stats.scalar(name_ + ".accepted",
                                     "packets accepted")),
          statForwarded_(stats.scalar(name_ + ".forwarded",
                                      "packets forwarded")),
          statOccupancy_(stats.distribution(
              name_ + ".occupancy", "queue occupancy at arrival", 0.0,
              double(params.capacity ? params.capacity : 1), 16))
    {
        if (params_.capacity == 0)
            olight_fatal("pipe stage ", name_, " needs capacity > 0");
        ring_.resize(params_.capacity);
    }

    void
    setDownstream(Downstream *port)
    {
        fwd_.bind(
            *port,
            [](void *self) {
                static_cast<PipeStage *>(self)->scheduleService();
            },
            this);
    }

    /** Attach a pipe observer: onStageEgress fires per serviced
     *  packet (nullptr disables). */
    void setObserver(PipeObserver *obs) { observer_ = obs; }

    /**
     * Domain-boundary credit hook (partitioned execution): when set,
     * *every* credit release calls `hook(ctx)` instead of freeing the
     * slot. The hook side posts a mailbox message carrying the
     * release tick; the domain that owns the *senders* replays it via
     * applyCreditRelease() when its own clock reaches that tick. The
     * deferral is not just about waking parked waiters: producers
     * also poll tryReserve(), and a release performed eagerly while
     * this stage's domain runs ahead of theirs would let them observe
     * — and act on — future queue state, diverging from the global
     * sequential order.
     */
    void
    setCreditHook(void (*hook)(void *), void *ctx)
    {
        creditHook_ = hook;
        creditCtx_ = ctx;
    }

    /** The deferred half of the credit-hook protocol: free the slot
     *  and fire parked space waiters, at the sender domain's clock. */
    void
    applyCreditRelease()
    {
        if (reserved_ == 0)
            olight_panic("pipe stage ", name_, ": credit underflow");
        --reserved_;
        spaceWaiters_.wakeAll();
    }

    // AcceptPort (receiving side)
    bool
    tryReserve(const Packet &) override
    {
        if (reserved_ >= params_.capacity)
            return false;
        ++reserved_;
        return true;
    }

    void
    deliver(Packet pkt, Tick when) override
    {
        eq_.schedule(when, [this, pkt = std::move(pkt)]() mutable {
            Tick ready = eq_.now();
            if (params_.jitterCycles > 0 && !pkt.isOrderLight()) {
                ready += Tick(jitter(params_.jitterSalt, pkt.id,
                                     params_.jitterCycles)) *
                         corePeriod;
            }
            statOccupancy_.sample(double(count_));
            ++statAccepted_;
            push(Entry{std::move(pkt), ready, eq_.now()});
            scheduleService();
        });
    }

    void
    enqueueWaiter(const Packet &, PortWaiter &w) override
    {
        spaceWaiters_.enqueue(w);
    }

    std::uint32_t occupancy() const { return count_; }

    /** Whether tryReserve() would currently succeed (used by the
     *  divergence FSM to reserve all sub-paths atomically). */
    bool hasCredit() const { return reserved_ < params_.capacity; }

    bool idle() const { return count_ == 0 && reserved_ == 0; }

    /** Space wakeups this stage received from its downstream. */
    std::uint64_t downstreamWakeups() const { return fwd_.wakeups(); }

    const std::string &name() const { return name_; }

  private:
    struct Entry
    {
        Packet pkt;
        Tick readyAt = 0;   ///< arrival + jitter; earliest service
        Tick arrivedAt = 0; ///< arrival tick (egress hook begin)
    };

    Entry &front() { return ring_[head_]; }

    void
    push(Entry e)
    {
        // reserved_ <= capacity and every queued entry holds a
        // credit, so the ring can never wrap onto live entries.
        std::uint32_t slot = head_ + count_;
        if (slot >= params_.capacity)
            slot -= params_.capacity;
        ring_[slot] = std::move(e);
        ++count_;
    }

    void
    pop()
    {
        if (++head_ == params_.capacity)
            head_ = 0;
        --count_;
    }

    void
    scheduleService()
    {
        if (serviceScheduled_ || fwd_.waiting() || count_ == 0)
            return;
        Tick when = std::max(front().readyAt,
                             lastServiceTick_ + corePeriod);
        when = coreClock.nextEdge(std::max(when, eq_.now()));
        serviceScheduled_ = true;
        eq_.schedule(when, [this] { service(); });
    }

    void
    service()
    {
        serviceScheduled_ = false;
        if (count_ == 0 || fwd_.waiting())
            return;

        Entry &head = front();
        if (!fwd_.bound())
            olight_panic("pipe stage ", name_, " has no downstream");

        // Parks the embedded waiter on failure; the wakeup re-enters
        // scheduleService().
        if (!fwd_.tryReserve(head.pkt))
            return;

        if (observer_)
            observer_->onStageEgress(name_, head.pkt, head.arrivedAt,
                                     eq_.now());
        fwd_.deliver(std::move(head.pkt),
                     eq_.now() + params_.wireLatency);
        pop();
        lastServiceTick_ = eq_.now();
        ++statForwarded_;
        releaseCredit();
        scheduleService();
    }

    void
    releaseCredit()
    {
        if (creditHook_) {
            creditHook_(creditCtx_);
            return;
        }
        applyCreditRelease();
    }

    EventQueue &eq_;
    std::string name_;
    Params params_;
    Forwarder<Downstream> fwd_;
    PipeObserver *observer_ = nullptr;
    void (*creditHook_)(void *) = nullptr;
    void *creditCtx_ = nullptr;

    std::vector<Entry> ring_;      ///< fixed ring of `capacity` slots
    std::uint32_t head_ = 0;
    std::uint32_t count_ = 0;
    std::uint32_t reserved_ = 0;   ///< credits handed out (incl. queued)
    Tick lastServiceTick_ = 0;
    bool serviceScheduled_ = false;
    WaiterList spaceWaiters_;

    Scalar &statAccepted_;
    Scalar &statForwarded_;
    Distribution &statOccupancy_;
};

} // namespace olight

#endif // OLIGHT_NOC_PIPE_STAGE_HH
