/**
 * @file
 * Discrete-event simulation core.
 *
 * Every System owns one EventQueue per channel domain plus one for
 * the host domain. Events are callbacks scheduled at absolute ticks
 * and pop in the canonical key order
 *
 *   (tick, priority, stamp, source id, domain rank, sequence)
 *
 * where the stamp is the tick of the scheduling context, the source
 * id names the domain whose code scheduled the event, and the domain
 * rank is the fixed cross-domain tie-break (channels in channel
 * order, host last). The sequential driver forwards every channel
 * queue into the host queue (bindKey), so the canonical order is
 * simply what that one heap pops. The windowed driver keeps one heap
 * per domain, advances the channel queues in conservative lookahead
 * windows, and replays cross-domain handoffs with the key they
 * carried through the mailboxes (scheduleKeyed).
 * docs/INTERNALS.md section 12 has the determinism argument.
 *
 * The hot path is allocation-free. Callbacks are small-buffer
 * optimized (sim/callback.hh) and never sift with the pending set:
 * each waits in a slot of a callback table, reused through a free
 * list, and step() moves it out of its slot once, just before it
 * runs. The pending set is a hand-rolled 4-ary heap of 32-byte keys
 * (tick, two packed order words, slot index) over a reserved vector
 * — shallower than a binary heap and sifted with moves into a hole
 * instead of element swaps — so a sift copies four plain words per
 * level instead of relocating a capture buffer. The six-field
 * canonical key is packed into the two order words (Key::order /
 * order2), so a heap compare is at most three branches over 24
 * contiguous bytes. Keys are unique (the sequence field), so the pop
 * order is fully determined by them. The initial reservation is a
 * constructor parameter (the System sizes it from the configuration:
 * channels x banks, the natural bound on concurrently pending DRAM
 * events); mid-run regrows of the key heap are counted and exposed.
 */

#ifndef OLIGHT_SIM_EVENT_QUEUE_HH
#define OLIGHT_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <vector>

#include "sim/callback.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace olight
{

/** Scheduling priorities for same-tick events (lower runs first). */
enum class EventPriority : int
{
    DramTiming = 0,   ///< DRAM command issue / PIM execution
    Default = 10,     ///< most component callbacks
    Wakeup = 20,      ///< scheduler/retry wakeups, run after arrivals
    Stats = 30,       ///< end-of-quantum statistics
};

/**
 * The event queue of one execution domain.
 *
 * Components capture a reference and schedule closures; a queue is
 * only ever advanced by one thread at a time (the phase barriers in
 * the partitioned driver guarantee exclusivity), so no locking is
 * required.
 *
 * Every event's key comes from one of three places: the queue's own
 * (clock, source id) by default, a bound key queue (bindKey), or an
 * explicit (stamp, source) pair (scheduleKeyed). The event always
 * carries this queue's domain rank.
 */
class EventQueue
{
  public:
    using Callback = EventCallback;
    using RawFn = EventCallback::RawFn;

    /** @param reserveHint initial heap reservation (event slots). */
    explicit EventQueue(std::size_t reserveHint = 1024)
    {
        heap_.reserve(reserveHint ? reserveHint : 1);
        slots_.reserve(heap_.capacity());
        free_.reserve(heap_.capacity());
    }
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time: the key queue's clock while this queue
     *  forwards into it (bindKey), so components read the executing
     *  tick with no per-event clock broadcast. */
    Tick now() const { return forward_ ? key_->now_ : now_; }

    /**
     * Stamp of the event currently executing (its scheduling-domain
     * tick). Cross-domain relays record this, not now(), as the
     * merge stamp: a relayed effect must sort where the *original*
     * event would have — e.g. an MC ack scheduled at T-680 but
     * firing at T still merges before host events stamped inside
     * (T-680, T], exactly as in a single global queue.
     */
    Tick currentStamp() const { return execStamp_; }

    /**
     * Priority of the event currently executing. The other half of
     * the relay key: a synchronous effect of a DramTiming-priority
     * event (an MC ack fired from the command-bus commit) precedes
     * every same-tick Default-priority event in a global queue, so
     * its replay must be scheduled at the original priority, not
     * EventPriority::Default.
     */
    EventPriority
    currentPrio() const
    {
        return static_cast<EventPriority>(execPrio_);
    }

    /** Number of events executed so far (for stats / debugging). */
    std::uint64_t numExecuted() const { return numExecuted_; }

    /** Times the key heap outgrew its reservation (the callback
     *  table grows with it, moving every pending callback). */
    std::uint64_t heapRegrows() const { return regrows_; }

    /** True when no events remain. */
    bool empty() const { return heap_.empty(); }

    /** Number of pending events. */
    std::size_t size() const { return heap_.size(); }

    /** Tick of the earliest pending event. @pre !empty() */
    Tick nextTick() const { return heap_.front().when; }

    /** Name this queue's domain: @p src is the source id stamped on
     *  events its own code schedules, @p rank the tie-break its
     *  events carry (lower ranks pop first on a full tie). */
    void
    setDomain(std::uint16_t src, std::uint16_t rank)
    {
        src_ = checkRank8(src);
        rank_ = checkRank8(rank);
        execRank_ = rank_;
    }

    /**
     * Derive every schedule's key from @p key (nullptr unbinds). A
     * schedule is stamped with key's current tick; it records this
     * queue's source id while key runs an event of this queue's
     * rank, and key's source id otherwise. With @p forward the events
     * go into key's heap and now() reads key's clock — the sequential
     * driver, where one heap then pops the canonical order. Without
     * it this queue keeps its events and its own clock — the windowed
     * host phase, where a quiescent channel queue stamps host->channel
     * arrivals with the host tick that produced them. @p key must not
     * itself be bound.
     */
    void
    bindKey(EventQueue *key, bool forward)
    {
        key_ = key;
        forward_ = key && forward;
    }

    /**
     * Schedule @p cb to run at absolute tick @p when.
     *
     * @pre when >= now(); scheduling in the past is a simulator bug.
     */
    void schedule(Tick when, Callback cb,
                  EventPriority prio = EventPriority::Default);

    /**
     * Schedule with an explicit (stamp, source) instead of the
     * derived one: the replay of a cross-domain handoff, which must
     * sort where the originating event's effect would have.
     */
    void scheduleKeyed(Tick when, Callback cb, EventPriority prio,
                       Tick stamp, std::uint16_t src);

    /**
     * Raw fast path: schedule `fn(ctx)` at @p when with zero capture
     * machinery — two words stored inline in the event. This is the
     * right call for recurring per-cycle wakeups (the memory
     * controller's scheduler is the heaviest user).
     */
    void scheduleAt(Tick when, RawFn fn, void *ctx,
                    EventPriority prio = EventPriority::Wakeup);

    /**
     * Batch form of scheduleAt(): one `fn(ctx)` firing per tick in
     * @p whens. Grows the heap once for the whole batch.
     */
    void scheduleAtBatch(const Tick *whens, std::size_t n, RawFn fn,
                         void *ctx,
                         EventPriority prio = EventPriority::Wakeup);

    /** Schedule @p cb @p delta ticks from now(). */
    void
    scheduleIn(Tick delta, Callback cb,
               EventPriority prio = EventPriority::Default)
    {
        schedule(now() + delta, std::move(cb), prio);
    }

    /**
     * Run events until the queue is empty or @p limit is reached.
     *
     * @return the tick of the last executed event.
     */
    Tick run(Tick limit = maxTick);

    /** Run every event with when < @p horizon (exclusive bound —
     *  the conservative-lookahead window edge of the partitioned
     *  driver). now() is left at the last executed event. */
    void
    runUntil(Tick horizon)
    {
        while (!heap_.empty() && heap_.front().when < horizon)
            step();
    }

    /** Run a single event; returns false if the queue was empty. */
    bool step();

  private:
    /** Stamp field width inside Key::order: 56 bits of tick.
     *  Overflow is a fatal, not a silent misorder — and unreachable
     *  in practice (at one event per tick and millions of events per
     *  second it is centuries of wall time away). */
    static constexpr int kStampBits = 56;

    /** Sequence field width inside Key::order2. The truncation is
     *  sound without a guard: two entries compare down to their
     *  sequences only when (when, prio, stamp, src, rank) all tie,
     *  and an equal stamp means both were pushed at the same tick —
     *  a wrap-straddling pair would need 2^48 pushes into one queue
     *  at a single tick with both entries still pending. */
    static constexpr int kSeqBits = 48;

    /**
     * The heap key of one pending event: 32 bytes, its callback
     * parked in slots_[slot]. The canonical six-field key is packed
     * into two words so a heap compare is at most three branches:
     *
     *   order  = priority(8) | stamp(56)
     *   order2 = src(8) | rank(8) | seq(48)
     *
     * Field precedence is preserved exactly: lexicographic order on
     * (when, order, order2) equals order on (when, prio, stamp, src,
     * rank, seq). Source ids and domain ranks are bounded to 8 bits
     * (checkRank8) — channels beyond 254 are out of scope for the
     * modeled systems. The slot never takes part in a compare.
     */
    struct Key
    {
        Tick when;
        std::uint64_t order;  ///< (prio << kStampBits) | stamp
        std::uint64_t order2; ///< (src << 56) | (rank << 48) | seq
        std::uint64_t slot;   ///< index into slots_

        std::uint8_t prio() const { return std::uint8_t(order >> kStampBits); }
        Tick stamp() const { return order & ((1ull << kStampBits) - 1); }
        std::uint16_t
        rank() const
        {
            return std::uint16_t((order2 >> kSeqBits) & 0xff);
        }

        bool
        before(const Key &other) const
        {
            if (when != other.when)
                return when < other.when;
            if (order != other.order)
                return order < other.order;
            return order2 < other.order2;
        }
    };
    static_assert(sizeof(Key) == 32);

    /** Pack the (priority, stamp) compare word; fatal on a stamp too
     *  large for its field rather than misordering silently. */
    static std::uint64_t
    packOrder(EventPriority prio, Tick stamp)
    {
        if (stamp >> kStampBits) [[unlikely]]
            olight_fatal("event stamp overflows its packed key: ",
                         stamp);
        return (std::uint64_t(std::uint8_t(prio)) << kStampBits) | stamp;
    }

    /** Pack the (source, domain rank, sequence) tie-break word. */
    static std::uint64_t
    packOrder2(std::uint16_t src, std::uint16_t rank, std::uint64_t seq)
    {
        return (std::uint64_t(src) << 56) |
               (std::uint64_t(rank) << kSeqBits) |
               (seq & ((1ull << kSeqBits) - 1));
    }

    /** Bound for ids packed into Key::order2. */
    static std::uint16_t
    checkRank8(std::uint16_t id)
    {
        if (id > 0xff)
            olight_fatal("source/domain id exceeds packed key width: ",
                         id);
        return id;
    }

    /** The derived (stamp, source) of a schedule made now. */
    Tick keyStamp() const { return key_ ? key_->now_ : now_; }
    std::uint16_t
    keySrc() const
    {
        return key_ && key_->execRank_ != rank_ ? key_->src_ : src_;
    }

    /** The queue whose heap takes an event scheduled at @p when
     *  (the key queue when forwarding); fatal if @p when is past. */
    EventQueue &
    heapFor(Tick when)
    {
        EventQueue &q = forward_ ? *key_ : *this;
        if (when < q.now_) [[unlikely]]
            pastFatal(when, q.now_);
        return q;
    }
    [[noreturn]] static void pastFatal(Tick when, Tick now);
    /** Park @p cb in a free slot and push its key. */
    void push(Tick when, std::uint64_t order, std::uint64_t order2,
              Callback cb);
    Key popTop();

    /** 4-ary min-heap on (when, order, order2) over heap_. */
    static constexpr std::size_t kArity = 4;

    std::vector<Key> heap_;
    std::vector<Callback> slots_;     ///< parked callbacks, by slot
    std::vector<std::uint64_t> free_; ///< empty slots, reused LIFO
    Tick now_ = 0;
    Tick execStamp_ = 0;
    std::uint8_t execPrio_ =
        std::uint8_t(static_cast<int>(EventPriority::Default));
    std::uint64_t nextSeq_ = 0;
    std::uint64_t numExecuted_ = 0;
    std::uint64_t regrows_ = 0;

    std::uint16_t src_ = 0;      ///< source id (setDomain)
    std::uint16_t rank_ = 0;     ///< domain rank (setDomain)
    std::uint16_t execRank_ = 0; ///< rank of the executing event
    EventQueue *key_ = nullptr;  ///< bound key queue (bindKey)
    bool forward_ = false;       ///< events live in key_'s heap
};

} // namespace olight

#endif // OLIGHT_SIM_EVENT_QUEUE_HH
