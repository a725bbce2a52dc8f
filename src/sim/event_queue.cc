#include "sim/event_queue.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace olight
{

void
EventQueue::push(Tick when, std::uint64_t order, std::uint64_t order2,
                 Callback cb)
{
    std::uint64_t slot;
    if (free_.empty()) {
        slot = slots_.size();
        slots_.push_back(std::move(cb));
    } else {
        slot = free_.back();
        free_.pop_back();
        slots_[slot] = std::move(cb);
    }
    if (heap_.size() == heap_.capacity())
        ++regrows_;
    // Hole-based sift-up: move parents down into the hole until the
    // new key's place is found; one move per level instead of the
    // three a swap would cost.
    const Key key{when, order, order2, slot};
    std::size_t hole = heap_.size();
    heap_.emplace_back();
    while (hole > 0) {
        std::size_t parent = (hole - 1) / kArity;
        if (!key.before(heap_[parent]))
            break;
        heap_[hole] = heap_[parent];
        hole = parent;
    }
    heap_[hole] = key;
}

EventQueue::Key
EventQueue::popTop()
{
    const Key top = heap_.front();
    const Key last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
        // Sift the former last key down from the root hole.
        std::size_t hole = 0;
        const std::size_t size = heap_.size();
        while (true) {
            std::size_t first_child = hole * kArity + 1;
            if (first_child >= size)
                break;
            std::size_t best = first_child;
            std::size_t end =
                std::min(first_child + kArity, size);
            for (std::size_t c = first_child + 1; c < end; ++c) {
                if (heap_[c].before(heap_[best]))
                    best = c;
            }
            if (!heap_[best].before(last))
                break;
            heap_[hole] = heap_[best];
            hole = best;
        }
        heap_[hole] = last;
    }
    return top;
}

void
EventQueue::pastFatal(Tick when, Tick now)
{
    // olight_fatal, not a debug-only assert: scheduling in the past
    // would silently misorder the simulation, so the check must stay
    // visible in release builds too.
    olight_fatal("event scheduled in the past: when=", when, " now=",
                 now);
}

void
EventQueue::schedule(Tick when, Callback cb, EventPriority prio)
{
    EventQueue &q = heapFor(when);
    q.push(when, packOrder(prio, keyStamp()),
           packOrder2(keySrc(), rank_, q.nextSeq_++), std::move(cb));
}

void
EventQueue::scheduleKeyed(Tick when, Callback cb, EventPriority prio,
                          Tick stamp, std::uint16_t src)
{
    EventQueue &q = heapFor(when);
    q.push(when, packOrder(prio, stamp),
           packOrder2(checkRank8(src), rank_, q.nextSeq_++),
           std::move(cb));
}

void
EventQueue::scheduleAt(Tick when, RawFn fn, void *ctx,
                       EventPriority prio)
{
    EventQueue &q = heapFor(when);
    q.push(when, packOrder(prio, keyStamp()),
           packOrder2(keySrc(), rank_, q.nextSeq_++),
           Callback(fn, ctx));
}

void
EventQueue::scheduleAtBatch(const Tick *whens, std::size_t n,
                            RawFn fn, void *ctx, EventPriority prio)
{
    EventQueue &q = forward_ ? *key_ : *this;
    q.heap_.reserve(q.heap_.size() + n);
    q.slots_.reserve(q.heap_.size() + n);
    for (std::size_t i = 0; i < n; ++i)
        scheduleAt(whens[i], fn, ctx, prio);
}

bool
EventQueue::step()
{
    if (heap_.empty())
        return false;
    const Key key = popTop();
    now_ = key.when;
    execStamp_ = key.stamp();
    execPrio_ = key.prio();
    execRank_ = key.rank();
    // Take the callback out of its slot before running it: what it
    // schedules may reuse the slot or grow (and so move) slots_.
    Callback cb = std::move(slots_[key.slot]);
    free_.push_back(key.slot);
    ++numExecuted_;
    cb();
    // Anything that runs between events (drain polls, CGA unblock,
    // sampler) is this queue's own driver code, not the last event's
    // domain.
    execRank_ = rank_;
    return true;
}

Tick
EventQueue::run(Tick limit)
{
    while (!heap_.empty() && heap_.front().when <= limit) {
        if (!step())
            break;
    }
    return now_;
}

} // namespace olight
