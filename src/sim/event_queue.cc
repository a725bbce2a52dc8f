#include "sim/event_queue.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace olight
{

void
EventQueue::push(Entry entry)
{
    if (heap_.size() == heap_.capacity())
        ++regrows_;
    // Hole-based sift-up: move parents down into the hole until the
    // new entry's slot is found; one move per level instead of the
    // three a swap would cost.
    std::size_t hole = heap_.size();
    heap_.emplace_back(); // default entry; overwritten below
    while (hole > 0) {
        std::size_t parent = (hole - 1) / kArity;
        if (!entry.before(heap_[parent]))
            break;
        heap_[hole] = std::move(heap_[parent]);
        hole = parent;
    }
    heap_[hole] = std::move(entry);
}

EventQueue::Entry
EventQueue::popTop()
{
    Entry top = std::move(heap_.front());
    Entry last = std::move(heap_.back());
    heap_.pop_back();
    if (!heap_.empty()) {
        // Sift the former last element down from the root hole.
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
            heap_[hole] = std::move(heap_[best]);
            hole = best;
        }
        heap_[hole] = std::move(last);
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
    q.push(Entry{when, packOrder(prio, keyStamp()),
                 packOrder2(keySrc(), rank_, q.nextSeq_++),
                 std::move(cb)});
}

void
EventQueue::scheduleKeyed(Tick when, Callback cb, EventPriority prio,
                          Tick stamp, std::uint16_t src)
{
    EventQueue &q = heapFor(when);
    q.push(Entry{when, packOrder(prio, stamp),
                 packOrder2(checkRank8(src), rank_, q.nextSeq_++),
                 std::move(cb)});
}

void
EventQueue::scheduleAt(Tick when, RawFn fn, void *ctx,
                       EventPriority prio)
{
    EventQueue &q = heapFor(when);
    q.push(Entry{when, packOrder(prio, keyStamp()),
                 packOrder2(keySrc(), rank_, q.nextSeq_++),
                 Callback(fn, ctx)});
}

void
EventQueue::scheduleAtBatch(const Tick *whens, std::size_t n,
                            RawFn fn, void *ctx, EventPriority prio)
{
    std::vector<Entry> &heap = (forward_ ? *key_ : *this).heap_;
    heap.reserve(heap.size() + n);
    for (std::size_t i = 0; i < n; ++i)
        scheduleAt(whens[i], fn, ctx, prio);
}

bool
EventQueue::step()
{
    if (heap_.empty())
        return false;
    Entry entry = popTop();
    now_ = entry.when;
    execStamp_ = entry.stamp();
    execPrio_ = entry.prio();
    execRank_ = entry.rank();
    ++numExecuted_;
    entry.cb();
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
