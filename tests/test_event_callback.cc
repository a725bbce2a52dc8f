/**
 * @file
 * Tests for the small-buffer-optimized EventCallback: capture
 * lifetime (destructors run exactly once, via a ref-counted
 * sentinel), inline-vs-heap storage selection, the raw
 * function-pointer fast path, and the batch wakeup API.
 */

#include <gtest/gtest.h>

#include <array>
#include <deque>
#include <functional>
#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "sim/callback.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"

namespace olight
{
namespace
{

TEST(EventCallback, DestructorRunsExactlyOnceAfterInvocation)
{
    auto sentinel = std::make_shared<int>(42);
    ASSERT_EQ(sentinel.use_count(), 1);
    {
        EventQueue eq;
        eq.schedule(5, [keep = sentinel] { (void)*keep; });
        EXPECT_EQ(sentinel.use_count(), 2);
        eq.run();
        // The capture was destroyed when the event fired — not
        // leaked, not destroyed twice (use_count would underflow
        // into heap corruption long before this check).
        EXPECT_EQ(sentinel.use_count(), 1);
    }
    EXPECT_EQ(sentinel.use_count(), 1);

    // Callbacks still pending when the queue dies — inline and
    // heap-stored, some in slots freed and reused by earlier events
    // — are destroyed exactly once with it.
    {
        EventQueue eq;
        std::array<char, 200> pad{};
        for (Tick t = 1; t <= 8; ++t)
            eq.schedule(t, [keep = sentinel] { (void)*keep; });
        eq.run(4); // frees four slots
        for (Tick t = 10; t < 16; ++t) {
            if (t % 2)
                eq.schedule(t, [keep = sentinel] { (void)*keep; });
            else
                eq.schedule(t, [keep = sentinel, pad] {
                    (void)*keep;
                    (void)pad;
                });
        }
        EXPECT_EQ(sentinel.use_count(), 1 + 4 + 6);
    }
    EXPECT_EQ(sentinel.use_count(), 1);
}

TEST(EventCallback, DestructorRunsOnceWhenNeverInvoked)
{
    auto sentinel = std::make_shared<int>(7);
    {
        EventCallback cb([keep = sentinel] { (void)*keep; });
        EXPECT_EQ(sentinel.use_count(), 2);
        // cb destroyed without being called.
    }
    EXPECT_EQ(sentinel.use_count(), 1);
}

TEST(EventCallback, MoveTransfersOwnershipWithoutDoubleDestroy)
{
    auto sentinel = std::make_shared<int>(1);
    {
        EventCallback a([keep = sentinel] { (void)*keep; });
        EXPECT_EQ(sentinel.use_count(), 2);
        EventCallback b(std::move(a));
        // Still exactly one live capture.
        EXPECT_EQ(sentinel.use_count(), 2);
        EXPECT_FALSE(bool(a));
        ASSERT_TRUE(bool(b));
        b();
        EventCallback c = std::move(b);
        EXPECT_FALSE(bool(b));
        c = EventCallback([] {});
        EXPECT_EQ(sentinel.use_count(), 1);
    }
    EXPECT_EQ(sentinel.use_count(), 1);
}

TEST(EventCallback, SmallCapturesStayInline)
{
    // A capture the size of the memory pipe's [this, Packet] pair.
    std::array<char, 88> big_enough{};
    EventCallback cb([big_enough] { (void)big_enough; });
    EXPECT_TRUE(cb.isInline());
    cb();
}

TEST(EventCallback, OversizedCapturesFallBackToHeap)
{
    std::array<char, EventCallback::kInlineCapacity + 1> oversized{};
    oversized.back() = 99;
    int seen = 0;
    EventCallback cb([oversized, &seen] { seen = oversized.back(); });
    EXPECT_FALSE(cb.isInline());
    cb();
    EXPECT_EQ(seen, 99);

    // Heap captures still destroy exactly once through moves.
    auto sentinel = std::make_shared<int>(3);
    {
        EventCallback big(
            [oversized, keep = sentinel] { (void)*keep; });
        EXPECT_FALSE(big.isInline());
        EXPECT_EQ(sentinel.use_count(), 2);
        EventCallback moved(std::move(big));
        EXPECT_EQ(sentinel.use_count(), 2);
        moved();
        EXPECT_EQ(sentinel.use_count(), 2);
    }
    EXPECT_EQ(sentinel.use_count(), 1);
}

TEST(EventCallback, InlineCapacityMeetsFloor)
{
    // The issue floor: inline storage must be at least 48 bytes.
    static_assert(EventCallback::kInlineCapacity >= 48);
    SUCCEED();
}

TEST(EventQueueFastPath, RawFunctionPointerEvents)
{
    EventQueue eq;
    int fired = 0;
    auto bump = [](void *ctx) { ++*static_cast<int *>(ctx); };
    eq.scheduleAt(10, bump, &fired);
    eq.scheduleAt(5, bump, &fired);
    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), 10u);
}

TEST(EventQueueFastPath, BatchSchedulesOneEventPerTick)
{
    EventQueue eq;
    std::vector<Tick> fired_at;
    struct Ctx
    {
        EventQueue *eq;
        std::vector<Tick> *out;
    } ctx{&eq, &fired_at};
    const Tick whens[] = {30, 10, 20};
    eq.scheduleAtBatch(
        whens, 3,
        [](void *c) {
            auto *x = static_cast<Ctx *>(c);
            x->out->push_back(x->eq->now());
        },
        &ctx);
    eq.run();
    EXPECT_EQ(fired_at, (std::vector<Tick>{10, 20, 30}));
}

TEST(EventQueueFastPath, RawAndClosureEventsInterleaveByPriority)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(5, [&order] { order.push_back(1); },
                EventPriority::Default);
    // Raw events default to Wakeup priority: after same-tick
    // arrivals, matching the memory controller's usage.
    eq.scheduleAt(5,
                  [](void *o) {
                      static_cast<std::vector<int> *>(o)->push_back(
                          2);
                  },
                  &order);
    eq.schedule(5, [&order] { order.push_back(0); },
                EventPriority::DramTiming);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));

    // Many push/pop cycles mixing inline, heap-stored (> 96 B) and
    // raw callbacks, where running events schedule more (reusing the
    // slots just freed, and growing a table reserved for one event
    // under the running callback): every pop must be the least
    // pending key (when, priority, stamp, sequence) of a reference
    // model.
    EventQueue small(1);
    using RefKey = std::tuple<Tick, int, Tick, std::uint64_t>;
    std::set<RefKey> pending;
    std::uint64_t seq = 0, popped = 0, misordered = 0;
    Rng rng(42);
    auto onRun = [&](const RefKey &k) {
        ++popped;
        if (pending.empty() || *pending.begin() != k)
            ++misordered;
        pending.erase(k);
    };
    std::function<void(const RefKey &)> runRaw = onRun;
    struct RawCtx
    {
        std::function<void(const RefKey &)> *run;
        RefKey key;
    };
    std::deque<RawCtx> rawCtx; // stable addresses for raw contexts
    std::function<void(int)> spawn = [&](int depth) {
        const Tick when = small.now() + rng.nextRange(40);
        const int prio = 10 * int(rng.nextRange(4));
        const RefKey k{when, prio, small.now(), seq++};
        pending.insert(k);
        const auto p = static_cast<EventPriority>(prio);
        auto body = [&, k, depth] {
            onRun(k);
            if (depth > 0)
                for (int i = 0; i < 2; ++i)
                    spawn(depth - 1);
        };
        switch (rng.nextRange(3)) {
          case 0:
            small.schedule(when, body, p);
            break;
          case 1: {
            std::array<std::uint64_t, 16> pad{};
            small.schedule(
                when,
                [body, pad] {
                    (void)pad;
                    body();
                },
                p);
            break;
          }
          default:
            rawCtx.push_back({&runRaw, k});
            small.scheduleAt(
                when,
                [](void *c) {
                    auto *x = static_cast<RawCtx *>(c);
                    (*x->run)(x->key);
                },
                &rawCtx.back(), p);
            break;
        }
    };
    for (int round = 0; round < 50; ++round) {
        for (int i = 0; i < 8; ++i)
            spawn(int(rng.nextRange(4)));
        small.run(small.now() + 30);
    }
    small.run();
    EXPECT_EQ(popped, seq);
    EXPECT_EQ(misordered, 0u);
    EXPECT_TRUE(pending.empty());
}

} // namespace
} // namespace olight
