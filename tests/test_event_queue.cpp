#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/event_queue.h"

namespace enviromic::sim {
namespace {

using Callback = EventQueue::Callback;

/// Pops the earliest live event whatever its time (false when none is left).
bool pop(EventQueue& q, Time* t, Callback* cb) {
  return q.pop_next(Time::max(), t, cb);
}

/// True when no live event is left to pop.
bool drained(EventQueue& q) {
  Time t;
  Callback cb;
  return !pop(q, &t, &cb);
}

/// Fires every live event in pop order.
void run_all(EventQueue& q) {
  Time t;
  Callback cb;
  while (pop(q, &t, &cb)) cb();
}

TEST(EventQueue, EmptyInitially) {
  EventQueue q;
  EXPECT_EQ(q.live_count(), 0u);
  EXPECT_TRUE(drained(q));
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(Time::millis(30), [&] { order.push_back(3); });
  q.schedule(Time::millis(10), [&] { order.push_back(1); });
  q.schedule(Time::millis(20), [&] { order.push_back(2); });
  run_all(q);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TieBreaksByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  const Time t = Time::millis(5);
  for (int i = 0; i < 10; ++i) {
    q.schedule(t, [&order, i] { order.push_back(i); });
  }
  run_all(q);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, PopReturnsTime) {
  EventQueue q;
  q.schedule(Time::millis(42), [] {});
  Time t;
  Callback cb;
  ASSERT_TRUE(pop(q, &t, &cb));
  EXPECT_EQ(t, Time::millis(42));
  EXPECT_TRUE(drained(q));
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool fired = false;
  auto h = q.schedule(Time::millis(1), [&] { fired = true; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  EXPECT_EQ(q.live_count(), 0u);
  EXPECT_TRUE(drained(q));
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelIsIdempotent) {
  EventQueue q;
  auto h = q.schedule(Time::millis(1), [] {});
  h.cancel();
  h.cancel();
  EXPECT_EQ(q.live_count(), 0u);
  EXPECT_TRUE(drained(q));
}

TEST(EventQueue, DefaultHandleIsInert) {
  EventHandle h;
  EXPECT_FALSE(h.pending());
  h.cancel();  // no crash
}

TEST(EventQueue, CancelMiddleEventOnly) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(Time::millis(1), [&] { order.push_back(1); });
  auto h = q.schedule(Time::millis(2), [&] { order.push_back(2); });
  q.schedule(Time::millis(3), [&] { order.push_back(3); });
  h.cancel();
  run_all(q);
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, HandleNotPendingAfterPop) {
  EventQueue q;
  auto h = q.schedule(Time::millis(1), [] {});
  run_all(q);
  EXPECT_FALSE(h.pending());
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  auto h = q.schedule(Time::millis(1), [] {});
  q.schedule(Time::millis(7), [] {});
  h.cancel();
  // The cancelled 1 ms entry neither pops under a 5 ms limit nor hides the
  // live 7 ms one behind it.
  Time t;
  Callback cb;
  EXPECT_FALSE(q.pop_next(Time::millis(5), &t, &cb));
  ASSERT_TRUE(q.pop_next(Time::millis(7), &t, &cb));
  EXPECT_EQ(t, Time::millis(7));
}

TEST(EventQueue, TotalScheduledCounts) {
  EventQueue q;
  for (int i = 0; i < 5; ++i) q.schedule(Time::millis(i), [] {});
  EXPECT_EQ(q.total_scheduled(), 5u);
}

TEST(EventQueue, CancelReleasesCallbackEagerly) {
  // Cancelled timers must not pin their captures (Packets, Radio refs)
  // until they bubble to the heap top: cancel() drops the callback at once.
  EventQueue q;
  auto resource = std::make_shared<int>(7);
  EXPECT_EQ(resource.use_count(), 1);
  auto h = q.schedule(Time::millis(1), [resource] { (void)*resource; });
  EXPECT_EQ(resource.use_count(), 2);
  h.cancel();
  EXPECT_EQ(resource.use_count(), 1);
}

TEST(EventQueue, PopReleasesCallbackCaptures) {
  EventQueue q;
  auto resource = std::make_shared<int>(7);
  q.schedule(Time::millis(1), [resource] { (void)*resource; });
  {
    Time t;
    Callback cb;
    ASSERT_TRUE(pop(q, &t, &cb));
    cb();
    EXPECT_EQ(resource.use_count(), 2);  // held by the popped callback only
  }
  EXPECT_EQ(resource.use_count(), 1);
}

TEST(EventQueue, LiveCountExcludesTombstones) {
  EventQueue q;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 10; ++i) {
    handles.push_back(q.schedule(Time::millis(i), [] {}));
  }
  EXPECT_EQ(q.live_count(), 10u);
  for (int i = 0; i < 4; ++i) handles[static_cast<size_t>(2 * i)].cancel();
  // Tombstones may still sit in the heap, but the count never reports them.
  EXPECT_EQ(q.live_count(), 6u);
  Time t;
  Callback cb;
  ASSERT_TRUE(pop(q, &t, &cb));
  EXPECT_EQ(q.live_count(), 5u);
}

TEST(EventQueue, CompactionPreservesPopOrder) {
  // Cancel far more than half of a large schedule so compaction triggers,
  // then verify the survivors still fire in exact (time, seq) order.
  EventQueue q;
  std::vector<EventHandle> handles;
  std::vector<int> fired;
  for (int i = 0; i < 500; ++i) {
    handles.push_back(q.schedule(Time::millis(i), [&fired, i] { fired.push_back(i); }));
  }
  for (int i = 0; i < 500; ++i) {
    if (i % 5 != 0) handles[static_cast<size_t>(i)].cancel();
  }
  EXPECT_EQ(q.live_count(), 100u);
  // Churn after the cancellations so maybe_compact() runs on a dirty heap.
  for (int i = 0; i < 50; ++i) {
    auto h = q.schedule(Time::millis(1000 + i), [] {});
    h.cancel();
  }
  run_all(q);
  ASSERT_EQ(fired.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(fired[static_cast<size_t>(i)], 5 * i);
  EXPECT_EQ(q.live_count(), 0u);
}

TEST(EventQueue, CancelAfterQueueDestructionIsSafe) {
  EventHandle h;
  {
    EventQueue q;
    h = q.schedule(Time::millis(1), [] {});
  }
  EXPECT_TRUE(h.pending());  // the queue died, but the record survives
  h.cancel();                // must not touch freed queue state
  EXPECT_FALSE(h.pending());
}

TEST(EventQueue, TotalScheduledIsMonotone) {
  EventQueue q;
  for (int i = 0; i < 5; ++i) q.schedule(Time::millis(i), [] {});
  EXPECT_EQ(q.total_scheduled(), 5u);
  auto h = q.schedule(Time::millis(9), [] {});
  h.cancel();
  // Cancellation and popping never decrease the lifetime counter.
  Time t;
  Callback cb;
  ASSERT_TRUE(pop(q, &t, &cb));
  EXPECT_EQ(q.total_scheduled(), 6u);
}

TEST(EventQueue, ManyEventsStressOrdering) {
  EventQueue q;
  // Deterministic pseudo-random times; verify monotone pop order.
  std::uint64_t x = 12345;
  for (int i = 0; i < 2000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    q.schedule(Time::ticks(static_cast<std::int64_t>(x % 1000000)), [] {});
  }
  Time prev = Time::zero();
  Time t;
  Callback cb;
  while (pop(q, &t, &cb)) {
    EXPECT_GE(t, prev);
    prev = t;
  }
}

}  // namespace
}  // namespace enviromic::sim
