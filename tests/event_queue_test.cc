// Tests for the discrete-event core.

#include "src/sim/event_queue.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <queue>
#include <random>
#include <vector>

namespace xk {
namespace {

TEST(EventQueueTest, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(Usec(30), [&] { order.push_back(3); });
  q.ScheduleAt(Usec(10), [&] { order.push_back(1); });
  q.ScheduleAt(Usec(20), [&] { order.push_back(2); });
  EXPECT_EQ(q.Run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), Usec(30));
}

TEST(EventQueueTest, TiesBreakInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.ScheduleAt(Usec(10), [&order, i] { order.push_back(i); });
  }
  q.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, ScheduleInIsRelative) {
  EventQueue q;
  SimTime fired_at = -1;
  q.ScheduleAt(Usec(100), [&] {
    q.ScheduleIn(Usec(50), [&] { fired_at = q.now(); });
  });
  q.Run();
  EXPECT_EQ(fired_at, Usec(150));
}

TEST(EventQueueTest, PastTimesClampToNow) {
  EventQueue q;
  SimTime fired_at = -1;
  q.ScheduleAt(Usec(100), [&] {
    q.ScheduleAt(Usec(10), [&] { fired_at = q.now(); });  // in the past
  });
  q.Run();
  EXPECT_EQ(fired_at, Usec(100));
}

TEST(EventQueueTest, CancelPreventsFiring) {
  EventQueue q;
  bool fired = false;
  EventHandle h = q.ScheduleAt(Usec(10), [&] { fired = true; });
  EXPECT_TRUE(h.pending());
  EXPECT_TRUE(h.Cancel());
  EXPECT_FALSE(h.pending());
  EXPECT_FALSE(h.Cancel());  // second cancel is a no-op
  q.Run();
  EXPECT_FALSE(fired);
}

TEST(EventQueueTest, HandleReportsFiredEventNotPending) {
  EventQueue q;
  EventHandle h = q.ScheduleAt(Usec(5), [] {});
  q.Run();
  EXPECT_FALSE(h.pending());
  EXPECT_FALSE(h.Cancel());
}

TEST(EventQueueTest, RunUntilStopsAtDeadline) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(Usec(10), [&] { order.push_back(1); });
  q.ScheduleAt(Usec(20), [&] { order.push_back(2); });
  q.ScheduleAt(Usec(30), [&] { order.push_back(3); });
  EXPECT_EQ(q.RunUntil(Usec(20)), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_FALSE(q.empty());
  q.Run();
  EXPECT_EQ(order.size(), 3u);
}

TEST(EventQueueTest, RunUntilSkipsCancelledHead) {
  EventQueue q;
  bool fired = false;
  EventHandle h = q.ScheduleAt(Usec(5), [&] { fired = true; });
  q.ScheduleAt(Usec(10), [&] {});
  h.Cancel();
  EXPECT_EQ(q.RunUntil(Usec(20)), 1u);
  EXPECT_FALSE(fired);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, MaxEventsBound) {
  EventQueue q;
  int count = 0;
  for (int i = 0; i < 10; ++i) {
    q.ScheduleAt(Usec(i), [&] { ++count; });
  }
  EXPECT_EQ(q.Run(4), 4u);
  EXPECT_EQ(count, 4);
}

TEST(EventQueueTest, EventsCanScheduleMoreEvents) {
  EventQueue q;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) {
      q.ScheduleIn(Usec(1), chain);
    }
  };
  q.ScheduleAt(0, chain);
  q.Run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(q.now(), Usec(99));
}

TEST(EventQueueTest, AdvanceToMovesClock) {
  EventQueue q;
  q.AdvanceTo(Msec(5));
  EXPECT_EQ(q.now(), Msec(5));
}

TEST(EventQueueTest, CancelInsideOwnHandlerIsNoOp) {
  // By the time a handler runs, its own handle is already retired: a Cancel()
  // from inside the handler must report false (the kernel uses this to decide
  // whether to charge timer_cancel).
  EventQueue q;
  EventHandle h;
  bool cancel_result = true;
  h = q.ScheduleAt(Usec(5), [&] { cancel_result = h.Cancel(); });
  q.Run();
  EXPECT_FALSE(cancel_result);
}

TEST(EventQueueTest, CancellationStorm) {
  // Schedule thousands of timers and cancel almost all of them -- the
  // retransmit pattern at scale. Only the survivors fire, in order, and the
  // queue's live accounting stays exact throughout.
  EventQueue q;
  constexpr int kEvents = 4096;
  std::vector<EventHandle> handles;
  handles.reserve(kEvents);
  std::vector<int> fired;
  for (int i = 0; i < kEvents; ++i) {
    handles.push_back(q.ScheduleAt(Usec(i), [&fired, i] { fired.push_back(i); }));
  }
  EXPECT_EQ(q.pending_events(), static_cast<size_t>(kEvents));
  for (int i = 0; i < kEvents; ++i) {
    if (i % 64 != 0) {
      EXPECT_TRUE(handles[i].Cancel());
    }
  }
  EXPECT_EQ(q.pending_events(), static_cast<size_t>(kEvents / 64));
  q.Run();
  ASSERT_EQ(fired.size(), static_cast<size_t>(kEvents / 64));
  for (size_t i = 0; i < fired.size(); ++i) {
    EXPECT_EQ(fired[i], static_cast<int>(i) * 64);
  }
  EXPECT_TRUE(q.empty());
  // Every cancelled handle stays dead.
  for (auto& h : handles) {
    EXPECT_FALSE(h.pending());
    EXPECT_FALSE(h.Cancel());
  }
}

TEST(EventQueueTest, HandleStaysDeadAfterSlotReuse) {
  // Once an event fires or is cancelled its slab slot is recycled for new
  // events. Old handles -- including copies -- must keep reporting dead even
  // while a new event occupies the same slot.
  EventQueue q;
  EventHandle first = q.ScheduleAt(Usec(1), [] {});
  EventHandle first_copy = first;
  q.Run();
  EXPECT_FALSE(first.pending());

  // With one slot free, this reuses it under a bumped generation.
  bool second_fired = false;
  EventHandle second = q.ScheduleIn(Usec(1), [&] { second_fired = true; });
  EXPECT_TRUE(second.pending());
  EXPECT_FALSE(first.pending());
  EXPECT_FALSE(first_copy.pending());
  EXPECT_FALSE(first.Cancel());  // must not kill the new occupant
  EXPECT_TRUE(second.pending());
  q.Run();
  EXPECT_TRUE(second_fired);

  // Same pattern through many reuse cycles.
  std::vector<EventHandle> stale;
  for (int i = 0; i < 100; ++i) {
    EventHandle h = q.ScheduleIn(Usec(1), [] {});
    for (auto& old : stale) {
      EXPECT_FALSE(old.Cancel());
    }
    EXPECT_TRUE(h.pending());
    if (i % 2 == 0) {
      EXPECT_TRUE(h.Cancel());
    } else {
      q.Run();
    }
    stale.push_back(h);
  }
  EXPECT_TRUE(q.empty());
}

// Drives an EventQueue and a transparent reference implementation with the
// seed's priority-queue semantics ((at, seq) ordering, cancellation by flag)
// through the same operations. Firing order, firing times, cancel return
// values, and live counts must match exactly.
class Differential {
 public:
  void Schedule(SimTime at) {
    const int id = static_cast<int>(ref_dead_.size());
    ref_heap_.push(RefEvent{at < ref_now_ ? ref_now_ : at, ref_seq_++, id});
    ref_dead_.push_back(false);
    ++ref_live_;
    handles_.push_back(q_.ScheduleAt(at, [this, id] { fired_real_.push_back(id); }));
  }
  // Schedules `delay` after the current time.
  void ScheduleIn(SimTime delay) { Schedule(ref_now_ + delay); }

  size_t scheduled() const { return handles_.size(); }

  void Cancel(size_t id, int step) {
    const bool ref_was_live = !ref_dead_[id];
    ref_dead_[id] = true;
    ref_live_ -= ref_was_live ? 1 : 0;
    EXPECT_EQ(handles_[id].Cancel(), ref_was_live) << "step " << step;
    EXPECT_FALSE(handles_[id].pending()) << "step " << step;
  }

  void Run(size_t max_events, int step) {
    EXPECT_EQ(q_.Run(max_events), RefRun(max_events, INT64_MAX)) << "step " << step;
    EXPECT_EQ(q_.now(), ref_now_) << "step " << step;
  }

  void RunUntil(SimTime deadline, int step) {
    EXPECT_EQ(q_.RunUntil(deadline), RefRun(SIZE_MAX, deadline)) << "step " << step;
    EXPECT_EQ(q_.now(), ref_now_) << "step " << step;
  }

  void ExpectSynced(int step) {
    EXPECT_EQ(q_.pending_events(), ref_live_) << "step " << step;
    ASSERT_EQ(fired_real_.size(), fired_ref_.size()) << "step " << step;
  }

  // Drains both queues and compares the complete firing order.
  void Finish() {
    Run(SIZE_MAX, -1);
    EXPECT_EQ(fired_real_, fired_ref_);
    EXPECT_TRUE(q_.empty());
    EXPECT_EQ(ref_live_, 0u);
  }

  SimTime now() const { return ref_now_; }

 private:
  struct RefEvent {
    SimTime at;
    uint64_t seq;
    int id;
    bool operator>(const RefEvent& o) const {
      if (at != o.at) return at > o.at;
      return seq > o.seq;
    }
  };

  size_t RefRun(size_t max_events, SimTime deadline) {
    size_t fired = 0;
    while (fired < max_events && !ref_heap_.empty() && ref_heap_.top().at <= deadline) {
      const RefEvent ev = ref_heap_.top();
      ref_heap_.pop();
      if (ref_dead_[ev.id]) continue;
      ref_now_ = ev.at;
      ref_dead_[ev.id] = true;
      --ref_live_;
      fired_ref_.push_back(ev.id);
      ++fired;
    }
    return fired;
  }

  EventQueue q_;
  std::vector<EventHandle> handles_;
  std::vector<int> fired_real_;

  std::priority_queue<RefEvent, std::vector<RefEvent>, std::greater<RefEvent>> ref_heap_;
  std::vector<bool> ref_dead_;  // id -> cancelled-or-fired
  size_t ref_live_ = 0;
  SimTime ref_now_ = 0;
  uint64_t ref_seq_ = 0;
  std::vector<int> fired_ref_;
};

TEST(EventQueueTest, DifferentialAgainstReferenceModel) {
  // A long random schedule/cancel/run trace of near-term events.
  Differential d;
  std::mt19937 rng(20260806);
  for (int step = 0; step < 4000; ++step) {
    const int op = static_cast<int>(rng() % 100);
    if (op < 55) {  // schedule, sometimes in the "past" to exercise clamping
      d.ScheduleIn(static_cast<SimTime>(rng() % 500) - 50);
    } else if (op < 85 && d.scheduled() > 0) {  // cancel a random id
      d.Cancel(rng() % d.scheduled(), step);
    } else {  // run a bounded burst
      d.Run(1 + rng() % 8, step);
    }
    d.ExpectSynced(step);
  }
  d.Finish();
}

TEST(EventQueueTest, DifferentialWithLongTimerRuns) {
  // The mix the sorted runs exist for: many timers at a few constant long
  // delays (FRAGMENT's one-second send-cache discard, a 200 ms retransmit)
  // interleaved with near-term traffic. Around it, the cases that must not
  // disturb the (at, seq) order: far events earlier than a run's tail (a
  // descending ladder needs more runs than exist, so it spills to the heap),
  // cancels of run entries, a cancellation storm over run entries that
  // triggers the dead-entry sweep, and RunUntil deadlines that fall between
  // a run head and the heap top.
  Differential d;
  std::mt19937 rng(20261017);
  std::vector<size_t> long_ids;
  for (int step = 0; step < 20000; ++step) {
    const int op = static_cast<int>(rng() % 1000);
    // Timers are set at the CPU's time, a little ahead of the queue clock.
    const SimTime cpu_lead = static_cast<SimTime>(rng() % 40);
    if (op < 300) {  // near-term traffic
      d.ScheduleIn(static_cast<SimTime>(rng() % 300));
    } else if (op < 500) {  // one-second timer
      long_ids.push_back(d.scheduled());
      d.ScheduleIn(Msec(1000) + cpu_lead);
    } else if (op < 560) {  // 200 ms timer
      long_ids.push_back(d.scheduled());
      d.ScheduleIn(Msec(200) + cpu_lead);
    } else if (op < 575) {  // descending ladder of far events below the tails
      for (int k = 12; k > 0; --k) {
        d.ScheduleIn(Msec(50) * k + static_cast<SimTime>(rng() % 1000));
      }
    } else if (op < 675 && !long_ids.empty()) {  // cancel a long timer
      d.Cancel(long_ids[rng() % long_ids.size()], step);
    } else if (op < 680) {  // storm over run entries, big enough to sweep
      for (int k = 0; k < 400; ++k) {
        long_ids.push_back(d.scheduled());
        d.ScheduleIn(Msec(1000) + k);
      }
      for (size_t i = 0; i < long_ids.size(); ++i) {
        if (rng() % 10 != 0) {
          d.Cancel(long_ids[i], step);
        }
      }
      long_ids.clear();
    } else if (op < 850) {  // run a bounded burst
      d.Run(1 + rng() % 16, step);
    } else {  // run to a deadline: near-term, or out among the long timers
      const SimTime horizon = (rng() % 4 == 0) ? Msec(1200) : Usec(400);
      d.RunUntil(d.now() + static_cast<SimTime>(rng() % static_cast<uint64_t>(horizon)), step);
    }
    d.ExpectSynced(step);
  }
  d.Finish();
}

TEST(EventQueueTest, CountsFiredEvents) {
  EventQueue q;
  for (int i = 0; i < 5; ++i) {
    q.ScheduleAt(Usec(i), [] {});
  }
  EventHandle h = q.ScheduleAt(Usec(10), [] {});
  h.Cancel();
  q.Run();
  EXPECT_EQ(q.fired_total(), 5u);  // cancelled events don't count
  q.ScheduleIn(Usec(1), [] {});
  q.Run();
  EXPECT_EQ(q.fired_total(), 6u);  // lifetime counter, keeps accumulating
}

TEST(EventQueueTest, DeterministicAcrossRuns) {
  auto run_once = [] {
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 20; ++i) {
      q.ScheduleAt(Usec((i * 7) % 5), [&order, i] { order.push_back(i); });
    }
    q.Run();
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace xk
