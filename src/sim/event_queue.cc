#include "src/sim/event_queue.h"

#include <bit>
#include <cassert>
#include <utility>

namespace xk {

namespace {
// 4-ary heap: shallower than binary for the same size, and the four children
// of a node sit in one cache line of 24-byte entries.
constexpr size_t Parent(size_t i) { return (i - 1) / 4; }
constexpr size_t FirstChild(size_t i) { return 4 * i + 1; }
}  // namespace

EventHandle EventQueue::ScheduleAt(SimTime at, EventFn fn) {
  if (at < now_) {
    at = now_;
  }
  const uint32_t slot = AcquireSlot();
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  const uint32_t gen = s.generation;
  Enqueue(Entry{at, next_seq_++, slot, gen});
  ++live_count_;
  return EventHandle(this, slot, gen);
}

size_t EventQueue::Run(size_t max_events) {
  size_t fired = 0;
  Entry e;
  EventFn fn;
  for (size_t src; fired < max_events && (src = NextSource()) != kNone;) {
    Take(src, e, fn);
    if (stat_probe_ != nullptr) {
      stat_probe_->BeforeFire(e.at);
    }
    now_ = e.at;
    ++fired;
    fn();
  }
  fired_total_ += fired;
  return fired;
}

size_t EventQueue::RunUntil(SimTime deadline) {
  size_t fired = 0;
  Entry e;
  EventFn fn;
  for (size_t src; (src = NextSource()) != kNone && Head(src).at <= deadline;) {
    Take(src, e, fn);
    if (stat_probe_ != nullptr) {
      stat_probe_->BeforeFire(e.at);
    }
    now_ = e.at;
    ++fired;
    fn();
  }
  fired_total_ += fired;
  return fired;
}

void EventQueue::AdvanceTo(SimTime t) {
  assert(t >= now_);
  now_ = t;
}

uint32_t EventQueue::AcquireSlot() {
  if (free_head_ != kNil) {
    const uint32_t index = free_head_;
    free_head_ = slots_[index].next_free;
    slots_[index].next_free = kNil;
    return index;
  }
  slots_.emplace_back();
  return static_cast<uint32_t>(slots_.size() - 1);
}

void EventQueue::RetireSlot(uint32_t index) {
  Slot& s = slots_[index];
  s.fn = nullptr;
  ++s.generation;  // invalidates handles and the queued entry, if any
  s.next_free = free_head_;
  free_head_ = index;
}

bool EventQueue::CancelInternal(uint32_t index, uint32_t gen) {
  if (!SlotLive(index, gen)) {
    return false;
  }
  RetireSlot(index);
  --live_count_;
  ++dead_queued_;  // its Entry is still queued; dropped or swept later
  MaybeSweepDead();
  return true;
}

void EventQueue::Enqueue(const Entry& e) {
  // Append to the run whose tail is the latest entry not after `e` (best
  // fit keeps runs with earlier tails free for earlier entries); failing
  // that, an idle run starts over with `e`. Runs stay sorted because seq
  // only grows.
  size_t fit = kNone;
  for (uint32_t m = busy_runs_; m != 0; m &= m - 1) {
    const size_t r = static_cast<size_t>(std::countr_zero(m));
    const Entry& tail = runs_[r].back();
    if (!Before(e, tail) && (fit == kNone || Before(runs_[fit].back(), tail))) {
      fit = r;
    }
  }
  if (fit == kNone) {
    const uint32_t idle = ~busy_runs_ & ((1u << kRuns) - 1);
    if (idle == 0) {
      HeapPush(e);
      return;
    }
    fit = static_cast<size_t>(std::countr_zero(idle));
    busy_runs_ |= 1u << fit;
  }
  runs_[fit].PushBack() = e;
}

void EventQueue::HeapPush(Entry e) {
  // Hole-based lift: shift parents down into the hole and write the new
  // entry once at its final position (vs. one 24-byte swap per level).
  heap_.push_back(e);
  size_t i = heap_.size() - 1;
  while (i > 0) {
    const size_t p = Parent(i);
    if (!Before(e, heap_[p])) {
      break;
    }
    heap_[i] = heap_[p];
    i = p;
  }
  heap_[i] = e;
}

void EventQueue::HeapPopTop() {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    SiftDown(0);
  }
}

void EventQueue::SiftDown(size_t i) {
  const size_t n = heap_.size();
  if (i >= n) {
    return;
  }
  // Hole-based sift: carry the displaced entry in a local, pull the winning
  // child up into the hole each level, and store the carried entry once.
  const Entry moving = heap_[i];
  for (;;) {
    const size_t first = FirstChild(i);
    if (first >= n) {
      break;
    }
    size_t best = first;
    const size_t last = (first + 4 < n) ? first + 4 : n;
    for (size_t c = first + 1; c < last; ++c) {
      if (Before(heap_[c], heap_[best])) {
        best = c;
      }
    }
    if (!Before(heap_[best], moving)) {
      break;
    }
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = moving;
}

size_t EventQueue::NextSource() {
  for (;;) {
    size_t best = kNone;
    const Entry* least = nullptr;
    if (!heap_.empty()) {
      best = kHeap;
      least = &heap_.front();
    }
    for (uint32_t m = busy_runs_; m != 0; m &= m - 1) {
      const size_t r = static_cast<size_t>(std::countr_zero(m));
      if (least == nullptr || Before(runs_[r].front(), *least)) {
        best = r;
        least = &runs_[r].front();
      }
    }
    if (least == nullptr || slots_[least->slot].generation == least->gen) {
      return best;
    }
    --dead_queued_;
    DropHead(best);
  }
}

void EventQueue::DropHead(size_t src) {
  if (src == kHeap) {
    HeapPopTop();
    return;
  }
  runs_[src].PopFront();
  if (runs_[src].empty()) {
    busy_runs_ &= ~(1u << src);
  }
}

void EventQueue::MaybeSweepDead() {
  // Under a cancellation storm most queued entries are stale; compact them in
  // one O(n) pass instead of dropping each as it becomes the least. The pop
  // order of live entries is unchanged: runs are compacted stably (so they
  // stay sorted) and the heap is fully re-heapified under the same
  // comparator.
  size_t queued = heap_.size();
  for (const Ring<Entry>& run : runs_) {
    queued += run.size();
  }
  if (queued < 64 || dead_queued_ * 2 < queued) {
    return;
  }
  auto live = [this](const Entry& e) { return slots_[e.slot].generation == e.gen; };
  for (size_t i = 0; i < kRuns; ++i) {
    Ring<Entry>& run = runs_[i];
    size_t w = 0;
    for (size_t r = 0; r < run.size(); ++r) {
      if (live(run[r])) {
        run[w++] = run[r];
      }
    }
    run.Truncate(w);
    if (w == 0) {
      busy_runs_ &= ~(1u << i);
    }
  }
  size_t w = 0;
  for (size_t r = 0; r < heap_.size(); ++r) {
    if (live(heap_[r])) {
      heap_[w++] = heap_[r];
    }
  }
  heap_.resize(w);
  dead_queued_ = 0;
  if (w > 1) {
    for (size_t i = Parent(w - 1) + 1; i-- > 0;) {
      SiftDown(i);
    }
  }
}

void EventQueue::Take(size_t src, Entry& out, EventFn& fn) {
  out = Head(src);
  Slot& s = slots_[out.slot];
  // Retire before running: a Cancel() from inside the handler (or on a stale
  // copy of the handle) is a no-op and charges nothing.
  fn = std::move(s.fn);
  RetireSlot(out.slot);
  --live_count_;
  DropHead(src);
}

}  // namespace xk
