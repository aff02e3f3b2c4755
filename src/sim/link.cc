#include "src/sim/link.h"

#include <cassert>
#include <utility>

#include "src/sim/object_pool.h"
#include "src/stat/timeseries.h"
#include "src/trace/pcap.h"
#include "src/trace/trace.h"

namespace xk {

namespace {
EthAddr AddrAt(const std::vector<uint8_t>& bytes, size_t off) {
  std::array<uint8_t, 6> a = {};
  if (bytes.size() >= off + 6) {
    for (size_t i = 0; i < 6; ++i) {
      a[i] = bytes[off + i];
    }
  }
  return EthAddr(a);
}
}  // namespace

EthAddr EthFrame::Dst() const { return AddrAt(bytes, 0); }
EthAddr EthFrame::Src() const { return AddrAt(bytes, 6); }

EthernetSegment::EthernetSegment(EventQueue& events, WireModel wire, uint64_t fault_seed)
    : events_(events), wire_(wire), rng_(fault_seed) {}

int EthernetSegment::Attach(EthAddr addr, FrameSink* sink) {
  // A restarting host reclaims its old slot so station ids (and with them the
  // sender ids captured by upper layers) stay stable across crash/restart.
  for (size_t i = 0; i < stations_.size(); ++i) {
    if (stations_[i].sink == nullptr && stations_[i].addr == addr) {
      stations_[i].sink = sink;
      return static_cast<int>(i);
    }
  }
  stations_.push_back(Station{addr, sink});
  return static_cast<int>(stations_.size()) - 1;
}

void EthernetSegment::Detach(int id) { stations_[id].sink = nullptr; }

void EthernetSegment::FireDelivery(int receiver_id, const EthFrame& frame) {
  FrameSink* sink = stations_[receiver_id].sink;
  if (sink == nullptr) {
    ++down_drops_;
    return;
  }
  sink->FrameArrived(frame);
}

void EthernetSegment::DeliverAt(SimTime at, std::shared_ptr<const EthFrame> frame,
                                int receiver_id) {
  // The sink is looked up when the event fires, not here: the receiver may
  // crash (detach) while the frame is in flight.
  events_.ScheduleAt(at,
                     [this, receiver_id, f = std::move(frame)]() { FireDelivery(receiver_id, *f); });
}

void EthernetSegment::Transmit(int sender_id, EthFrame frame, SimTime ready_at) {
  auto pooled = AcquirePooled<EthFrame>();
  *pooled = std::move(frame);
  Transmit(sender_id, std::move(pooled), ready_at);
}

void EthernetSegment::Transmit(int sender_id, std::shared_ptr<EthFrame> frame,
                               SimTime ready_at) {
  assert(sender_id >= 0 && static_cast<size_t>(sender_id) < stations_.size());
  const SimTime start = ready_at > bus_free_at_ ? ready_at : bus_free_at_;
  const SimTime tx = wire_.TransmitTime(frame->bytes.size());
  const SimTime end = start + tx;
  bus_free_at_ = end;
  bus_busy_time_ += tx;
  ++frames_sent_;
  bytes_sent_ += frame->bytes.size();

  // Queueing statistics. Frames whose start is at or before our ready time
  // have begun transmitting; the rest (plus this frame, if it had to wait)
  // are queued behind the bus.
  while (!pending_starts_.empty() && pending_starts_.front() <= ready_at) {
    pending_starts_.pop_front();
  }
  const SimTime wait = start - ready_at;
  pending_starts_.push_back(start);
  const uint64_t depth = pending_starts_.size() - (wait == 0 ? 1 : 0);
  if (wait > 0) {
    ++queued_frames_;
  }
  queue_depth_sum_ += depth;
  if (depth > peak_queue_depth_) {
    peak_queue_depth_ = depth;
  }
  queue_wait_.Record(wait);

  // Receivers share one immutable buffer; only a corrupted delivery copies.
  const std::shared_ptr<const EthFrame> shared = std::move(frame);
  const EthAddr dst = shared->Dst();
  const bool broadcast = dst.IsBroadcast();
  const SimTime arrival = end + wire_.propagation;

  if (trace_ != nullptr) {
    trace_->RecordWire(observer_id_, start, end, arrival, shared->bytes.size(), depth, wait,
                       shared->trace_msg_id);
  }
  if (stats_ != nullptr) {
    stats_->OnTransmit(start, tx, shared->bytes.size(), depth);
  }

  // When batching, collect this transmission's deliveries and fold same-time
  // ones into a single heap event (FlushBatchedDeliveries).
  for (size_t i = 0; i < stations_.size(); ++i) {
    const int rid = static_cast<int>(i);
    if (rid == sender_id) {
      continue;
    }
    if (!broadcast && stations_[i].addr != dst) {
      continue;
    }
    const uint64_t index = delivery_index_++;
    CaptureVerdict verdict = CaptureVerdict::kDelivered;
    if (drop_rate_ > 0.0 && rng_.Chance(drop_rate_)) {
      ++frames_dropped_;
      ++random_drops_;
      verdict = CaptureVerdict::kDropped;
    } else {
      DeliveryFault fault;
      if (fault_hook_ex_) {
        fault = fault_hook_ex_(*shared, rid, index, arrival);
      } else if (fault_hook_) {
        fault.verdict = fault_hook_(*shared, rid, index);
      }
      const SimTime at = arrival + fault.extra_delay;
      switch (fault.verdict) {
        case LinkFault::kDrop:
          ++frames_dropped_;
          ++fault_drops_;
          verdict = CaptureVerdict::kDropped;
          break;
        case LinkFault::kDuplicate:
          ++fault_duplicates_;
          verdict = CaptureVerdict::kDuplicated;
          if (batched_delivery_) {
            batch_scratch_.push_back(BatchMember{at, rid, shared});
            batch_scratch_.push_back(BatchMember{at + tx, rid, shared});
          } else {
            DeliverAt(at, shared, rid);
            DeliverAt(at + tx, shared, rid);
          }
          break;
        case LinkFault::kCorrupt: {
          ++fault_corruptions_;
          verdict = CaptureVerdict::kCorrupted;
          EthFrame bad = *shared;
          if (!bad.bytes.empty()) {
            const size_t off =
                fault.corrupt_offset < bad.bytes.size() ? fault.corrupt_offset : bad.bytes.size() - 1;
            bad.bytes[off] ^= 0xFF;
          }
          auto bad_frame = AcquirePooled<EthFrame>();
          *bad_frame = std::move(bad);
          if (batched_delivery_) {
            batch_scratch_.push_back(BatchMember{at, rid, std::move(bad_frame)});
          } else {
            DeliverAt(at, std::move(bad_frame), rid);
          }
          break;
        }
        case LinkFault::kDeliver:
          if (batched_delivery_) {
            batch_scratch_.push_back(BatchMember{at, rid, shared});
          } else {
            DeliverAt(at, shared, rid);
          }
          break;
      }
    }
    if (capture_ != nullptr) {
      capture_->Record(observer_id_, rid, start, arrival, shared->bytes, verdict);
    }
  }
  if (batched_delivery_ && !batch_scratch_.empty()) {
    FlushBatchedDeliveries();
  }
}

void EthernetSegment::FlushBatchedDeliveries() {
  // Greedy scan by first appearance: every member sharing a timestamp joins
  // one event, fired in creation order -- which is exactly the order the
  // unbatched schedule would fire them (they hold adjacent sequence numbers,
  // and no other same-time event can sit between). Members folded into a
  // group are marked rid = -1.
  for (size_t i = 0; i < batch_scratch_.size(); ++i) {
    BatchMember& head = batch_scratch_[i];
    if (head.rid < 0) {
      continue;
    }
    size_t n = 1;
    for (size_t j = i + 1; j < batch_scratch_.size(); ++j) {
      if (batch_scratch_[j].rid >= 0 && batch_scratch_[j].at == head.at) {
        ++n;
      }
    }
    if (n == 1) {
      events_.ScheduleAt(head.at, [this, rid = head.rid, f = std::move(head.frame)]() {
        FireDelivery(rid, *f);
      });
      head.rid = -1;
      continue;
    }
    std::vector<BatchMember> group;
    group.reserve(n);
    group.push_back(std::move(head));
    head.rid = -1;
    for (size_t j = i + 1; j < batch_scratch_.size(); ++j) {
      BatchMember& m = batch_scratch_[j];
      if (m.rid >= 0 && m.at == group.front().at) {
        group.push_back(std::move(m));
        m.rid = -1;
      }
    }
    const SimTime group_at = group.front().at;
    events_.ScheduleAt(group_at, [this, g = std::move(group)]() {
      for (const BatchMember& m : g) {
        FireDelivery(m.rid, *m.frame);
      }
      // One scheduled event stands in for g.size() unbatched ones; keep the
      // fired-event count identical to the unbatched schedule.
      events_.AddExtraFired(g.size() - 1);
    });
  }
  batch_scratch_.clear();
}

void EthernetSegment::ResetStats() {
  frames_sent_ = 0;
  bytes_sent_ = 0;
  frames_dropped_ = 0;
  random_drops_ = 0;
  fault_drops_ = 0;
  fault_duplicates_ = 0;
  fault_corruptions_ = 0;
  down_drops_ = 0;
  bus_busy_time_ = 0;
  queued_frames_ = 0;
  peak_queue_depth_ = 0;
  queue_depth_sum_ = 0;
  queue_wait_.Reset();
}

}  // namespace xk
