// Shared-bus 10 Mbps Ethernet segment.
//
// The link carries flat byte frames between attached stations. Transmissions
// serialize on the bus (a frame ready while the bus is busy queues behind it,
// which is what lets back-to-back fragments of a 16 KB message saturate the
// wire). Delivery filters on the destination address in the frame's first six
// bytes; broadcast frames go to every station except the sender.
//
// Fault injection: tests install a hook that can drop, duplicate, or corrupt
// individual deliveries, and/or set a uniform drop rate, to drive every
// retransmission path in the protocols above.

#ifndef XK_SRC_SIM_LINK_H_
#define XK_SRC_SIM_LINK_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "src/core/types.h"
#include "src/sim/cost_model.h"
#include "src/sim/event_queue.h"
#include "src/sim/rng.h"
#include "src/stat/histogram.h"

namespace xk {

class PacketCapture;
class SegmentSeries;
class TraceSink;

// A raw Ethernet frame on the wire: header (dst, src, type) + payload, as one
// flat byte vector. Only the Ethernet protocol interprets the full framing;
// the link peeks at the destination address for delivery filtering.
struct EthFrame {
  std::vector<uint8_t> bytes;

  // Host-side observability bookkeeping, never serialized: the trace id of
  // the Message this frame carries, stamped by the transmitting driver so
  // wire records and the receive path can be tied back to the sender's
  // spans. Not wire bytes -- packet formats and timing are unchanged.
  uint64_t trace_msg_id = 0;

  EthAddr Dst() const;
  EthAddr Src() const;
};

// Implemented by network interfaces (device drivers) attached to a segment.
class FrameSink {
 public:
  virtual ~FrameSink() = default;

  // Called at frame arrival time. The sink is responsible for charging
  // interrupt and copy costs to its host CPU. The frame is only borrowed for
  // the duration of the call.
  virtual void FrameArrived(const EthFrame& frame) = 0;
};

// Per-delivery fault decision.
enum class LinkFault : uint8_t {
  kDeliver,
  kDrop,
  kDuplicate,  // deliver twice (second copy one transmit-time later)
  kCorrupt,    // deliver with the last byte's bits flipped
};

// Extended per-delivery fault decision (FaultEngine): the verdict plus an
// extra in-flight delay and, for kCorrupt, which byte to flip (SIZE_MAX =
// the last byte, matching the legacy hook).
struct DeliveryFault {
  LinkFault verdict = LinkFault::kDeliver;
  SimTime extra_delay = 0;
  size_t corrupt_offset = SIZE_MAX;
};

class EthernetSegment {
 public:
  EthernetSegment(EventQueue& events, WireModel wire, uint64_t fault_seed = 1);

  // Attaches a station; returns its attachment id. Re-attaching the address
  // of a detached station reuses its id, so a host that crashes and restarts
  // keeps its slot.
  int Attach(EthAddr addr, FrameSink* sink);

  // Detaches station `id` (its NIC went down). In-flight frames addressed to
  // it are dropped at arrival time and counted in down_drops().
  void Detach(int id);

  // Queues `frame` for transmission; the frame was handed to the controller
  // at `ready_at` (the sending CPU's task clock). Transmission starts when
  // the bus frees up. Bus arbitration, fault injection, statistics and
  // observer records all happen here; each delivery is scheduled on the
  // segment's event queue. The frame buffer travels by shared_ptr the whole
  // way (driver -> segment -> receivers), so a pooled frame is reused intact;
  // the by-value overload wraps for callers that build frames ad hoc.
  void Transmit(int sender_id, std::shared_ptr<EthFrame> frame, SimTime ready_at);
  void Transmit(int sender_id, EthFrame frame, SimTime ready_at);

  // Batches the deliveries one transmission creates for the same arrival
  // timestamp (a broadcast burst) into a single heap event that fires them
  // in creation order. Provably invisible to the simulation: members occupy
  // adjacent sequence numbers in the unbatched schedule (Transmit schedules
  // them back-to-back with nothing in between), so no other same-time event
  // can interleave, and fired-event counts are preserved via
  // EventQueue::AddExtraFired. Default on.
  void set_batched_delivery(bool on) { batched_delivery_ = on; }
  bool batched_delivery() const { return batched_delivery_; }

  // Uniform random drop probability applied to every delivery.
  void set_drop_rate(double p) { drop_rate_ = p; }

  // Test hook consulted per (frame, receiver) delivery; applied after the
  // uniform drop rate. `delivery_index` counts deliveries since construction
  // so tests can target "the 3rd frame".
  using FaultHook = std::function<LinkFault(const EthFrame& frame, int receiver_id,
                                            uint64_t delivery_index)>;
  void set_fault_hook(FaultHook hook) { fault_hook_ = std::move(hook); }

  // Extended hook (FaultEngine): takes precedence over the legacy hook when
  // set, sees the scheduled arrival time, and can additionally delay the
  // delivery or pick the corrupted byte. Consulted at the same point in
  // Transmit as the legacy hook.
  using FaultHookEx = std::function<DeliveryFault(const EthFrame& frame, int receiver_id,
                                                  uint64_t delivery_index, SimTime arrival)>;
  void set_fault_hook_ex(FaultHookEx hook) { fault_hook_ex_ = std::move(hook); }

  // --- observability ----------------------------------------------------------
  // Optional observers (owned by the caller; null detaches). Recording never
  // charges simulated cost or advances the simulated clock.
  void set_trace(TraceSink* trace) { trace_ = trace; }
  void set_capture(PacketCapture* capture) { capture_ = capture; }
  // Time-series hook fed one record per bus acquisition (src/stat).
  void set_stats(SegmentSeries* stats) { stats_ = stats; }
  // Segment id stamped into wire/capture records (set by the topology).
  void set_observer_id(int id) { observer_id_ = id; }

  // --- statistics ------------------------------------------------------------
  uint64_t frames_sent() const { return frames_sent_; }
  uint64_t bytes_sent() const { return bytes_sent_; }
  uint64_t frames_dropped() const { return frames_dropped_; }
  // Fault-injection outcomes, by cause. frames_dropped() counts both drop
  // kinds; duplicates/corruptions count deliveries that were altered.
  uint64_t random_drops() const { return random_drops_; }
  uint64_t fault_drops() const { return fault_drops_; }
  uint64_t fault_duplicates() const { return fault_duplicates_; }
  uint64_t fault_corruptions() const { return fault_corruptions_; }
  // Frames that arrived at a detached station (receiver host was down).
  // Not part of frames_dropped(): the wire delivered them; the NIC was gone.
  uint64_t down_drops() const { return down_drops_; }
  // Total time the bus spent transmitting (utilization = busy/elapsed).
  SimTime bus_busy_time() const { return bus_busy_time_; }

  // --- queueing statistics ----------------------------------------------------
  // A frame "queued" if the bus was busy when its sender handed it over
  // (start > ready). Depth is measured at each bus acquisition: frames still
  // waiting behind the acquiring one, including it if it had to wait.
  uint64_t queued_frames() const { return queued_frames_; }
  uint64_t peak_queue_depth() const { return peak_queue_depth_; }
  // Mean depth over all sent frames, scaled by 1000 (integer, for
  // deterministic JSON).
  uint64_t mean_queue_depth_x1000() const {
    return frames_sent_ == 0 ? 0 : queue_depth_sum_ * 1000 / frames_sent_;
  }
  // Per-frame queueing delay (start - ready), as a histogram.
  const Histogram& queue_wait() const { return queue_wait_; }
  void ResetStats();

 private:
  struct Station {
    EthAddr addr;
    FrameSink* sink;
  };

  // Schedules one unbatched delivery on the segment's event queue.
  void DeliverAt(SimTime at, std::shared_ptr<const EthFrame> frame, int receiver_id);

  // Fires one delivery: looks the sink up NOW (not at schedule time), so a
  // frame in flight toward a host that crashed meanwhile is dropped here
  // rather than delivered through a dangling pointer.
  void FireDelivery(int receiver_id, const EthFrame& frame);

  // One delivery pending inside the current Transmit call (batched path).
  // rid < 0 marks a member already folded into a batch.
  struct BatchMember {
    SimTime at;
    int rid;
    std::shared_ptr<const EthFrame> frame;
  };
  void FlushBatchedDeliveries();

  EventQueue& events_;
  WireModel wire_;
  Rng rng_;
  std::vector<Station> stations_;
  SimTime bus_free_at_ = 0;
  double drop_rate_ = 0.0;
  FaultHook fault_hook_;
  FaultHookEx fault_hook_ex_;
  uint64_t delivery_index_ = 0;
  bool batched_delivery_ = true;
  // Scratch for the batched path; reused across transmissions. Safe against
  // reentrancy: it is drained before Transmit returns, and firing a
  // batch iterates a captured copy, not this vector.
  std::vector<BatchMember> batch_scratch_;

  TraceSink* trace_ = nullptr;
  PacketCapture* capture_ = nullptr;
  SegmentSeries* stats_ = nullptr;
  int observer_id_ = 0;

  uint64_t frames_sent_ = 0;
  uint64_t bytes_sent_ = 0;
  uint64_t frames_dropped_ = 0;
  uint64_t random_drops_ = 0;
  uint64_t fault_drops_ = 0;
  uint64_t fault_duplicates_ = 0;
  uint64_t fault_corruptions_ = 0;
  uint64_t down_drops_ = 0;
  SimTime bus_busy_time_ = 0;

  // Start times of frames that have not begun transmitting as of the last
  // arrival (bus state, like bus_free_at_; not cleared by ResetStats).
  std::deque<SimTime> pending_starts_;
  uint64_t queued_frames_ = 0;
  uint64_t peak_queue_depth_ = 0;
  uint64_t queue_depth_sum_ = 0;
  Histogram queue_wait_;
};

}  // namespace xk

#endif  // XK_SRC_SIM_LINK_H_
