// FRAGMENT: unreliable-but-persistent bulk transfer (paper, Section 3.2).
//
// The bulk-transfer function carved out of Sprite RPC as an independent,
// reusable protocol:
//
//  * UNRELIABLE: messages may arrive out of order, duplicated, or not at all;
//    the receiver never sends a positive acknowledgement.
//  * PERSISTENT: a receiver that detects missing fragments asks the sender
//    for exactly those fragments; the sender keeps a copy of every message it
//    sent until a per-message timer expires and resends on request.
//
// A high-level protocol that needs a reply (CHANNEL) keeps its own timer and
// may resend the whole message; FRAGMENT treats the resend as an independent
// message with a fresh sequence number.
//
// Because FRAGMENT is meant to be used by multiple high-level protocols
// (CHANNEL, Psync, ...), its header carries its own 32-bit protocol number
// field -- one of the costs of making a layer a stand-alone protocol that the
// paper calls out explicitly.
//
// Header (paper appendix, FRAGMENT_HDR):
//   type(1) clnt_host(4) srvr_host(4) protocol_num(4) sequence_num(4)
//   num_frags(2) frag_mask(2) len(2)   -- 23 bytes
// where clnt_host is the SENDER of this packet and srvr_host the receiver.

#ifndef XK_SRC_RPC_FRAGMENT_H_
#define XK_SRC_RPC_FRAGMENT_H_

#include <map>
#include <tuple>
#include <vector>

#include "src/core/kernel.h"
#include "src/core/map.h"
#include "src/core/protocol.h"
#include "src/sim/ring.h"

namespace xk {

class FragmentProtocol : public Protocol {
 public:
  static constexpr size_t kHeaderSize = 23;
  // Sprite fragments on ~1 KB boundaries. The fragment size leaves room for
  // the CHANNEL and SELECT headers above, so a 16 KB RPC payload is still
  // exactly 16 fragments (the paper's "FRAGMENT handles 16 messages").
  static constexpr size_t kFragSize = 1056;
  static constexpr size_t kMaxFrags = 16;  // frag_mask is 16 bits
  static constexpr size_t kMaxMessage = kFragSize * kMaxFrags;

  // `lower` is any IP-semantics delivery protocol (VIP, IP, VIP_ADDR).
  FragmentProtocol(Kernel& kernel, Protocol* lower, std::string name = "fragment");

  // Tuning knobs (tests shrink these).
  void set_send_cache_timeout(SimTime t) { send_cache_timeout_ = t; }
  void set_nack_delay(SimTime t) { nack_delay_ = t; }
  void set_max_nacks(int n) { max_nacks_ = n; }

  struct Stats {
    uint64_t messages_sent = 0;
    uint64_t fragments_sent = 0;
    uint64_t nacks_sent = 0;
    uint64_t nacks_received = 0;
    uint64_t fragments_resent = 0;
    uint64_t reassembly_abandoned = 0;
    uint64_t cache_expirations = 0;
    uint64_t stale_nacks = 0;  // NACK for a message no longer cached
  };
  const Stats& stats() const { return stats_; }

 protected:
  Result<SessionRef> DoOpen(Protocol& hlp, const ParticipantSet& parts) override;
  Status DoOpenEnable(Protocol& hlp, const ParticipantSet& parts) override;
  Status DoDemux(Session* lls, Message& msg) override;
  Status DoControl(ControlOp op, ControlArgs& args) override;

 private:
  friend class FragmentSession;
  using Key = std::tuple<IpAddr, RelProtoNum>;  // (peer host, client protocol)

  DemuxMap<Key> active_;
  DemuxMap<RelProtoNum, Protocol*> passive_;
  SimTime send_cache_timeout_ = Msec(1000);
  SimTime nack_delay_ = Msec(20);
  int max_nacks_ = 3;
  Stats stats_;
};

class FragmentSession : public Session {
 public:
  FragmentSession(FragmentProtocol& owner, Protocol* hlp, IpAddr peer, RelProtoNum proto,
                  SessionRef lower);

  // Demux entry: handles one FRAGMENT packet addressed to this session.
  Status HandlePacket(uint8_t type, uint32_t seq, uint16_t num_frags, uint16_t frag_mask,
                      Message& payload, Session* lls);

 protected:
  Status DoPush(Message& msg) override;
  Status DoPop(Message& msg, Session* lls) override;
  Status DoControl(ControlOp op, ControlArgs& args) override;
  Session* lower_for_control() const override { return lower_.get(); }

 private:
  struct SendRecord {
    // Payload slices, headers rebuilt on resend; empty once discarded.
    std::vector<Message> frags;
  };
  struct Reasm {
    std::vector<Message> frags;
    uint16_t num_frags = 0;
    uint16_t have_mask = 0;
    int nacks = 0;
    EventHandle gap_timer;
  };

  void SendFragment(uint32_t seq, uint16_t num_frags, uint16_t index, const Message& payload,
                    uint8_t type);
  void SendNack(uint32_t seq, uint16_t missing_mask);
  void OnGapTimer(uint32_t seq);
  void OnNack(uint32_t seq, uint16_t missing_mask);
  // The cached record for `seq`, or null if it was discarded (or never sent).
  SendRecord* FindSent(uint32_t seq);
  void DiscardSent(uint32_t seq);
  Status CompleteReassembly(uint32_t seq, Reasm& r);
  void ArmGapTimer(uint32_t seq);

  FragmentProtocol& frag_;
  IpAddr peer_;
  RelProtoNum proto_;
  SessionRef lower_;
  uint32_t next_seq_ = 1;
  // Sequence-indexed send cache: records for next_seq_ - size() .. next_seq_ - 1,
  // in order. Sequence numbers are assigned in order, so a send appends; a
  // discard empties its record and then pops empty records off the front,
  // which stays correct when discards run out of sequence order.
  Ring<SendRecord> send_cache_;
  std::map<uint32_t, Reasm> reasm_;
  // Recently completed sequence numbers (sliding window) so late duplicate
  // fragments don't rebuild reassembly state.
  std::vector<uint32_t> recent_done_;
};

}  // namespace xk

#endif  // XK_SRC_RPC_FRAGMENT_H_
