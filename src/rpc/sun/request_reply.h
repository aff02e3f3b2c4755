// REQUEST_REPLY: the pairing layer of decomposed Sun RPC (paper, Section 5,
// "Mix and Match RPCs").
//
// Pairs requests with replies by transaction id (xid) with ZERO-OR-MORE
// semantics -- the defining contrast with CHANNEL's at-most-once: the server
// keeps NO duplicate-filtering state, so a retransmitted request is executed
// again. (Sun RPC over UDP has exactly these semantics.) The paper's point is
// that the two pairing layers are interchangeable parts: composing SUN_SELECT
// with CHANNEL instead of REQUEST_REPLY upgrades Sun RPC to at-most-once
// without touching any other layer.
//
// Header: type(1) xid(4) protocol_num(4) -- 9 bytes.

#ifndef XK_SRC_RPC_SUN_REQUEST_REPLY_H_
#define XK_SRC_RPC_SUN_REQUEST_REPLY_H_

#include <map>
#include <tuple>

#include "src/core/kernel.h"
#include "src/core/map.h"
#include "src/core/protocol.h"

namespace xk {

class RequestReplyProtocol : public Protocol {
 public:
  static constexpr size_t kHeaderSize = 9;

  // `lower` is FRAGMENT, VIP, or IP.
  RequestReplyProtocol(Kernel& kernel, Protocol* lower, std::string name = "reqrep");

  void set_timeout(SimTime t) { timeout_ = t; }
  void set_retry_limit(int n) { retry_limit_ = n; }

  struct Stats {
    uint64_t calls_sent = 0;
    uint64_t requests_executed = 0;  // includes re-executions of duplicates
    uint64_t retransmissions = 0;
  };
  const Stats& stats() const { return stats_; }

 protected:
  Result<SessionRef> DoOpen(Protocol& hlp, const ParticipantSet& parts) override;
  Status DoOpenEnable(Protocol& hlp, const ParticipantSet& parts) override;
  Status DoDemux(Session* lls, Message& msg) override;
  Status DoControl(ControlOp op, ControlArgs& args) override;

 private:
  friend class RequestReplySession;
  using Key = std::tuple<IpAddr, RelProtoNum>;

  DemuxMap<Key> active_;
  DemuxMap<RelProtoNum, Protocol*> passive_;
  SimTime timeout_ = Msec(100);
  int retry_limit_ = 4;
  Stats stats_;
};

class RequestReplySession : public Session {
 public:
  RequestReplySession(RequestReplyProtocol& owner, Protocol* hlp, IpAddr peer, RelProtoNum proto,
                      SessionRef lower);

  Status HandlePacket(uint8_t type, uint32_t xid, Message& payload, Session* lls);

  size_t outstanding_calls() const { return pending_.size(); }

 protected:
  // With a request from the peer executing, Push sends its reply; otherwise
  // it starts a new call. Multiple calls may be outstanding (xid-matched).
  Status DoPush(Message& msg) override;
  Status DoPop(Message& msg, Session* lls) override;
  Status DoControl(ControlOp op, ControlArgs& args) override;
  Session* lower_for_control() const override { return lower_.get(); }

 private:
  struct PendingCall {
    Message request;
    int retries = 0;
    SimTime deadline = 0;  // absolute; 0 = none
    EventHandle timer;
  };

  void Send(uint8_t type, uint32_t xid, const Message& payload);
  void ArmTimer(uint32_t xid);
  void OnTimeout(uint32_t xid);

  RequestReplyProtocol& rr_;
  IpAddr peer_;
  RelProtoNum proto_;
  SessionRef lower_;
  uint32_t next_xid_ = 1;
  std::map<uint32_t, PendingCall> pending_;
  // Server side: xid of the request currently being executed (LIFO depth 1 is
  // enough: the server anchor replies synchronously from its upcall).
  std::optional<uint32_t> executing_xid_;
};

}  // namespace xk

#endif  // XK_SRC_RPC_SUN_REQUEST_REPLY_H_
