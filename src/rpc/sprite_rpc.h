// M_RPC: the monolithic Sprite RPC protocol (paper, Sections 3 and 4).
//
// One protocol, one header, implementing everything the SELECT / CHANNEL /
// FRAGMENT decomposition provides as three:
//
//  * a fixed pool of channels per server host, callers blocking when all are
//    busy (selection);
//  * request/reply pairing with at-most-once semantics and implicit
//    acknowledgements -- a reply acks its request, the next request acks the
//    previous reply -- with timeouts eliciting retransmissions and explicit
//    acks (channels);
//  * fragmentation of requests/replies up to 16 KB into 1 KB fragments,
//    where the fragments of one RPC are parts of a single transaction: a
//    reply implicitly acknowledges ALL fragments of the request, and a
//    partial acknowledgement (an ACK carrying the received-fragment mask)
//    triggers selective retransmission (fragmentation).
//
// Header (paper appendix, SPRITE_HDR, 36 bytes on the wire):
//   flags(2) clnt_host(4) srvr_host(4) channel(2) srvr_process(2)
//   sequence_num(4) num_frags(2) frag_mask(2) command(2) boot_id(4)
//   data1_sz(2) data2_sz(2) data1_offset(2) data2_offset(2)
// The dual data size/offset fields are carried for wire fidelity but always
// describe a single data area (the paper notes the x-kernel message tool
// makes the second area pointless).

#ifndef XK_SRC_RPC_SPRITE_RPC_H_
#define XK_SRC_RPC_SPRITE_RPC_H_

#include <map>
#include <memory>
#include <optional>
#include <tuple>
#include <vector>

#include "src/core/kernel.h"
#include "src/core/map.h"
#include "src/core/protocol.h"
#include "src/tools/semaphore.h"

namespace xk {

class SpriteClientSession;
class SpriteServerSession;

class SpriteRpcProtocol : public Protocol {
 public:
  static constexpr size_t kHeaderSize = 36;
  static constexpr size_t kFragSize = 1024;
  static constexpr size_t kMaxFrags = 16;
  static constexpr size_t kMaxMessage = kFragSize * kMaxFrags;  // 16 KB args/results
  static constexpr int kNumChannels = 8;
  static constexpr uint16_t kAnyCommand = 0xFFFF;

  // `lower` is any host-addressed delivery protocol: VIP, IP, or the
  // Ethernet open-time shim (for the M_RPC-ETH configuration).
  SpriteRpcProtocol(Kernel& kernel, Protocol* lower, std::string name = "sprite");

  void set_base_timeout(SimTime t) { base_timeout_ = t; }
  void set_retry_limit(int n) { retry_limit_ = n; }

  struct Stats {
    uint64_t calls_sent = 0;
    uint64_t requests_executed = 0;
    uint64_t fragments_sent = 0;
    uint64_t retransmissions = 0;        // timeout-driven fragment resends
    uint64_t selective_resends = 0;      // fragments resent from a partial ack
    uint64_t duplicates_suppressed = 0;  // duplicate requests not re-executed
    uint64_t replies_resent = 0;
    uint64_t explicit_acks_sent = 0;
    uint64_t boot_resets = 0;
    uint64_t blocked_on_channel = 0;
  };
  const Stats& stats() const { return stats_; }

 protected:
  Result<SessionRef> DoOpen(Protocol& hlp, const ParticipantSet& parts) override;
  Status DoOpenEnable(Protocol& hlp, const ParticipantSet& parts) override;
  Status DoDemux(Session* lls, Message& msg) override;
  Status DoControl(ControlOp op, ControlArgs& args) override;

 private:
  friend class SpriteClientSession;
  friend class SpriteServerSession;

  struct Header {
    uint16_t flags = 0;
    IpAddr clnt_host;
    IpAddr srvr_host;
    uint16_t channel = 0;
    uint16_t srvr_process = 0;
    uint32_t seq = 0;
    uint16_t num_frags = 0;
    uint16_t frag_mask = 0;
    uint16_t command = 0;
    uint32_t boot_id = 0;
    uint16_t data1_sz = 0;
  };

  // Gathers fragments of one message.
  struct Collect {
    uint16_t num_frags = 0;
    uint16_t have_mask = 0;
    std::vector<Message> frags;

    void Reset(uint16_t num) {
      num_frags = num;
      have_mask = 0;
      frags.assign(num, Message());
    }
    bool Complete() const;
    Message Join(Kernel& kernel) const;
  };

  // Client-side channel state.
  struct ClientChannel {
    uint32_t seq = 0;
    bool busy = false;
    // Outstanding call on this channel.
    Message request;
    uint16_t command = 0;
    std::vector<Message> request_frags;
    uint16_t server_has_mask = 0;  // from partial acks
    int retries = 0;
    bool acked = false;
    EventHandle timer;
    std::shared_ptr<SpriteClientSession> caller;
    Collect reply;  // reply fragments being collected
  };

  struct ClientPool {
    std::vector<ClientChannel> channels;
    std::unique_ptr<XSemaphore> available;
    SessionRef lower;
  };

  // Server-side channel state, keyed (client host, channel id).
  struct ServerChannel {
    uint32_t cur_seq = 0;
    bool in_progress = false;
    Collect request;
    std::optional<Message> saved_reply;
    uint16_t last_command = 0;
    uint32_t clnt_boot_id = 0;
    SessionRef reply_lls;
    std::shared_ptr<SpriteServerSession> server_sess;
  };

  Result<ClientPool*> PoolFor(IpAddr server);
  void SendPacket(Session& lls, const Header& hdr, const Message& payload);
  static std::vector<Message> Fragment(Kernel& kernel, const Message& msg);
  void StartCall(IpAddr server, ClientPool& pool, size_t index,
                 std::shared_ptr<SpriteClientSession> caller, uint16_t command, Message msg);
  void SendRequestFrags(IpAddr server, ClientPool& pool, size_t index, uint16_t resend_mask,
                        bool please_ack);
  void ArmTimer(IpAddr server, size_t index);
  void OnTimeout(IpAddr server, size_t index);
  void ReleaseChannel(ClientPool& pool, size_t index);

  Status HandleRequest(const Header& hdr, Message& payload, Session* lls);
  Status HandleReplyOrAck(const Header& hdr, Message& payload);
  void SendReplyFrags(ServerChannel& chan, IpAddr clnt, uint16_t channel_id,
                      const Message& reply);

  using SessKey = std::tuple<IpAddr, uint16_t>;  // (server host, command)
  using ServKey = std::tuple<IpAddr, uint16_t>;  // (client host, channel)

  DemuxMap<SessKey> active_;                   // client sessions
  DemuxMap<uint16_t, Protocol*> passive_;      // command -> server hlp
  std::map<IpAddr, ClientPool> client_pools_;
  std::map<ServKey, ServerChannel> server_chans_;
  SimTime base_timeout_ = Msec(50);
  int retry_limit_ = 5;
  Stats stats_;
};

// Client session: one per (server host, command); calls multiplex over the
// per-host channel pool.
class SpriteClientSession : public Session {
 public:
  SpriteClientSession(SpriteRpcProtocol& owner, Protocol* hlp, IpAddr server, uint16_t command);

  IpAddr server() const { return server_; }
  uint16_t command() const { return command_; }

 protected:
  Status DoPush(Message& msg) override;
  Status DoPop(Message& msg, Session* lls) override;
  Status DoControl(ControlOp op, ControlArgs& args) override;

 private:
  SpriteRpcProtocol& rpc_;
  IpAddr server_;
  uint16_t command_;
};

// Server session: one per (client host, channel); the server anchor pushes
// its reply into it.
class SpriteServerSession : public Session {
 public:
  SpriteServerSession(SpriteRpcProtocol& owner, Protocol* hlp, IpAddr clnt, uint16_t channel);

  uint16_t last_command() const;

 protected:
  Status DoPush(Message& msg) override;
  Status DoPop(Message& msg, Session* lls) override;
  Status DoControl(ControlOp op, ControlArgs& args) override;

 private:
  SpriteRpcProtocol& rpc_;
  IpAddr clnt_;
  uint16_t channel_;
};

}  // namespace xk

#endif  // XK_SRC_RPC_SPRITE_RPC_H_
