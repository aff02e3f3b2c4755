// IP: internet datagram delivery with fragmentation, reassembly, and routing.
//
// "IP is able to deliver 64k-byte packets to any host in the Internet"
// (paper, Figure 2). Inserting IP under an RPC protocol costs a measurable
// fixed overhead per packet -- the 0.37 ms round-trip penalty that motivates
// VIP -- which here emerges from the 20-byte header store/load, the header
// checksum, and the routing lookup on each traversal.
//
// Sessions are keyed (destination host, protocol number). Hosts have one
// interface; routers are kernels with several interfaces and forwarding
// enabled -- forwarded datagrams have their TTL decremented and checksum
// recomputed, and fragments are forwarded without reassembly.

#ifndef XK_SRC_PROTO_IP_H_
#define XK_SRC_PROTO_IP_H_

#include <map>
#include <tuple>
#include <vector>

#include "src/core/kernel.h"
#include "src/core/map.h"
#include "src/core/protocol.h"
#include "src/proto/arp.h"

namespace xk {

// One attachment of IP to an Ethernet (a host has one; routers several).
struct IpInterface {
  Protocol* eth = nullptr;  // the EthProtocol below
  ArpProtocol* arp = nullptr;
  IpAddr addr{};
  int mask_bits = 24;
};

// Parsed IP header (wire format is built/parsed explicitly in ip.cc).
struct IpHeader {
  uint8_t tos = 0;
  uint16_t total_len = 0;
  uint16_t id = 0;
  bool more_fragments = false;
  uint16_t frag_offset_bytes = 0;  // multiple of 8
  uint8_t ttl = 64;
  IpProtoNum proto = 0;
  IpAddr src{};
  IpAddr dst{};
};

class IpProtocol final : public Protocol {
 public:
  static constexpr size_t kHeaderSize = 20;
  static constexpr size_t kMaxDatagram = 65535;
  static constexpr SimTime kReassemblyTimeout = Sec(5);

  IpProtocol(Kernel& kernel, std::vector<IpInterface> interfaces, std::string name = "ip");

  // Routers forward datagrams not addressed to them.
  void set_forwarding(bool on) { forwarding_ = on; }

  // Routes: destination subnet (masked to the interface mask) -> gateway.
  void AddRoute(IpAddr subnet, IpAddr gateway);
  void SetDefaultGateway(IpAddr gw) { default_gateway_ = gw; }

  void OpenAsync(Protocol& hlp, const ParticipantSet& parts, OpenCallback done) override;

  // --- statistics -------------------------------------------------------------
  struct Stats {
    uint64_t datagrams_sent = 0;
    uint64_t fragments_sent = 0;
    uint64_t reassemblies_completed = 0;
    uint64_t reassembly_timeouts = 0;
    uint64_t checksum_failures = 0;
    uint64_t forwards = 0;
    uint64_t ttl_drops = 0;
    uint64_t no_route_drops = 0;
  };
  const Stats& stats() const { return stats_; }

 protected:
  Result<SessionRef> DoOpen(Protocol& hlp, const ParticipantSet& parts) override;
  Status DoOpenEnable(Protocol& hlp, const ParticipantSet& parts) override;
  Status DoDemux(Session* lls, Message& msg) override;
  Status DoControl(ControlOp op, ControlArgs& args) override;

 private:
  friend class IpSession;
  using Key = std::tuple<IpAddr, IpProtoNum>;  // (peer host, protocol)
  struct ReasmKey {
    IpAddr src;
    IpAddr dst;
    IpProtoNum proto;
    uint16_t id;
    bool operator<(const ReasmKey& o) const {
      return std::tie(src, dst, proto, id) < std::tie(o.src, o.dst, o.proto, o.id);
    }
  };
  struct Reasm {
    std::map<uint16_t, Message> frags;  // offset-bytes -> payload
    size_t total_len = SIZE_MAX;        // known once the last fragment arrives
    EventHandle timer;
  };

  // Picks the outgoing interface and next hop for `dst`. Returns null if no
  // route exists.
  const IpInterface* Route(IpAddr dst, IpAddr* next_hop) const;

  // Opens the ETH session toward `next_hop` on `ifc` (cache-only ARP).
  Result<SessionRef> OpenLower(const IpInterface& ifc, IpAddr next_hop);

  bool IsLocalAddr(IpAddr a) const;
  Status Forward(const IpHeader& hdr, Message& msg);
  Result<Message> Reassemble(const IpHeader& hdr, Message& msg);  // empty result => incomplete
  Status DeliverToSession(const IpHeader& hdr, Session* lls, Message& msg);

  uint16_t NextId() { return next_id_++; }

  std::vector<IpInterface> interfaces_;
  bool forwarding_ = false;
  std::map<IpAddr, IpAddr> routes_;  // masked subnet -> gateway
  std::optional<IpAddr> default_gateway_;
  DemuxMap<Key> active_;
  DemuxMap<IpProtoNum, Protocol*> passive_;
  std::map<ReasmKey, Reasm> reasm_;
  uint16_t next_id_ = 1;
  Stats stats_;
};

class IpSession final : public Session {
 public:
  IpSession(IpProtocol& owner, Protocol* hlp, IpAddr peer, IpProtoNum proto, SessionRef lower,
            size_t lower_mtu);

  IpAddr peer() const { return peer_; }
  IpProtoNum proto() const { return proto_; }

 protected:
  Status DoPush(Message& msg) override;
  Status DoPop(Message& msg, Session* lls) override;
  Status DoControl(ControlOp op, ControlArgs& args) override;
  Session* lower_for_control() const override { return lower_.get(); }

 private:
  Status SendOne(Message piece, uint16_t id, uint16_t offset_bytes, bool more);

  IpProtocol& ip_;
  IpAddr peer_;
  IpProtoNum proto_;
  SessionRef lower_;
  size_t lower_mtu_;
};

}  // namespace xk

#endif  // XK_SRC_PROTO_IP_H_
