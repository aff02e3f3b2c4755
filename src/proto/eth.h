// ETH: the Ethernet driver protocol.
//
// In the x-kernel, device drivers present the same uniform interface as any
// other protocol. ETH sessions are keyed by (peer station, ethernet type);
// open_enable registers a high-level protocol for a type. Push prepends the
// 14-byte Ethernet header and hands the flattened frame to the simulated
// controller; incoming frames arrive as interrupts (FrameArrived), are
// charged interrupt + copy costs, and are demultiplexed on the type field.
//
// ETH delivers 1500-byte packets to hosts on the same Ethernet (paper,
// Figure 2).

#ifndef XK_SRC_PROTO_ETH_H_
#define XK_SRC_PROTO_ETH_H_

#include <tuple>

#include "src/core/kernel.h"
#include "src/core/map.h"
#include "src/core/protocol.h"
#include "src/sim/link.h"

namespace xk {

class EthProtocol final : public Protocol, public FrameSink {
 public:
  static constexpr size_t kHeaderSize = 14;
  static constexpr size_t kMtu = 1500;

  // Attaches this host to `segment`. `addr` defaults to the kernel's
  // Ethernet address; routers with several interfaces pass distinct
  // addresses (and distinct `name`s, e.g. "eth0"/"eth1").
  EthProtocol(Kernel& kernel, EthernetSegment& segment,
              std::optional<EthAddr> addr = std::nullopt, std::string name = "eth");

  // Detaches the station so frames racing toward a crashed host are dropped
  // at the wire (segment down_drops), not delivered to a dead object.
  ~EthProtocol() override;

  // This interface's station address.
  EthAddr addr() const { return addr_; }

  // FrameSink: a frame has arrived from the wire (called at interrupt time).
  void FrameArrived(const EthFrame& frame) override;

  // --- statistics -------------------------------------------------------------
  uint64_t frames_in() const { return frames_in_; }

 protected:
  Result<SessionRef> DoOpen(Protocol& hlp, const ParticipantSet& parts) override;
  Status DoOpenEnable(Protocol& hlp, const ParticipantSet& parts) override;
  Status DoDemux(Session* lls, Message& msg) override;
  Status DoControl(ControlOp op, ControlArgs& args) override;

 public:
  Status OpenDisable(Protocol& hlp, const ParticipantSet& parts) override;

 private:
  friend class EthSession;
  using Key = std::tuple<EthAddr, EthType>;  // (peer, type)

  // Transmits a fully-framed message (header already pushed) to the wire.
  void Transmit(Message& msg);

  EthernetSegment& segment_;
  EthAddr addr_;
  int attach_id_;
  DemuxMap<Key> active_;
  DemuxMap<EthType, Protocol*> passive_;
  uint64_t frames_in_ = 0;
};

class EthSession final : public Session {
 public:
  EthSession(EthProtocol& owner, Protocol* hlp, EthAddr peer, EthType type);

  EthAddr peer() const { return peer_; }
  EthType type() const { return type_; }

 protected:
  Status DoPush(Message& msg) override;
  Status DoPop(Message& msg, Session* lls) override;
  Status DoControl(ControlOp op, ControlArgs& args) override;

 private:
  EthProtocol& eth_;
  EthAddr peer_;
  EthType type_;
};

}  // namespace xk

#endif  // XK_SRC_PROTO_ETH_H_
