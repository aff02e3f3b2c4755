#include "src/proto/eth.h"

#include "src/core/wire.h"
#include "src/sim/object_pool.h"
#include "src/trace/trace.h"

namespace xk {

// ---------------------------------------------------------------------------
// EthProtocol
// ---------------------------------------------------------------------------

EthProtocol::EthProtocol(Kernel& kernel, EthernetSegment& segment, std::optional<EthAddr> addr,
                         std::string name)
    : Protocol(kernel, std::move(name), {}),
      segment_(segment),
      addr_(addr.value_or(kernel.eth_addr())),
      attach_id_(segment.Attach(addr_, this)),
      active_(kernel),
      passive_(kernel) {}

EthProtocol::~EthProtocol() { segment_.Detach(attach_id_); }

Result<SessionRef> EthProtocol::DoOpen(Protocol& hlp, const ParticipantSet& parts) {
  if (!parts.peer.eth.has_value() || !parts.local.eth_type.has_value()) {
    return ErrStatus(StatusCode::kInvalidArgument);
  }
  const Key key{*parts.peer.eth, *parts.local.eth_type};
  if (SessionRef cached = active_.Resolve(key)) {
    cached->set_hlp(&hlp);
    return cached;
  }
  kernel().ChargeSessionCreate();
  auto sess = std::make_shared<EthSession>(*this, &hlp, *parts.peer.eth, *parts.local.eth_type);
  active_.Bind(key, sess);
  return SessionRef(sess);
}

Status EthProtocol::DoOpenEnable(Protocol& hlp, const ParticipantSet& parts) {
  if (!parts.local.eth_type.has_value()) {
    return ErrStatus(StatusCode::kInvalidArgument);
  }
  const EthType type = *parts.local.eth_type;
  Protocol* existing = nullptr;
  if (!passive_.TryBind(type, &hlp, &existing)) {
    if (existing != &hlp) {
      return ErrStatus(StatusCode::kAlreadyExists);
    }
    passive_.Bind(type, &hlp);  // idempotent re-enable recharges, as before
  }
  return OkStatus();
}

Status EthProtocol::OpenDisable(Protocol& hlp, const ParticipantSet& parts) {
  if (!parts.local.eth_type.has_value() || passive_.Peek(*parts.local.eth_type) != &hlp) {
    return ErrStatus(StatusCode::kNotFound);
  }
  passive_.Unbind(*parts.local.eth_type);
  return OkStatus();
}

void EthProtocol::Transmit(Message& msg) {
  kernel().ChargeDevStart();
  kernel().ChargeDevCopy(msg.length());
  // A pooled frame keeps its byte buffer across reuse, so flattening into it
  // is a straight copy with no heap traffic in steady state.
  auto frame = AcquirePooled<EthFrame>();
  msg.FlattenInto(frame->bytes);
  // Carry the message's trace identity on the frame (overwriting whatever a
  // pooled frame held last). Zero wire bytes, zero simulated cost -- it lets
  // wire records and the receiving host's spans name the sender's message.
  frame->trace_msg_id = msg.trace_id();
  segment_.Transmit(attach_id_, std::move(frame), kernel().cpu().now());
}

void EthProtocol::FrameArrived(const EthFrame& frame) {
  // Interrupt: dispatch a shepherd process to carry the message up. The kIntr
  // span wraps the whole shepherd so the interrupt and device-copy charges
  // (which land before Demux) are attributed to the driver, not lost.
  kernel().RunTask(kernel().events().now(), [this, &frame]() {
    TraceSpan span(kernel().trace_sink(), kernel(), TraceOp::kIntr, *this, nullptr, nullptr);
    kernel().ChargeIntr();
    kernel().ChargeDevCopy(frame.bytes.size());
    ++frames_in_;
    Message msg = Message::FromBytes(frame.bytes);
    // The deserialized copy is the same logical message the sender pushed;
    // let its spans read as one id across the wire.
    TraceSink::InheritTraceId(msg, frame.trace_msg_id);
    (void)span.Finish(Demux(nullptr, msg));
  });
}

Status EthProtocol::DoDemux(Session* lls, Message& msg) {
  (void)lls;  // ETH sits directly on the device
  uint8_t hdr[kHeaderSize];
  if (!msg.PopHeader(hdr)) {
    return ErrStatus(StatusCode::kInvalidArgument);
  }
  kernel().ChargeHdrLoad(kHeaderSize);
  WireReader r(hdr);
  const EthAddr dst = r.GetEthAddr();
  const EthAddr src = r.GetEthAddr();
  const EthType type = r.GetU16();
  if (dst != addr_ && !dst.IsBroadcast()) {
    // Not for us. The segment delivers point-to-point, so a mismatched
    // destination only happens when the address bytes were corrupted on the
    // wire -- count it as a demux drop rather than silently succeeding.
    kernel().Tracef(2, "eth: destination mismatch, dropping");
    return ErrStatus(StatusCode::kNotFound);
  }
  SessionRef sess = active_.Resolve(Key{src, type});
  if (sess == nullptr) {
    Protocol* hlp = passive_.Resolve(type);
    if (hlp == nullptr) {
      kernel().Tracef(2, "eth: no binding for type 0x%04x, dropping", type);
      return ErrStatus(StatusCode::kNotFound);
    }
    // open_done: passively create the session and notify the enabled
    // protocol so it can attach its own state.
    kernel().ChargeSessionCreate();
    auto created = std::make_shared<EthSession>(*this, hlp, src, type);
    active_.Bind(Key{src, type}, created);
    ParticipantSet parts;
    parts.local.eth = addr_;
    parts.local.eth_type = type;
    parts.peer.eth = src;
    Status s = hlp->OpenDoneUp(*this, created, parts);
    if (!s.ok()) {
      active_.Unbind(Key{src, type});
      return s;
    }
    sess = created;
  }
  return sess->Pop(msg, nullptr);
}

Status EthProtocol::DoControl(ControlOp op, ControlArgs& args) {
  switch (op) {
    case ControlOp::kGetMaxPacket:
    case ControlOp::kGetOptPacket:
      args.u64 = kMtu;
      return OkStatus();
    case ControlOp::kGetMyHostEth:
      args.eth = addr_;
      return OkStatus();
    default:
      return ErrStatus(StatusCode::kUnsupported);
  }
}

// ---------------------------------------------------------------------------
// EthSession
// ---------------------------------------------------------------------------

EthSession::EthSession(EthProtocol& owner, Protocol* hlp, EthAddr peer, EthType type)
    : Session(owner, hlp), eth_(owner), peer_(peer), type_(type) {}

Status EthSession::DoPush(Message& msg) {
  if (msg.length() > EthProtocol::kMtu) {
    return ErrStatus(StatusCode::kTooBig);
  }
  uint8_t hdr[EthProtocol::kHeaderSize];
  WireWriter w(hdr);
  w.PutEthAddr(peer_);
  w.PutEthAddr(eth_.addr());
  w.PutU16(type_);
  kernel().ChargeHdrStore(EthProtocol::kHeaderSize);
  msg.PushHeader(hdr);
  eth_.Transmit(msg);
  return OkStatus();
}

Status EthSession::DoPop(Message& msg, Session* lls) {
  (void)lls;
  return DeliverUp(msg);
}

Status EthSession::DoControl(ControlOp op, ControlArgs& args) {
  switch (op) {
    case ControlOp::kGetMaxPacket:
    case ControlOp::kGetOptPacket:
      args.u64 = EthProtocol::kMtu;
      return OkStatus();
    case ControlOp::kGetMyHostEth:
      args.eth = eth_.addr();
      return OkStatus();
    case ControlOp::kGetPeerHostEth:
      args.eth = peer_;
      return OkStatus();
    default:
      return ErrStatus(StatusCode::kUnsupported);
  }
}

}  // namespace xk
