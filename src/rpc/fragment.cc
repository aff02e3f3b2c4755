#include "src/rpc/fragment.h"

#include <algorithm>

#include "src/core/wire.h"

namespace xk {

namespace {
constexpr uint8_t kTypeData = 1;
constexpr uint8_t kTypeNack = 2;
constexpr size_t kRecentWindow = 64;

uint16_t FullMask(uint16_t num_frags) {
  return num_frags >= 16 ? 0xFFFF : static_cast<uint16_t>((1u << num_frags) - 1);
}
}  // namespace

// ---------------------------------------------------------------------------
// FragmentProtocol
// ---------------------------------------------------------------------------

FragmentProtocol::FragmentProtocol(Kernel& kernel, Protocol* lower, std::string name)
    : Protocol(kernel, std::move(name), {lower}), active_(kernel), passive_(kernel) {
  // Receive FRAGMENT traffic from below.
  ParticipantSet enable;
  enable.local.ip_proto = kIpProtoFragment;
  (void)this->lower(0)->OpenEnable(*this, enable);
}

Result<SessionRef> FragmentProtocol::DoOpen(Protocol& hlp, const ParticipantSet& parts) {
  if (!parts.peer.host.has_value() || !parts.local.rel_proto.has_value()) {
    return ErrStatus(StatusCode::kInvalidArgument);
  }
  const Key key{*parts.peer.host, *parts.local.rel_proto};
  if (SessionRef cached = active_.Resolve(key)) {
    cached->set_hlp(&hlp);
    return cached;
  }
  ParticipantSet lparts;
  lparts.local.ip_proto = kIpProtoFragment;
  lparts.peer.host = *parts.peer.host;
  Result<SessionRef> lower_sess = lower(0)->Open(*this, lparts);
  if (!lower_sess.ok()) {
    return lower_sess.status();
  }
  kernel().ChargeSessionCreate();
  auto sess = std::make_shared<FragmentSession>(*this, &hlp, *parts.peer.host,
                                                *parts.local.rel_proto, *lower_sess);
  active_.Bind(key, sess);
  return SessionRef(sess);
}

Status FragmentProtocol::DoOpenEnable(Protocol& hlp, const ParticipantSet& parts) {
  if (!parts.local.rel_proto.has_value()) {
    return ErrStatus(StatusCode::kInvalidArgument);
  }
  Protocol* existing = nullptr;
  if (!passive_.TryBind(*parts.local.rel_proto, &hlp, &existing)) {
    if (existing != &hlp) {
      return ErrStatus(StatusCode::kAlreadyExists);
    }
    passive_.Bind(*parts.local.rel_proto, &hlp);  // re-enable recharges
  }
  return OkStatus();
}

Status FragmentProtocol::DoDemux(Session* lls, Message& msg) {
  uint8_t raw[kHeaderSize];
  if (!msg.PopHeader(raw)) {
    return ErrStatus(StatusCode::kInvalidArgument);
  }
  kernel().ChargeHdrLoad(kHeaderSize);
  WireReader r(raw);
  const uint8_t type = r.GetU8();
  const IpAddr src = r.GetIpAddr();
  const IpAddr dst = r.GetIpAddr();
  const RelProtoNum proto = r.GetU32();
  const uint32_t seq = r.GetU32();
  const uint16_t num_frags = r.GetU16();
  const uint16_t frag_mask = r.GetU16();
  const uint16_t len = r.GetU16();
  if (dst != kernel().ip_addr()) {
    return ErrStatus(StatusCode::kNotFound);
  }
  msg.Truncate(len);

  const Key key{src, proto};
  SessionRef sess = active_.Resolve(key);
  if (sess == nullptr) {
    Protocol* hlp = passive_.Resolve(proto);
    if (hlp == nullptr || lls == nullptr) {
      kernel().Tracef(2, "fragment: no binding for proto %u", proto);
      return ErrStatus(StatusCode::kNotFound);
    }
    kernel().ChargeSessionCreate();
    auto created = std::make_shared<FragmentSession>(*this, hlp, src, proto, lls->Ref());
    active_.Bind(key, created);
    ParticipantSet up;
    up.local.rel_proto = proto;
    up.peer.host = src;
    Status s = hlp->OpenDoneUp(*this, created, up);
    if (!s.ok()) {
      active_.Unbind(key);
      return s;
    }
    sess = created;
  }
  return static_cast<FragmentSession*>(sess.get())
      ->HandlePacket(type, seq, num_frags, frag_mask, msg, lls);
}

Status FragmentProtocol::DoControl(ControlOp op, ControlArgs& args) {
  switch (op) {
    case ControlOp::kGetMaxPacket:
      args.u64 = kMaxMessage;
      return OkStatus();
    case ControlOp::kGetOptPacket:
      args.u64 = kFragSize;
      return OkStatus();
    case ControlOp::kGetMaxSendSize:
      // What VIP needs to know at open time: the largest packet FRAGMENT will
      // ever hand downward is one fragment plus its header.
      args.u64 = kFragSize + kHeaderSize;
      return OkStatus();
    default:
      return ErrStatus(StatusCode::kUnsupported);
  }
}

// ---------------------------------------------------------------------------
// FragmentSession
// ---------------------------------------------------------------------------

FragmentSession::FragmentSession(FragmentProtocol& owner, Protocol* hlp, IpAddr peer,
                                 RelProtoNum proto, SessionRef lower)
    : Session(owner, hlp), frag_(owner), peer_(peer), proto_(proto), lower_(std::move(lower)) {}

void FragmentSession::SendFragment(uint32_t seq, uint16_t num_frags, uint16_t index,
                                   const Message& payload, uint8_t type) {
  uint8_t raw[FragmentProtocol::kHeaderSize];
  WireWriter w(raw);
  w.PutU8(type);
  w.PutIpAddr(kernel().ip_addr());
  w.PutIpAddr(peer_);
  w.PutU32(proto_);
  w.PutU32(seq);
  w.PutU16(num_frags);
  w.PutU16(static_cast<uint16_t>(1u << index));
  w.PutU16(static_cast<uint16_t>(payload.length()));
  Message pkt = payload;
  kernel().ChargeHdrStore(FragmentProtocol::kHeaderSize);
  pkt.PushHeader(raw);
  ++frag_.stats_.fragments_sent;
  (void)lower_->Push(pkt);
}

Status FragmentSession::DoPush(Message& msg) {
  if (msg.length() > FragmentProtocol::kMaxMessage) {
    return ErrStatus(StatusCode::kTooBig);
  }
  const uint32_t seq = next_seq_++;
  const uint16_t num_frags = static_cast<uint16_t>(
      std::max<size_t>(1, (msg.length() + FragmentProtocol::kFragSize - 1) /
                              FragmentProtocol::kFragSize));
  ++frag_.stats_.messages_sent;

  kernel().ChargeMapBind();  // enter the send cache
  std::vector<Message>& frags = send_cache_.PushBack().frags;
  frags.reserve(num_frags);
  for (uint16_t i = 0; i < num_frags; ++i) {
    Message piece;
    if (num_frags == 1) {
      piece = msg;
    } else {
      kernel().ChargeMsgSlice();
      piece = msg.Slice(static_cast<size_t>(i) * FragmentProtocol::kFragSize,
                        FragmentProtocol::kFragSize);
    }
    // The cache shares the payload bytes with the in-flight packets (the
    // footnote in Section 3.2: multiple layers hold references to pieces of
    // the same message).
    frags.push_back(piece);
    SendFragment(seq, num_frags, i, piece, kTypeData);
  }
  // "The sending host associates a timer with each message it sends and
  // discards the message when the timer expires."
  (void)kernel().SetTimer(frag_.send_cache_timeout_, [this, seq]() { DiscardSent(seq); });
  return OkStatus();
}

FragmentSession::SendRecord* FragmentSession::FindSent(uint32_t seq) {
  // Unsigned wrap-around makes a seq below the front a huge index.
  const uint32_t front_seq = next_seq_ - static_cast<uint32_t>(send_cache_.size());
  const size_t i = seq - front_seq;
  if (i >= send_cache_.size() || send_cache_[i].frags.empty()) {
    return nullptr;
  }
  return &send_cache_[i];
}

void FragmentSession::DiscardSent(uint32_t seq) {
  SendRecord* rec = FindSent(seq);
  if (rec == nullptr) {
    return;
  }
  rec->frags.clear();
  ++frag_.stats_.cache_expirations;
  while (!send_cache_.empty() && send_cache_.front().frags.empty()) {
    send_cache_.PopFront();
  }
}

void FragmentSession::SendNack(uint32_t seq, uint16_t missing_mask) {
  uint8_t raw[FragmentProtocol::kHeaderSize];
  WireWriter w(raw);
  w.PutU8(kTypeNack);
  w.PutIpAddr(kernel().ip_addr());
  w.PutIpAddr(peer_);
  w.PutU32(proto_);
  w.PutU32(seq);
  w.PutU16(0);
  w.PutU16(missing_mask);
  w.PutU16(0);
  Message pkt;
  kernel().ChargeHdrStore(FragmentProtocol::kHeaderSize);
  pkt.PushHeader(raw);
  ++frag_.stats_.nacks_sent;
  (void)lower_->Push(pkt);
}

void FragmentSession::ArmGapTimer(uint32_t seq) {
  auto it = reasm_.find(seq);
  if (it == reasm_.end()) {
    return;
  }
  it->second.gap_timer = kernel().SetTimer(frag_.nack_delay_, [this, seq]() { OnGapTimer(seq); });
}

void FragmentSession::OnGapTimer(uint32_t seq) {
  auto it = reasm_.find(seq);
  if (it == reasm_.end()) {
    return;
  }
  Reasm& r = it->second;
  if (r.nacks >= frag_.max_nacks_) {
    // Give up; the higher level's own timeout will resend the whole message.
    reasm_.erase(it);
    ++frag_.stats_.reassembly_abandoned;
    return;
  }
  ++r.nacks;
  SendNack(seq, static_cast<uint16_t>(FullMask(r.num_frags) & ~r.have_mask));
  ArmGapTimer(seq);
}

void FragmentSession::OnNack(uint32_t seq, uint16_t missing_mask) {
  ++frag_.stats_.nacks_received;
  const SendRecord* rec = FindSent(seq);
  if (rec == nullptr) {
    // Cache already discarded: the higher level must resend (as a new
    // message). Nothing to do here.
    ++frag_.stats_.stale_nacks;
    return;
  }
  const uint16_t num_frags = static_cast<uint16_t>(rec->frags.size());
  for (uint16_t i = 0; i < num_frags; ++i) {
    if (missing_mask & (1u << i)) {
      ++frag_.stats_.fragments_resent;
      SendFragment(seq, num_frags, i, rec->frags[i], kTypeData);
    }
  }
}

Status FragmentSession::CompleteReassembly(uint32_t seq, Reasm& r) {
  Message whole;
  for (uint16_t i = 0; i < r.num_frags; ++i) {
    kernel().ChargeMsgJoin();
    whole.Append(r.frags[i]);
  }
  kernel().CancelTimer(r.gap_timer);
  reasm_.erase(seq);
  recent_done_.push_back(seq);
  if (recent_done_.size() > kRecentWindow) {
    recent_done_.erase(recent_done_.begin());
  }
  return DeliverUp(whole);
}

Status FragmentSession::HandlePacket(uint8_t type, uint32_t seq, uint16_t num_frags,
                                     uint16_t frag_mask, Message& payload, Session* lls) {
  // Adopt the reverse path for replies/NACKs if we were created before we had
  // a lower session (defensive; passive creation always supplies one).
  if (lower_ == nullptr && lls != nullptr) {
    lower_ = lls->Ref();
  }
  if (type == kTypeNack) {
    OnNack(seq, frag_mask);
    return OkStatus();
  }
  if (type != kTypeData || num_frags == 0 || num_frags > FragmentProtocol::kMaxFrags) {
    return ErrStatus(StatusCode::kInvalidArgument);
  }
  if (num_frags == 1) {
    // Fast path: single-fragment message, no reassembly state at all (one
    // duplicate-window probe).
    kernel().ChargeMapResolve();
    return DeliverUp(payload);
  }
  if (std::find(recent_done_.begin(), recent_done_.end(), seq) != recent_done_.end()) {
    return OkStatus();  // late duplicate of a completed message
  }
  kernel().ChargeMapResolve();
  auto [it, inserted] = reasm_.try_emplace(seq);
  Reasm& r = it->second;
  if (inserted) {
    r.num_frags = num_frags;
    r.frags.resize(num_frags);
    ArmGapTimer(seq);
  } else {
    // New fragment: push the gap timer back.
    kernel().CancelTimer(r.gap_timer);
    ArmGapTimer(seq);
  }
  // Which fragment is this? The sender sets exactly one mask bit.
  int index = -1;
  for (int i = 0; i < 16; ++i) {
    if (frag_mask == (1u << i)) {
      index = i;
      break;
    }
  }
  if (index < 0 || index >= num_frags) {
    return ErrStatus(StatusCode::kInvalidArgument);
  }
  if ((r.have_mask & (1u << index)) == 0) {
    r.have_mask |= static_cast<uint16_t>(1u << index);
    kernel().ChargeMsgJoin();
    r.frags[index] = payload;
  }
  if (r.have_mask == FullMask(r.num_frags)) {
    return CompleteReassembly(seq, r);
  }
  return OkStatus();
}

Status FragmentSession::DoPop(Message& msg, Session* lls) {
  (void)lls;
  return DeliverUp(msg);
}

Status FragmentSession::DoControl(ControlOp op, ControlArgs& args) {
  switch (op) {
    case ControlOp::kGetMaxPacket:
      args.u64 = FragmentProtocol::kMaxMessage;
      return OkStatus();
    case ControlOp::kGetOptPacket:
      args.u64 = FragmentProtocol::kFragSize;
      return OkStatus();
    case ControlOp::kGetPeerHost:
      args.ip = peer_;
      return OkStatus();
    case ControlOp::kGetMyHost:
      args.ip = kernel().ip_addr();
      return OkStatus();
    case ControlOp::kGetMyProto:
    case ControlOp::kGetPeerProto:
      args.u64 = proto_;
      return OkStatus();
    default:
      return ErrStatus(StatusCode::kUnsupported);
  }
}

}  // namespace xk
