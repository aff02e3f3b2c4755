#include "src/rpc/sprite_rpc.h"

#include <algorithm>

#include "src/core/wire.h"

namespace xk {

namespace {
constexpr uint16_t kFlagRequest = 0x1;
constexpr uint16_t kFlagReply = 0x2;
constexpr uint16_t kFlagAck = 0x4;
constexpr uint16_t kFlagPleaseAck = 0x8;

uint16_t FullMask(uint16_t num_frags) {
  return num_frags >= 16 ? 0xFFFF : static_cast<uint16_t>((1u << num_frags) - 1);
}
}  // namespace

// ---------------------------------------------------------------------------
// Collect
// ---------------------------------------------------------------------------

bool SpriteRpcProtocol::Collect::Complete() const {
  return num_frags > 0 && have_mask == FullMask(num_frags);
}

Message SpriteRpcProtocol::Collect::Join(Kernel& kernel) const {
  Message whole;
  for (const Message& m : frags) {
    kernel.ChargeMsgJoin();
    whole.Append(m);
  }
  return whole;
}

// ---------------------------------------------------------------------------
// SpriteRpcProtocol
// ---------------------------------------------------------------------------

SpriteRpcProtocol::SpriteRpcProtocol(Kernel& kernel, Protocol* lower, std::string name)
    : Protocol(kernel, std::move(name), {lower}), active_(kernel), passive_(kernel) {
  ParticipantSet enable;
  enable.local.ip_proto = kIpProtoSpriteRpc;
  (void)this->lower(0)->OpenEnable(*this, enable);
}

Result<SpriteRpcProtocol::ClientPool*> SpriteRpcProtocol::PoolFor(IpAddr server) {
  auto it = client_pools_.find(server);
  if (it != client_pools_.end()) {
    return &it->second;
  }
  ParticipantSet lparts;
  lparts.peer.host = server;
  lparts.local.ip_proto = kIpProtoSpriteRpc;
  Result<SessionRef> lower_sess = lower(0)->Open(*this, lparts);
  if (!lower_sess.ok()) {
    return lower_sess.status();
  }
  ClientPool pool;
  pool.channels.resize(kNumChannels);
  pool.available = std::make_unique<XSemaphore>(kernel(), kNumChannels);
  pool.lower = *lower_sess;
  return &client_pools_.emplace(server, std::move(pool)).first->second;
}

Result<SessionRef> SpriteRpcProtocol::DoOpen(Protocol& hlp, const ParticipantSet& parts) {
  if (!parts.peer.host.has_value() || !parts.peer.command.has_value()) {
    return ErrStatus(StatusCode::kInvalidArgument);
  }
  const SessKey key{*parts.peer.host, *parts.peer.command};
  if (SessionRef cached = active_.Resolve(key)) {
    cached->set_hlp(&hlp);
    return cached;
  }
  Result<ClientPool*> pool = PoolFor(*parts.peer.host);
  if (!pool.ok()) {
    return pool.status();
  }
  kernel().ChargeSessionCreate();
  auto sess = std::make_shared<SpriteClientSession>(*this, &hlp, *parts.peer.host,
                                                    *parts.peer.command);
  active_.Bind(key, sess);
  return SessionRef(sess);
}

Status SpriteRpcProtocol::DoOpenEnable(Protocol& hlp, const ParticipantSet& parts) {
  const uint16_t command = parts.local.command.value_or(kAnyCommand);
  Protocol* existing = nullptr;
  if (!passive_.TryBind(command, &hlp, &existing)) {
    if (existing != &hlp) {
      return ErrStatus(StatusCode::kAlreadyExists);
    }
    passive_.Bind(command, &hlp);  // idempotent re-enable recharges, as before
  }
  return OkStatus();
}

void SpriteRpcProtocol::SendPacket(Session& lls, const Header& hdr, const Message& payload) {
  uint8_t raw[kHeaderSize];
  WireWriter w(raw);
  w.PutU16(hdr.flags);
  w.PutIpAddr(hdr.clnt_host);
  w.PutIpAddr(hdr.srvr_host);
  w.PutU16(hdr.channel);
  w.PutU16(hdr.srvr_process);
  w.PutU32(hdr.seq);
  w.PutU16(hdr.num_frags);
  w.PutU16(hdr.frag_mask);
  w.PutU16(hdr.command);
  w.PutU32(hdr.boot_id);
  w.PutU16(hdr.data1_sz);
  w.PutU16(0);  // data2_sz: unused (see file comment)
  w.PutU16(0);  // data1_offset
  w.PutU16(0);  // data2_offset
  Message pkt = payload;
  kernel().ChargeHdrStore(kHeaderSize);
  kernel().Charge(Usec(20));  // dual data-area size/offset bookkeeping
  pkt.PushHeader(raw);
  ++stats_.fragments_sent;
  (void)lls.Push(pkt);
}

std::vector<Message> SpriteRpcProtocol::Fragment(Kernel& kernel, const Message& msg) {
  std::vector<Message> frags;
  const size_t n = std::max<size_t>(1, (msg.length() + kFragSize - 1) / kFragSize);
  frags.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (n > 1) {
      kernel.ChargeMsgSlice();
      frags.push_back(msg.Slice(i * kFragSize, kFragSize));
    } else {
      frags.push_back(msg);
    }
  }
  return frags;
}

void SpriteRpcProtocol::SendRequestFrags(IpAddr server, ClientPool& pool, size_t index,
                                         uint16_t resend_mask, bool please_ack) {
  ClientChannel& chan = pool.channels[index];
  Header hdr;
  hdr.flags = kFlagRequest;
  if (please_ack) {
    hdr.flags |= kFlagPleaseAck;
  }
  hdr.clnt_host = kernel().ip_addr();
  hdr.srvr_host = server;
  hdr.channel = static_cast<uint16_t>(index);
  hdr.seq = chan.seq;
  hdr.num_frags = static_cast<uint16_t>(chan.request_frags.size());
  hdr.command = chan.command;
  hdr.boot_id = kernel().boot_id();
  for (size_t i = 0; i < chan.request_frags.size(); ++i) {
    if ((resend_mask & (1u << i)) == 0) {
      continue;
    }
    hdr.frag_mask = static_cast<uint16_t>(1u << i);
    hdr.data1_sz = static_cast<uint16_t>(chan.request_frags[i].length());
    SendPacket(*pool.lower, hdr, chan.request_frags[i]);
  }
}

void SpriteRpcProtocol::ArmTimer(IpAddr server, size_t index) {
  ClientPool& pool = client_pools_.at(server);
  ClientChannel& chan = pool.channels[index];
  const SimTime step =
      base_timeout_ * static_cast<SimTime>(chan.request_frags.size()) * (chan.acked ? 4 : 1);
  chan.timer = kernel().SetTimer(step, [this, server, index]() { OnTimeout(server, index); });
}

void SpriteRpcProtocol::ReleaseChannel(ClientPool& pool, size_t index) {
  ClientChannel& chan = pool.channels[index];
  chan.busy = false;
  chan.caller.reset();
  chan.request = Message();
  chan.request_frags.clear();
  pool.available->V();
}

void SpriteRpcProtocol::OnTimeout(IpAddr server, size_t index) {
  auto it = client_pools_.find(server);
  if (it == client_pools_.end() || !it->second.channels[index].busy) {
    return;
  }
  ClientChannel& chan = it->second.channels[index];
  if (chan.retries >= retry_limit_) {
    auto caller = chan.caller;
    ReleaseChannel(it->second, index);
    if (caller != nullptr && caller->hlp() != nullptr) {
      caller->hlp()->SessionError(*caller, ErrStatus(StatusCode::kTimeout));
    }
    return;
  }
  ++chan.retries;
  ++stats_.retransmissions;
  // Sprite-style probe: resend the lowest unacknowledged fragment with
  // PLEASE_ACK. The server's partial ack then names exactly what is missing,
  // and the selective resend fills only those holes -- much cheaper than
  // blindly retransmitting a 16-fragment message.
  const uint16_t missing = static_cast<uint16_t>(
      FullMask(static_cast<uint16_t>(chan.request_frags.size())) & ~chan.server_has_mask);
  uint16_t probe = 1;
  for (uint16_t bit = 0; bit < 16; ++bit) {
    if (missing & (1u << bit)) {
      probe = static_cast<uint16_t>(1u << bit);
      break;
    }
  }
  SendRequestFrags(server, it->second, index, probe, true);
  ArmTimer(server, index);
}

void SpriteRpcProtocol::StartCall(IpAddr server, ClientPool& pool, size_t index,
                                  std::shared_ptr<SpriteClientSession> caller, uint16_t command,
                                  Message msg) {
  ClientChannel& chan = pool.channels[index];
  chan.busy = true;
  chan.seq += 1;
  chan.caller = std::move(caller);
  chan.command = command;
  chan.request = msg;
  chan.request_frags = Fragment(kernel(), msg);
  kernel().ChargeMapBind();  // record the outstanding transaction
  chan.server_has_mask = 0;
  chan.retries = 0;
  chan.acked = false;
  chan.reply = Collect{};
  ++stats_.calls_sent;
  SendRequestFrags(server, pool, index,
                   FullMask(static_cast<uint16_t>(chan.request_frags.size())), false);
  ArmTimer(server, index);
  kernel().ChargeSemOp();  // the calling shepherd blocks awaiting the reply
}

Status SpriteRpcProtocol::DoDemux(Session* lls, Message& msg) {
  uint8_t raw[kHeaderSize];
  if (!msg.PopHeader(raw)) {
    return ErrStatus(StatusCode::kInvalidArgument);
  }
  kernel().ChargeHdrLoad(kHeaderSize);
  WireReader r(raw);
  Header hdr;
  hdr.flags = r.GetU16();
  hdr.clnt_host = r.GetIpAddr();
  hdr.srvr_host = r.GetIpAddr();
  hdr.channel = r.GetU16();
  hdr.srvr_process = r.GetU16();
  hdr.seq = r.GetU32();
  hdr.num_frags = r.GetU16();
  hdr.frag_mask = r.GetU16();
  hdr.command = r.GetU16();
  hdr.boot_id = r.GetU32();
  hdr.data1_sz = r.GetU16();
  r.Skip(6);
  kernel().Charge(Usec(20));  // dual data-area size/offset bookkeeping
  msg.Truncate(hdr.data1_sz);

  if (hdr.flags & kFlagRequest) {
    return HandleRequest(hdr, msg, lls);
  }
  return HandleReplyOrAck(hdr, msg);
}

Status SpriteRpcProtocol::HandleRequest(const Header& hdr, Message& payload, Session* lls) {
  const ServKey key{hdr.clnt_host, hdr.channel};
  kernel().ChargeMapResolve();
  ServerChannel& chan = server_chans_[key];
  if (lls != nullptr) {
    chan.reply_lls = lls->Ref();
  }
  if (chan.clnt_boot_id != 0 && chan.clnt_boot_id != hdr.boot_id) {
    ++stats_.boot_resets;
    chan = ServerChannel{};
    if (lls != nullptr) {
      chan.reply_lls = lls->Ref();
    }
  }
  chan.clnt_boot_id = hdr.boot_id;

  if (hdr.seq < chan.cur_seq) {
    return OkStatus();  // stale
  }
  if (hdr.seq == chan.cur_seq) {
    // Fragment of the current transaction -- or a duplicate of it.
    if (chan.saved_reply.has_value()) {
      // The whole request was already executed: at-most-once. Resend reply.
      ++stats_.duplicates_suppressed;
      ++stats_.replies_resent;
      SendReplyFrags(chan, hdr.clnt_host, hdr.channel, *chan.saved_reply);
      return OkStatus();
    }
    if (chan.in_progress) {
      ++stats_.duplicates_suppressed;
      if (hdr.flags & kFlagPleaseAck) {
        // Explicit ack with the fragments we hold (all of them: executing).
        Header ack;
        ack.flags = kFlagAck;
        ack.clnt_host = hdr.clnt_host;
        ack.srvr_host = kernel().ip_addr();
        ack.channel = hdr.channel;
        ack.seq = hdr.seq;
        ack.num_frags = chan.request.num_frags;
        ack.frag_mask = chan.request.have_mask;
        ack.boot_id = kernel().boot_id();
        ++stats_.explicit_acks_sent;
        SendPacket(*chan.reply_lls, ack, Message());
      }
      return OkStatus();
    }
  } else {
    // New transaction: implicitly acknowledges the previous reply.
    chan.cur_seq = hdr.seq;
    chan.saved_reply.reset();
    chan.in_progress = false;
    chan.request.Reset(hdr.num_frags);
  }

  // Collect this fragment.
  if (chan.request.num_frags == 0) {
    chan.request.Reset(hdr.num_frags);
  }
  int index = -1;
  for (int i = 0; i < 16; ++i) {
    if (hdr.frag_mask == (1u << i)) {
      index = i;
      break;
    }
  }
  if (index < 0 || index >= hdr.num_frags) {
    return ErrStatus(StatusCode::kInvalidArgument);
  }
  if ((chan.request.have_mask & (1u << index)) == 0) {
    chan.request.have_mask |= static_cast<uint16_t>(1u << index);
    chan.request.frags[index] = payload;
  } else if (hdr.flags & kFlagPleaseAck) {
    // Duplicate fragment with an ack request: partial ack so the client
    // resends only what is missing.
    Header ack;
    ack.flags = kFlagAck;
    ack.clnt_host = hdr.clnt_host;
    ack.srvr_host = kernel().ip_addr();
    ack.channel = hdr.channel;
    ack.seq = hdr.seq;
    ack.num_frags = chan.request.num_frags;
    ack.frag_mask = chan.request.have_mask;
    ack.boot_id = kernel().boot_id();
    ++stats_.explicit_acks_sent;
    SendPacket(*chan.reply_lls, ack, Message());
    return OkStatus();
  }
  if (!chan.request.Complete()) {
    return OkStatus();
  }

  // Full request assembled: execute exactly once.
  Message whole = chan.request.num_frags == 1 ? chan.request.frags[0]
                                              : chan.request.Join(kernel());
  chan.in_progress = true;
  chan.last_command = hdr.command;
  ++stats_.requests_executed;

  Protocol* hlp = passive_.Resolve(hdr.command);
  if (hlp == nullptr) {
    hlp = passive_.Peek(kAnyCommand);
  }
  if (hlp == nullptr) {
    kernel().Tracef(2, "sprite: no binding for command %u", hdr.command);
    return ErrStatus(StatusCode::kNotFound);
  }
  if (chan.server_sess == nullptr) {
    kernel().ChargeSessionCreate();
    chan.server_sess =
        std::make_shared<SpriteServerSession>(*this, hlp, hdr.clnt_host, hdr.channel);
    ParticipantSet up;
    up.peer.host = hdr.clnt_host;
    up.local.channel = hdr.channel;
    up.local.command = hdr.command;
    Status s = hlp->OpenDoneUp(*this, chan.server_sess, up);
    if (!s.ok()) {
      chan.server_sess.reset();
      return s;
    }
  }
  chan.server_sess->set_hlp(hlp);
  // Dispatch to the server process.
  kernel().ChargeSemOp();
  kernel().ChargeProcessSwitch();
  return chan.server_sess->Pop(whole, lls);
}

void SpriteRpcProtocol::SendReplyFrags(ServerChannel& chan, IpAddr clnt, uint16_t channel_id,
                                       const Message& reply) {
  if (chan.reply_lls == nullptr) {
    return;
  }
  std::vector<Message> frags = Fragment(kernel(), reply);
  Header hdr;
  hdr.flags = kFlagReply;
  hdr.clnt_host = clnt;
  hdr.srvr_host = kernel().ip_addr();
  hdr.channel = channel_id;
  hdr.seq = chan.cur_seq;
  hdr.num_frags = static_cast<uint16_t>(frags.size());
  hdr.command = chan.last_command;
  hdr.boot_id = kernel().boot_id();
  for (size_t i = 0; i < frags.size(); ++i) {
    hdr.frag_mask = static_cast<uint16_t>(1u << i);
    hdr.data1_sz = static_cast<uint16_t>(frags[i].length());
    SendPacket(*chan.reply_lls, hdr, frags[i]);
  }
}

Status SpriteRpcProtocol::HandleReplyOrAck(const Header& hdr, Message& payload) {
  // We are the client: hdr.clnt_host is us, hdr.srvr_host is the peer.
  kernel().ChargeMapResolve();
  auto it = client_pools_.find(hdr.srvr_host);
  if (it == client_pools_.end() || hdr.channel >= it->second.channels.size()) {
    return ErrStatus(StatusCode::kNotFound);
  }
  ClientPool& pool = it->second;
  ClientChannel& chan = pool.channels[hdr.channel];
  if (!chan.busy || hdr.seq != chan.seq) {
    return OkStatus();  // stale reply
  }
  if (hdr.flags & kFlagAck) {
    // Partial/explicit ack: the server tells us which fragments it holds.
    chan.acked = true;
    chan.server_has_mask = hdr.frag_mask;
    const uint16_t missing = static_cast<uint16_t>(
        FullMask(static_cast<uint16_t>(chan.request_frags.size())) & ~hdr.frag_mask);
    if (missing != 0 && hdr.num_frags != 0) {
      stats_.selective_resends +=
          static_cast<uint64_t>(__builtin_popcount(missing));
      SendRequestFrags(hdr.srvr_host, pool, hdr.channel, missing, false);
    }
    kernel().CancelTimer(chan.timer);
    ArmTimer(hdr.srvr_host, hdr.channel);
    return OkStatus();
  }
  if ((hdr.flags & kFlagReply) == 0) {
    return ErrStatus(StatusCode::kInvalidArgument);
  }
  // Reply fragment.
  if (chan.reply.num_frags == 0) {
    chan.reply.Reset(hdr.num_frags);
  }
  int index = -1;
  for (int i = 0; i < 16; ++i) {
    if (hdr.frag_mask == (1u << i)) {
      index = i;
      break;
    }
  }
  if (index < 0 || index >= hdr.num_frags) {
    return ErrStatus(StatusCode::kInvalidArgument);
  }
  if ((chan.reply.have_mask & (1u << index)) == 0) {
    chan.reply.have_mask |= static_cast<uint16_t>(1u << index);
    chan.reply.frags[index] = payload;
  }
  if (!chan.reply.Complete()) {
    return OkStatus();
  }
  Message whole =
      chan.reply.num_frags == 1 ? chan.reply.frags[0] : chan.reply.Join(kernel());
  kernel().CancelTimer(chan.timer);
  auto caller = chan.caller;
  ReleaseChannel(pool, hdr.channel);
  // Wake the blocked calling shepherd.
  kernel().ChargeSemOp();
  kernel().ChargeProcessSwitch();
  if (caller == nullptr) {
    return ErrStatus(StatusCode::kNotFound);
  }
  return caller->Pop(whole, nullptr);
}

Status SpriteRpcProtocol::DoControl(ControlOp op, ControlArgs& args) {
  switch (op) {
    case ControlOp::kGetMaxSendSize:
      // "Sprite RPC reports that it never sends a message greater than
      // 1500 bytes (it has its own fragmentation mechanism)" -- Section 3.1.
      args.u64 = kFragSize + kHeaderSize;
      return OkStatus();
    case ControlOp::kGetMaxPacket:
      args.u64 = kMaxMessage;
      return OkStatus();
    case ControlOp::kSetTimeoutBase:
      base_timeout_ = static_cast<SimTime>(args.u64);
      return OkStatus();
    case ControlOp::kSetRetransmitLimit:
      retry_limit_ = static_cast<int>(args.u64);
      return OkStatus();
    default:
      return ErrStatus(StatusCode::kUnsupported);
  }
}

// ---------------------------------------------------------------------------
// SpriteClientSession
// ---------------------------------------------------------------------------

SpriteClientSession::SpriteClientSession(SpriteRpcProtocol& owner, Protocol* hlp, IpAddr server,
                                         uint16_t command)
    : Session(owner, hlp), rpc_(owner), server_(server), command_(command) {}

Status SpriteClientSession::DoPush(Message& msg) {
  if (msg.length() > SpriteRpcProtocol::kMaxMessage) {
    return ErrStatus(StatusCode::kTooBig);
  }
  Result<SpriteRpcProtocol::ClientPool*> pool_r = rpc_.PoolFor(server_);
  if (!pool_r.ok()) {
    return pool_r.status();
  }
  SpriteRpcProtocol::ClientPool* pool = *pool_r;
  if (pool->available->count() == 0) {
    ++rpc_.stats_.blocked_on_channel;
  }
  auto self = std::static_pointer_cast<SpriteClientSession>(Ref());
  pool->available->P([this, pool, self, msg]() {
    size_t index = 0;
    kernel().ChargeMapResolve();
    while (index < pool->channels.size() && pool->channels[index].busy) {
      ++index;
    }
    rpc_.StartCall(server_, *pool, index, self, command_, msg);
  });
  return OkStatus();
}

Status SpriteClientSession::DoPop(Message& msg, Session* lls) {
  (void)lls;
  return DeliverUp(msg);
}

Status SpriteClientSession::DoControl(ControlOp op, ControlArgs& args) {
  switch (op) {
    case ControlOp::kGetPeerHost:
      args.ip = server_;
      return OkStatus();
    case ControlOp::kGetLastCommand:
      args.u64 = command_;
      return OkStatus();
    case ControlOp::kGetMaxPacket:
      args.u64 = SpriteRpcProtocol::kMaxMessage;
      return OkStatus();
    default:
      return ErrStatus(StatusCode::kUnsupported);
  }
}

// ---------------------------------------------------------------------------
// SpriteServerSession
// ---------------------------------------------------------------------------

SpriteServerSession::SpriteServerSession(SpriteRpcProtocol& owner, Protocol* hlp, IpAddr clnt,
                                         uint16_t channel)
    : Session(owner, hlp), rpc_(owner), clnt_(clnt), channel_(channel) {}

uint16_t SpriteServerSession::last_command() const {
  auto it = rpc_.server_chans_.find(SpriteRpcProtocol::ServKey{clnt_, channel_});
  return it == rpc_.server_chans_.end() ? 0 : it->second.last_command;
}

Status SpriteServerSession::DoPush(Message& msg) {
  auto it = rpc_.server_chans_.find(SpriteRpcProtocol::ServKey{clnt_, channel_});
  if (it == rpc_.server_chans_.end() || !it->second.in_progress) {
    return ErrStatus(StatusCode::kError);
  }
  SpriteRpcProtocol::ServerChannel& chan = it->second;
  chan.in_progress = false;
  chan.saved_reply = msg;  // kept until the next request implicitly acks it
  rpc_.SendReplyFrags(chan, clnt_, channel_, msg);
  return OkStatus();
}

Status SpriteServerSession::DoPop(Message& msg, Session* lls) {
  (void)lls;
  return DeliverUp(msg);
}

Status SpriteServerSession::DoControl(ControlOp op, ControlArgs& args) {
  switch (op) {
    case ControlOp::kGetPeerHost:
      args.ip = clnt_;
      return OkStatus();
    case ControlOp::kGetLastCommand:
      args.u64 = last_command();
      return OkStatus();
    default:
      return ErrStatus(StatusCode::kUnsupported);
  }
}

}  // namespace xk
