#include "src/rpc/sun/auth.h"

#include "src/core/wire.h"

namespace xk {

// Wire format: flavor(1) body_len(1) body[body_len].

// ---------------------------------------------------------------------------
// AuthProtocolBase
// ---------------------------------------------------------------------------

AuthProtocolBase::AuthProtocolBase(Kernel& kernel, Protocol* lower, std::string name,
                                   RelProtoNum rel_proto)
    : Protocol(kernel, std::move(name), {lower}), rel_proto_(rel_proto), active_(kernel) {
  ParticipantSet enable;
  enable.local.rel_proto = rel_proto_;
  (void)this->lower(0)->OpenEnable(*this, enable);
}

Result<SessionRef> AuthProtocolBase::DoOpen(Protocol& hlp, const ParticipantSet& parts) {
  if (!parts.peer.host.has_value()) {
    return ErrStatus(StatusCode::kInvalidArgument);
  }
  if (SessionRef cached = active_.Resolve(*parts.peer.host)) {
    cached->set_hlp(&hlp);
    return cached;
  }
  ParticipantSet lparts;
  lparts.peer.host = *parts.peer.host;
  lparts.local.rel_proto = rel_proto_;
  Result<SessionRef> lower_sess = lower(0)->Open(*this, lparts);
  if (!lower_sess.ok()) {
    return lower_sess.status();
  }
  kernel().ChargeSessionCreate();
  auto sess = std::make_shared<AuthSession>(*this, &hlp, *parts.peer.host, *lower_sess,
                                            /*server_side=*/false);
  active_.Bind(*parts.peer.host, sess);
  return SessionRef(sess);
}

Status AuthProtocolBase::DoOpenEnable(Protocol& hlp, const ParticipantSet& parts) {
  (void)parts;
  if (enabled_hlp_ != nullptr && enabled_hlp_ != &hlp) {
    return ErrStatus(StatusCode::kAlreadyExists);
  }
  enabled_hlp_ = &hlp;
  return OkStatus();
}

Status AuthProtocolBase::DoDemux(Session* lls, Message& msg) {
  uint8_t head[2];
  if (!msg.PopHeader(head)) {
    return ErrStatus(StatusCode::kInvalidArgument);
  }
  const uint8_t flavor = head[0];
  const uint8_t body_len = head[1];
  std::vector<uint8_t> body(body_len);
  if (body_len > 0 && !msg.PopHeader(body)) {
    return ErrStatus(StatusCode::kInvalidArgument);
  }
  kernel().ChargeHdrLoad(2u + body_len);
  if (lls == nullptr) {
    return ErrStatus(StatusCode::kInvalidArgument);
  }

  IpAddr peer;
  ControlArgs args;
  if (lls->Control(ControlOp::kGetPeerHost, args).ok()) {
    peer = args.ip;
  }
  SessionRef sess = active_.Resolve(peer);
  const bool existing_client = sess != nullptr && !static_cast<AuthSession*>(sess.get())->server_side();

  if (flavor == kFlavorReject) {
    if (sess != nullptr && sess->hlp() != nullptr) {
      sess->hlp()->SessionError(*sess, ErrStatus(StatusCode::kRejected));
    }
    return OkStatus();
  }

  if (!existing_client) {
    // Server side: verify before anything is delivered.
    if (!Verify(flavor, body)) {
      ++stats_.rejected;
      uint8_t reject[2] = {kFlavorReject, 0};
      Message notice;
      kernel().ChargeHdrStore(2);
      notice.PushHeader(reject);
      return lls->Push(notice);
    }
    ++stats_.verified;
    if (sess == nullptr) {
      if (enabled_hlp_ == nullptr) {
        return ErrStatus(StatusCode::kNotFound);
      }
      kernel().ChargeSessionCreate();
      sess = std::make_shared<AuthSession>(*this, enabled_hlp_, peer, lls->Ref(),
                                           /*server_side=*/true);
      active_.Bind(peer, sess);
      ParticipantSet up;
      up.peer.host = peer;
      Status s = enabled_hlp_->OpenDoneUp(*this, sess, up);
      if (!s.ok()) {
        active_.Unbind(peer);
        return s;
      }
    }
  }
  return sess->Pop(msg, lls);
}

// ---------------------------------------------------------------------------
// AuthSession
// ---------------------------------------------------------------------------

AuthSession::AuthSession(AuthProtocolBase& owner, Protocol* hlp, IpAddr peer, SessionRef lower,
                         bool server_side)
    : Session(owner, hlp), auth_(owner), peer_(peer), lower_(std::move(lower)),
      server_side_(server_side) {}

Status AuthSession::DoPush(Message& msg) {
  const std::vector<uint8_t> cred = auth_.MakeCredentials();
  kernel().ChargeHdrStore(cred.size());
  msg.PushHeader(cred);
  ++auth_.stats_.attached;
  return lower_->Push(msg);
}

Status AuthSession::DoPop(Message& msg, Session* lls) {
  (void)lls;
  return DeliverUp(msg);
}

Status AuthSession::DoControl(ControlOp op, ControlArgs& args) {
  if (op == ControlOp::kGetPeerHost) {
    args.ip = peer_;
    return OkStatus();
  }
  return ErrStatus(StatusCode::kUnsupported);
}

// ---------------------------------------------------------------------------
// AUTH_NONE
// ---------------------------------------------------------------------------

AuthNoneProtocol::AuthNoneProtocol(Kernel& kernel, Protocol* lower, std::string name)
    : AuthProtocolBase(kernel, lower, std::move(name), kRelProtoAuthNone) {}

std::vector<uint8_t> AuthNoneProtocol::MakeCredentials() const {
  return {kFlavorNone, 0};
}

bool AuthNoneProtocol::Verify(uint8_t flavor, std::span<const uint8_t> body) const {
  return flavor == kFlavorNone && body.empty();
}

// ---------------------------------------------------------------------------
// AUTH_CRED
// ---------------------------------------------------------------------------

AuthCredProtocol::AuthCredProtocol(Kernel& kernel, Protocol* lower, std::string name)
    : AuthProtocolBase(kernel, lower, std::move(name), kRelProtoAuthCred) {}

std::vector<uint8_t> AuthCredProtocol::MakeCredentials() const {
  std::vector<uint8_t> cred(2 + 8);
  cred[0] = kFlavorCred;
  cred[1] = 8;
  WireWriter w(std::span<uint8_t>(cred.data() + 2, 8));
  w.PutU32(uid_);
  w.PutU32(gid_);
  return cred;
}

bool AuthCredProtocol::Verify(uint8_t flavor, std::span<const uint8_t> body) const {
  if (flavor != kFlavorCred || body.size() != 8) {
    return false;
  }
  WireReader r(body);
  const uint32_t uid = r.GetU32();
  return allowed_uids_.count(uid) != 0;
}

}  // namespace xk
