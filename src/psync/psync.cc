#include "src/psync/psync.h"

#include "src/core/wire.h"

namespace xk {

namespace {
constexpr size_t kFixedHeader = 13;  // conv_id + msg_id + sender + num_deps
}  // namespace

// ---------------------------------------------------------------------------
// PsyncProtocol
// ---------------------------------------------------------------------------

PsyncProtocol::PsyncProtocol(Kernel& kernel, Protocol* lower, std::string name)
    : Protocol(kernel, std::move(name), {lower}) {
  ParticipantSet enable;
  enable.local.rel_proto = kRelProtoPsync;
  enable.local.ip_proto = kIpProtoPsync;
  (void)this->lower(0)->OpenEnable(*this, enable);
}

Result<SessionRef> PsyncProtocol::SessionTo(IpAddr host) {
  auto it = peers_.find(host);
  if (it != peers_.end()) {
    return it->second;
  }
  ParticipantSet parts;
  parts.peer.host = host;
  parts.local.rel_proto = kRelProtoPsync;
  parts.local.ip_proto = kIpProtoPsync;
  Result<SessionRef> sess = lower(0)->Open(*this, parts);
  if (sess.ok()) {
    peers_[host] = *sess;
  }
  return sess;
}

Result<PsyncConversation*> PsyncProtocol::Join(uint32_t conv_id, std::vector<IpAddr> others) {
  auto it = conversations_.find(conv_id);
  if (it != conversations_.end()) {
    return it->second.get();
  }
  // Open sessions to every other participant now (sessions are cached).
  for (IpAddr host : others) {
    Result<SessionRef> sess = SessionTo(host);
    if (!sess.ok()) {
      return sess.status();
    }
  }
  auto conv = std::unique_ptr<PsyncConversation>(
      new PsyncConversation(*this, conv_id, std::move(others)));
  PsyncConversation* ptr = conv.get();
  conversations_[conv_id] = std::move(conv);
  return ptr;
}

Status PsyncProtocol::DoDemux(Session* lls, Message& msg) {
  (void)lls;
  uint8_t fixed[kFixedHeader];
  if (!msg.PopHeader(fixed)) {
    return ErrStatus(StatusCode::kInvalidArgument);
  }
  WireReader r(fixed);
  const uint32_t conv_id = r.GetU32();
  const PsyncMsgId id = r.GetU32();
  const IpAddr sender = r.GetIpAddr();
  const uint8_t num_deps = r.GetU8();
  kernel().ChargeHdrLoad(kFixedHeader + num_deps * 4u);
  if (num_deps > kMaxDeps) {
    return ErrStatus(StatusCode::kInvalidArgument);
  }
  std::vector<PsyncMsgId> deps(num_deps);
  for (uint8_t i = 0; i < num_deps; ++i) {
    uint8_t dep_raw[4];
    if (!msg.PopHeader(dep_raw)) {
      return ErrStatus(StatusCode::kInvalidArgument);
    }
    WireReader dr(dep_raw);
    deps[i] = dr.GetU32();
  }
  auto it = conversations_.find(conv_id);
  if (it == conversations_.end()) {
    kernel().Tracef(2, "psync: unknown conversation %u", conv_id);
    return ErrStatus(StatusCode::kNotFound);
  }
  it->second->HandleIncoming(id, sender, std::move(deps), msg);
  return OkStatus();
}

// ---------------------------------------------------------------------------
// PsyncConversation
// ---------------------------------------------------------------------------

PsyncConversation::PsyncConversation(PsyncProtocol& proto, uint32_t conv_id,
                                     std::vector<IpAddr> others)
    : proto_(proto), conv_id_(conv_id), others_(std::move(others)) {}

void PsyncConversation::Insert(PsyncMsgId id, IpAddr sender,
                               const std::vector<PsyncMsgId>& deps) {
  nodes_[id] = Node{sender, deps};
  for (PsyncMsgId dep : deps) {
    leaves_.erase(dep);
  }
  leaves_.insert(id);
}

Result<PsyncMsgId> PsyncConversation::Send(const Message& payload) {
  Kernel& kernel = proto_.kernel();
  // Host-unique id: high bits from the host address, low bits a counter.
  const PsyncMsgId id =
      (kernel.ip_addr().value() << 16) ^ (kernel.ip_addr().value() >> 16) ^ next_local_++;
  std::vector<PsyncMsgId> deps(leaves_.begin(), leaves_.end());
  if (deps.size() > PsyncProtocol::kMaxDeps) {
    deps.resize(PsyncProtocol::kMaxDeps);
  }

  // Build the header once; the payload chunks are shared between all copies.
  std::vector<uint8_t> hdr(kFixedHeader + 4 * deps.size());
  WireWriter w(hdr);
  w.PutU32(conv_id_);
  w.PutU32(id);
  w.PutIpAddr(kernel.ip_addr());
  w.PutU8(static_cast<uint8_t>(deps.size()));
  for (PsyncMsgId dep : deps) {
    w.PutU32(dep);
  }
  kernel.ChargeHdrStore(hdr.size());

  Status last = OkStatus();
  for (IpAddr host : others_) {
    Result<SessionRef> sess = proto_.SessionTo(host);
    if (!sess.ok()) {
      return sess.status();
    }
    Message copy = payload;
    copy.PushHeader(hdr);
    ++proto_.stats_.copies_sent;
    last = (*sess)->Push(copy);
    if (!last.ok()) {
      return last;
    }
  }
  Insert(id, kernel.ip_addr(), deps);
  return id;
}

void PsyncConversation::HandleIncoming(PsyncMsgId id, IpAddr sender,
                                       std::vector<PsyncMsgId> deps, Message& payload) {
  if (nodes_.count(id) != 0) {
    return;  // FRAGMENT may duplicate
  }
  proto_.kernel().ChargeMapBind();
  Insert(id, sender, deps);
  if (on_receive_) {
    PsyncDelivery d;
    d.sender = sender;
    d.id = id;
    d.context = std::move(deps);
    d.payload = payload;
    on_receive_(d);
  }
}

bool PsyncConversation::Precedes(PsyncMsgId a, PsyncMsgId b) const {
  if (a == b || nodes_.count(b) == 0) {
    return false;
  }
  // Reverse reachability from b through context edges.
  std::vector<PsyncMsgId> stack = {b};
  std::set<PsyncMsgId> seen;
  while (!stack.empty()) {
    const PsyncMsgId cur = stack.back();
    stack.pop_back();
    auto it = nodes_.find(cur);
    if (it == nodes_.end()) {
      continue;
    }
    for (PsyncMsgId dep : it->second.deps) {
      if (dep == a) {
        return true;
      }
      if (seen.insert(dep).second) {
        stack.push_back(dep);
      }
    }
  }
  return false;
}

}  // namespace xk
