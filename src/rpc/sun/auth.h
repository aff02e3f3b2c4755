// Optional authentication layers for decomposed Sun RPC (paper, Section 5).
//
// "Layering provides a natural methodology for inserting or removing optional
// sub-pieces such as authentication. Much of the complexity in the Sun RPC
// code concerns the optional authentication component." Here each mechanism
// is its own pass-through protocol that can be composed between SUN_SELECT
// and REQUEST_REPLY (or left out entirely):
//
//   SUN_SELECT - REQUEST_REPLY - ...               (no auth)
//   SUN_SELECT - AUTH_NONE - REQUEST_REPLY - ...   (null flavor on the wire)
//   SUN_SELECT - AUTH_CRED - REQUEST_REPLY - ...   (uid/gid credentials)
//
// Direction rule: sessions created actively are client-side and attach this
// host's credentials to what they push; sessions created passively (at the
// server) verify the credentials of everything arriving and strip them. A
// rejected call is answered with a reject marker, which the client side
// surfaces as a kRejected SessionError.

#ifndef XK_SRC_RPC_SUN_AUTH_H_
#define XK_SRC_RPC_SUN_AUTH_H_

#include <set>

#include "src/core/kernel.h"
#include "src/core/map.h"
#include "src/core/protocol.h"

namespace xk {

// Common machinery: a header-bearing pass-through layer with per-peer
// sessions. Subclasses define the credential block and its verification.
class AuthProtocolBase : public Protocol {
 public:
  static constexpr uint8_t kFlavorNone = 0;
  static constexpr uint8_t kFlavorCred = 1;
  static constexpr uint8_t kFlavorReject = 0xFF;

  AuthProtocolBase(Kernel& kernel, Protocol* lower, std::string name, RelProtoNum rel_proto);

  struct Stats {
    uint64_t attached = 0;
    uint64_t verified = 0;
    uint64_t rejected = 0;
  };
  const Stats& stats() const { return stats_; }

 protected:
  Result<SessionRef> DoOpen(Protocol& hlp, const ParticipantSet& parts) override;
  Status DoOpenEnable(Protocol& hlp, const ParticipantSet& parts) override;
  Status DoDemux(Session* lls, Message& msg) override;

  // Serialized credential block this host attaches (flavor + body).
  virtual std::vector<uint8_t> MakeCredentials() const = 0;
  // Verifies an arriving credential block at the server side.
  virtual bool Verify(uint8_t flavor, std::span<const uint8_t> body) const = 0;

 private:
  friend class AuthSession;
  RelProtoNum rel_proto_;
  DemuxMap<IpAddr> active_;  // per peer host
  Protocol* enabled_hlp_ = nullptr;
  Stats stats_;
};

class AuthSession : public Session {
 public:
  AuthSession(AuthProtocolBase& owner, Protocol* hlp, IpAddr peer, SessionRef lower,
              bool server_side);

  bool server_side() const { return server_side_; }

 protected:
  Status DoPush(Message& msg) override;
  Status DoPop(Message& msg, Session* lls) override;
  Status DoControl(ControlOp op, ControlArgs& args) override;
  Session* lower_for_control() const override { return lower_.get(); }

 private:
  friend class AuthProtocolBase;
  AuthProtocolBase& auth_;
  IpAddr peer_;
  SessionRef lower_;
  bool server_side_;
};

// AUTH_NONE: the null flavor -- a two-byte header, no verification beyond the
// flavor byte. Exists so the wire format matches "authentication present".
class AuthNoneProtocol : public AuthProtocolBase {
 public:
  AuthNoneProtocol(Kernel& kernel, Protocol* lower, std::string name = "authnone");

 protected:
  std::vector<uint8_t> MakeCredentials() const override;
  bool Verify(uint8_t flavor, std::span<const uint8_t> body) const override;
};

// AUTH_CRED: uid/gid credentials checked against a server-side allow list
// (a simplified AUTH_UNIX).
class AuthCredProtocol : public AuthProtocolBase {
 public:
  AuthCredProtocol(Kernel& kernel, Protocol* lower, std::string name = "authcred");

  void SetCredentials(uint32_t uid, uint32_t gid) {
    uid_ = uid;
    gid_ = gid;
  }
  void AllowUid(uint32_t uid) { allowed_uids_.insert(uid); }

 protected:
  std::vector<uint8_t> MakeCredentials() const override;
  bool Verify(uint8_t flavor, std::span<const uint8_t> body) const override;

 private:
  uint32_t uid_ = 0;
  uint32_t gid_ = 0;
  std::set<uint32_t> allowed_uids_;
};

}  // namespace xk

#endif  // XK_SRC_RPC_SUN_AUTH_H_
