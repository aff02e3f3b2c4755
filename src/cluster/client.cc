#include "src/cluster/client.h"

#include "src/app/oracle.h"
#include "src/trace/trace.h"

namespace xk {

ClusterClient::ClusterClient(Kernel& kernel, Protocol* rpc, std::string name)
    : Protocol(kernel, std::move(name), {rpc}), rpc_(rpc) {}

void ClusterClient::Call(IpAddr service, uint16_t command, uint64_t id, Message args,
                         RpcDone done) {
  kernel().Charge(app_cost_);
  SessionRef sess;
  auto it = session_cache_.find({service, command});
  if (it != session_cache_.end()) {
    sess = it->second;
  } else {
    ParticipantSet parts;
    parts.peer.host = service;
    parts.peer.command = command;
    Result<SessionRef> r = rpc_->Open(*this, parts);
    if (!r.ok()) {
      done(r.status());
      return;
    }
    sess = *r;
    session_cache_[{service, command}] = sess;
  }
  PendingCall& entry = outstanding_[sess.get()][id];
  entry.done = std::move(done);
  entry.issued_at = kernel().now();
  if (hedge_base_delay_ > 0) {
    entry.args = args;  // keep a copy: Push consumes/extends the original
  }
  Status pushed = sess->Push(args);
  // Re-find after the push: our own synchronous-failure path below is the
  // only eraser, but map nodes are stable so the reference would dangle only
  // if this id settled, which a not-yet-delivered push cannot do.
  auto oit = outstanding_.find(sess.get());
  if (oit == outstanding_.end()) {
    return;
  }
  auto cit = oit->second.find(id);
  if (cit == oit->second.end()) {
    return;
  }
  if (!pushed.ok()) {
    // Synchronous failure (every replica down, or all capped): nothing went
    // out, so the id is still ours to complete directly.
    RpcDone cb = std::move(cit->second.done);
    oit->second.erase(cit);
    cb(pushed);
    return;
  }
  if (hedge_base_delay_ > 0) {
    PendingCall& pc = cit->second;
    ControlArgs cargs;
    if (rpc_->Control(ControlOp::kGetLastPick, cargs).ok()) {
      pc.primary_pick = static_cast<int>(static_cast<int64_t>(cargs.u64));
    }
    const SimTime delay =
        rtt_.count() >= kHedgeMinSamples ? rtt_.P99() : hedge_base_delay_;
    Session* sp = sess.get();
    pc.hedge_timer = kernel().SetTimer(delay, [this, sp, id] { FireHedge(sp, id); });
  }
}

void ClusterClient::FireHedge(Session* sess, uint64_t id) {
  auto oit = outstanding_.find(sess);
  if (oit == outstanding_.end()) {
    return;
  }
  auto cit = oit->second.find(id);
  if (cit == oit->second.end()) {
    return;  // settled while the timer was in flight
  }
  PendingCall& pc = cit->second;
  pc.hedged = true;
  ++pc.attempts;
  ++hedges_;
  if (pc.primary_pick >= 0) {
    // One-shot: only this hedge push avoids the primary's replica.
    ControlArgs cargs;
    cargs.u64 = static_cast<uint64_t>(static_cast<int64_t>(pc.primary_pick));
    (void)rpc_->Control(ControlOp::kSetAvoidReplica, cargs);
  }
  if (TraceSink* ts = kernel().trace_sink()) {
    ts->RecordEvent(kernel(), TraceOp::kHedge, name(), kernel().now(), id, &pc.args, sess,
                    static_cast<uint64_t>(pc.primary_pick >= 0 ? pc.primary_pick : 0));
  }
  if (hedge_notify_) {
    hedge_notify_(id);
  }
  Message copy = pc.args;  // carries the deadline metadata too
  Status pushed = sess->Push(copy);
  if (!pushed.ok()) {
    // No second replica to hedge onto (capped, avoided, or down): the
    // primary attempt stands alone again.
    --pc.attempts;
  }
}

void ClusterClient::Evict(IpAddr service, uint16_t command) {
  auto it = session_cache_.find({service, command});
  if (it == session_cache_.end()) {
    return;
  }
  ControlArgs args;
  (void)it->second->Control(ControlOp::kFlushSessions, args);
  // Keep the outstanding_ entry: in-flight replies still demux through the
  // session object until they drain; only the cache forgets it.
  session_cache_.erase(it);
}

Status ClusterClient::DoDemux(Session* lls, Message& msg) {
  kernel().Charge(app_cost_);
  auto it = outstanding_.find(lls);
  if (it == outstanding_.end()) {
    return ErrStatus(StatusCode::kNotFound);
  }
  const uint64_t id = AmoOracle::ExtractId(msg);
  auto cit = it->second.find(id);
  if (cit == it->second.end()) {
    // The reply beat us here after its call already failed, or the other
    // hedge attempt won. Count it; don't misdeliver.
    ++late_replies_;
    return OkStatus();
  }
  PendingCall pc = std::move(cit->second);
  it->second.erase(cit);
  if (hedge_base_delay_ > 0 && !pc.hedged) {
    // Primary settled before the hedge delay elapsed: the common case.
    kernel().CancelTimer(pc.hedge_timer);
    ++hedge_cancels_;
    if (TraceSink* ts = kernel().trace_sink()) {
      ts->RecordEvent(kernel(), TraceOp::kHedgeCancel, name(), kernel().now(), id, &msg,
                      lls, 0);
    }
  }
  rtt_.Record(kernel().now() - pc.issued_at);
  pc.done(msg);
  return OkStatus();
}

void ClusterClient::SessionError(Session& lls, Status error) {
  SessionCallError(lls, error, nullptr);
}

void ClusterClient::SessionCallError(Session& lls, Status error, const Message* request) {
  auto it = outstanding_.find(&lls);
  if (it == outstanding_.end() || it->second.empty()) {
    return;
  }
  // The failing request's first 8 bytes are the call id, so out-of-order
  // rejects complete the right call. Without a request (legacy SessionError)
  // fall back to the oldest outstanding id -- CHANNEL surfaces giveups in
  // issue order.
  auto cit = it->second.begin();
  if (request != nullptr) {
    const uint64_t id = AmoOracle::ExtractId(*request);
    cit = it->second.find(id);
    if (cit == it->second.end()) {
      // This attempt's call already settled (its hedge twin won, or the
      // reply raced the error). Nothing left to complete.
      ++late_replies_;
      return;
    }
  }
  PendingCall& pc = cit->second;
  if (pc.attempts > 1) {
    // One attempt died; its twin is still in flight and may yet win.
    --pc.attempts;
    return;
  }
  if (hedge_base_delay_ > 0 && !pc.hedged) {
    kernel().CancelTimer(pc.hedge_timer);
  }
  RpcDone done = std::move(pc.done);
  it->second.erase(cit);
  done(error);
}

void ClusterClient::ExportGauges(const CounterEmit& emit) const {
  uint64_t outstanding = 0;
  for (const auto& [sess, by_id] : outstanding_) {
    (void)sess;
    outstanding += by_id.size();
  }
  emit("outstanding_calls", outstanding);
}

Status ClusterClient::DoControl(ControlOp op, ControlArgs& args) {
  if (op == ControlOp::kGetMaxSendSize) {
    args.u64 = max_send_size_;
    return OkStatus();
  }
  return ErrStatus(StatusCode::kUnsupported);
}

}  // namespace xk
