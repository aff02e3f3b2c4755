#include "src/app/anchor.h"

#include "src/trace/trace.h"

namespace xk {

// ---------------------------------------------------------------------------
// RpcClient
// ---------------------------------------------------------------------------

RpcClient::RpcClient(Kernel& kernel, Protocol* rpc, std::string name)
    : Protocol(kernel, std::move(name), {rpc}), rpc_(rpc) {}

void RpcClient::CallParts(const ParticipantSet& parts, Message args, RpcDone done) {
  kernel().Charge(app_cost_);
  Result<SessionRef> sess = rpc_->Open(*this, parts);
  if (!sess.ok()) {
    ++calls_failed_;
    done(sess.status());
    return;
  }
  outstanding_[sess->get()].push_back(std::move(done));
  Status pushed = (*sess)->Push(args);
  if (!pushed.ok()) {
    ++calls_failed_;
    RpcDone cb = std::move(outstanding_[sess->get()].back());
    outstanding_[sess->get()].pop_back();
    cb(pushed);
  }
}

void RpcClient::Call(IpAddr server, uint16_t command, Message args, RpcDone done) {
  // Cache open sessions (the paper's first "efficiency rule").
  auto it = session_cache_.find({server, command});
  if (it != session_cache_.end()) {
    kernel().Charge(app_cost_);
    SessionRef sess = it->second;
    outstanding_[sess.get()].push_back(std::move(done));
    Status pushed = sess->Push(args);
    if (!pushed.ok()) {
      ++calls_failed_;
      RpcDone cb = std::move(outstanding_[sess.get()].back());
      outstanding_[sess.get()].pop_back();
      cb(pushed);
    }
    return;
  }
  ParticipantSet parts;
  parts.peer.host = server;
  parts.peer.command = command;
  kernel().Charge(app_cost_);
  Result<SessionRef> sess = rpc_->Open(*this, parts);
  if (!sess.ok()) {
    ++calls_failed_;
    done(sess.status());
    return;
  }
  session_cache_[{server, command}] = *sess;
  outstanding_[sess->get()].push_back(std::move(done));
  Status pushed = (*sess)->Push(args);
  if (!pushed.ok()) {
    ++calls_failed_;
    RpcDone cb = std::move(outstanding_[sess->get()].back());
    outstanding_[sess->get()].pop_back();
    cb(pushed);
  }
}

Status RpcClient::DoDemux(Session* lls, Message& msg) {
  kernel().Charge(app_cost_);
  auto it = outstanding_.find(lls);
  if (it == outstanding_.end() || it->second.empty()) {
    return ErrStatus(StatusCode::kNotFound);
  }
  RpcDone done = std::move(it->second.front());
  it->second.pop_front();
  ++calls_completed_;
  done(msg);
  return OkStatus();
}

void RpcClient::ExportGauges(const CounterEmit& emit) const {
  uint64_t outstanding = 0;
  for (const auto& [sess, queue] : outstanding_) {
    (void)sess;
    outstanding += queue.size();
  }
  emit("outstanding_calls", outstanding);
}

void RpcClient::SessionError(Session& lls, Status error) {
  auto it = outstanding_.find(&lls);
  if (it == outstanding_.end() || it->second.empty()) {
    return;
  }
  RpcDone done = std::move(it->second.front());
  it->second.pop_front();
  ++calls_failed_;
  done(error);
}

Status RpcClient::DoControl(ControlOp op, ControlArgs& args) {
  if (op == ControlOp::kGetMaxSendSize) {
    args.u64 = max_send_size_;
    return OkStatus();
  }
  return ErrStatus(StatusCode::kUnsupported);
}

// ---------------------------------------------------------------------------
// RpcServer
// ---------------------------------------------------------------------------

RpcServer::RpcServer(Kernel& kernel, Protocol* rpc, std::string name)
    : Protocol(kernel, std::move(name), {rpc}), rpc_(rpc) {}

Status RpcServer::Export(uint16_t command, Handler handler) {
  handlers_[command] = std::move(handler);
  ParticipantSet parts;
  if (command != kAny) {
    parts.local.command = command;
  }
  return rpc_->OpenEnable(*this, parts);
}

Status RpcServer::ExportParts(const ParticipantSet& parts, Handler handler) {
  handlers_[parts.local.command.value_or(kAny)] = std::move(handler);
  return rpc_->OpenEnable(*this, parts);
}

RpcServer::Handler RpcServer::HandlerFor(uint16_t command) {
  if (auto it = handlers_.find(command); it != handlers_.end()) {
    return it->second;
  }
  if (auto it = handlers_.find(kAny); it != handlers_.end()) {
    return it->second;
  }
  return nullptr;
}

Status RpcServer::DoDemux(Session* lls, Message& msg) {
  if (lls == nullptr) {
    return ErrStatus(StatusCode::kInvalidArgument);
  }
  uint16_t command = 0;
  ControlArgs args;
  if (lls->Control(ControlOp::kGetLastCommand, args).ok()) {
    command = static_cast<uint16_t>(args.u64);
  }
  Handler handler = HandlerFor(command);
  if (handler == nullptr) {
    return ErrStatus(StatusCode::kNotFound);
  }
  // Service time runs from here to the reply entering the stack; reading the
  // task clock charges nothing, so measured runs stay bit-identical.
  const SimTime service_start = kernel().now();
  // Deadline-aware shedding: a request that expired while queued (behind the
  // CPU backlog or the channel semaphore) is answered with a cheap error
  // reply instead of being charged execution -- the client has already given
  // up on it, so executing it only steals capacity from live work.
  if (msg.deadline() != 0 && service_start >= msg.deadline()) {
    if (TraceSink* ts = kernel().trace_sink()) {
      ts->RecordEvent(kernel(), TraceOp::kShed, name(), service_start, 0, &msg, lls, 0,
                      StatusCode::kDeadlineExceeded);
    }
    Message reply;
    reply.set_wire_error(static_cast<uint8_t>(StatusCode::kDeadlineExceeded));
    return lls->Push(reply);
  }
  // Admission control: when the delayed-service window is full, or this task
  // is running `max_backlog_` behind its arrival event (the CPU run queue has
  // grown past the bound), fast-reject with BUSY before charging app cost or
  // running the handler. The reply still pays the normal send path -- the
  // point is to skip the expensive part, not to be free.
  const SimTime backlog = service_start - kernel().events().now();
  if ((max_inflight_ != 0 && inflight_ >= max_inflight_) ||
      (max_backlog_ != 0 && backlog > max_backlog_)) {
    if (TraceSink* ts = kernel().trace_sink()) {
      ts->RecordEvent(kernel(), TraceOp::kReject, name(), service_start, 0, &msg, lls,
                      static_cast<uint64_t>(backlog), StatusCode::kBusy);
    }
    Message reply;
    reply.set_wire_error(static_cast<uint8_t>(StatusCode::kBusy));
    return lls->Push(reply);
  }
  kernel().Charge(app_cost_);
  ++requests_served_;
  if (service_delay_ > 0) {
    // Slow service: reply later, from a fresh task.
    SessionRef reply_to = lls->Ref();
    Message request = msg;
    ++inflight_;
    kernel().SetTimer(service_delay_,
                      [this, handler, reply_to, request, command, service_start]() mutable {
                        --inflight_;
                        Message reply = handler(command, request);
                        (void)reply_to->Push(reply);
                        service_time_.Record(kernel().now() - service_start);
                      });
    return OkStatus();
  }
  Message reply = handler(command, msg);
  const Status pushed = lls->Push(reply);
  service_time_.Record(kernel().now() - service_start);
  return pushed;
}

Status RpcServer::DoControl(ControlOp op, ControlArgs& args) {
  if (op == ControlOp::kGetMaxSendSize) {
    args.u64 = UINT64_MAX;
    return OkStatus();
  }
  if (op == ControlOp::kSetAdmissionLimit) {
    set_admission_limit(static_cast<uint32_t>(args.u64 >> 32),
                        Usec(args.u64 & 0xFFFFFFFF));
    return OkStatus();
  }
  return ErrStatus(StatusCode::kUnsupported);
}

// ---------------------------------------------------------------------------
// EchoAnchor
// ---------------------------------------------------------------------------

EchoAnchor::EchoAnchor(Kernel& kernel, bool server_role, std::string name)
    : Protocol(kernel, std::move(name), {}), server_role_(server_role) {}

void EchoAnchor::Send(const SessionRef& sess, Message msg, RpcDone done) {
  kernel().Charge(app_cost_);
  outstanding_[sess.get()].push_back(std::move(done));
  Status pushed = sess->Push(msg);
  if (!pushed.ok()) {
    RpcDone cb = std::move(outstanding_[sess.get()].back());
    outstanding_[sess.get()].pop_back();
    cb(pushed);
  }
}

Status EchoAnchor::DoDemux(Session* lls, Message& msg) {
  kernel().Charge(app_cost_);
  if (server_role_) {
    if (lls == nullptr) {
      return ErrStatus(StatusCode::kInvalidArgument);
    }
    ++echoes_;
    Message reply = echo_limit_ == SIZE_MAX ? msg : msg.Slice(0, echo_limit_);
    return lls->Push(reply);
  }
  auto it = outstanding_.find(lls);
  if (it == outstanding_.end() || it->second.empty()) {
    return ErrStatus(StatusCode::kNotFound);
  }
  RpcDone done = std::move(it->second.front());
  it->second.pop_front();
  done(msg);
  return OkStatus();
}

void EchoAnchor::ExportGauges(const CounterEmit& emit) const {
  if (server_role_) {
    return;
  }
  uint64_t outstanding = 0;
  for (const auto& [sess, queue] : outstanding_) {
    (void)sess;
    outstanding += queue.size();
  }
  emit("outstanding_sends", outstanding);
}

void EchoAnchor::SessionError(Session& lls, Status error) {
  auto it = outstanding_.find(&lls);
  if (it == outstanding_.end() || it->second.empty()) {
    return;
  }
  RpcDone done = std::move(it->second.front());
  it->second.pop_front();
  done(error);
}

Status EchoAnchor::DoControl(ControlOp op, ControlArgs& args) {
  if (op == ControlOp::kGetMaxSendSize) {
    args.u64 = max_send_size_;
    return OkStatus();
  }
  return ErrStatus(StatusCode::kUnsupported);
}

}  // namespace xk
