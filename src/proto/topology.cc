#include "src/proto/topology.h"

#include <cassert>
#include <stdexcept>

#include "src/stat/timeseries.h"

namespace xk {

Internet::Internet(HostEnv default_env, uint64_t seed)
    : default_env_(default_env),
      seed_(seed),
      trace_(TraceSink::thread_default()),
      capture_(PacketCapture::thread_default()) {
  if (StatSampler* s = StatSampler::thread_default(); s != nullptr) {
    AttachStats(s);
  }
}

Internet::~Internet() {
  // Detach the sampler while the event queues it probes are still alive.
  if (stats_ != nullptr) {
    stats_->DetachNet(stat_net_);
  }
  // Kernels (and the protocols inside them) may hold sessions referring to
  // segments; destroy kernels first.
  kernels_.clear();
  segments_.clear();
}

size_t Internet::RunAll() {
  const size_t fired = events_.Run();
  // Emit the trailing sample boundaries.
  if (stats_ != nullptr) {
    stats_->FlushNet(stat_net_, events_.now());
  }
  return fired;
}

int Internet::AddSegment(WireModel wire) {
  const int id = static_cast<int>(segments_.size());
  segments_.push_back(
      std::make_unique<EthernetSegment>(events_, wire, seed_ + static_cast<uint64_t>(id)));
  segments_.back()->set_observer_id(id);
  segments_.back()->set_trace(trace_);
  segments_.back()->set_capture(capture_);
  if (stats_ != nullptr) {
    segments_.back()->set_stats(stats_->RegisterSegment(stat_net_, id));
  }
  attachments_.emplace_back();
  return id;
}

HostStack& Internet::AddHost(const std::string& name, int segment, IpAddr ip,
                             std::optional<HostEnv> env) {
  const EthAddr mac = EthAddr::FromIndex(next_eth_index_++);
  auto kernel = std::make_unique<Kernel>(name, events_, env.value_or(default_env_), ip, mac);
  Kernel* k = kernel.get();
  k->set_trace_sink(trace_);
  kernels_.push_back(std::move(kernel));
  if (stats_ != nullptr) {
    stats_->RegisterKernel(stat_net_, *k);
  }

  HostEntry entry;
  entry.name = name;
  entry.stack.kernel = k;
  entry.segment = segment;
  entry.ip = ip;
  entry.env = env.value_or(default_env_);
  hosts_.push_back(std::move(entry));
  HostEntry& e = hosts_.back();
  // Protocol constructors perform open_enables, which charge the CPU, so the
  // graph is built inside a configuration task.
  k->RunTask(events_.now(), [&]() { BuildSubstrate(e); });
  attachments_[segment].push_back(Attachment{ip, mac, e.stack.arp});
  return e.stack;
}

void Internet::BuildSubstrate(HostEntry& e) {
  // Must run inside a task on e's kernel. On restart the Ethernet driver
  // reclaims its old station id (same MAC), so wire-level identity persists
  // across reboots just as the IP address does.
  Kernel* k = e.stack.kernel;
  e.stack.eth = &k->Emplace<EthProtocol>(*k, *segments_[e.segment]);
  e.stack.arp = &k->Emplace<ArpProtocol>(*k, e.stack.eth);
  e.stack.ip = &k->Emplace<IpProtocol>(
      *k, std::vector<IpInterface>{IpInterface{e.stack.eth, e.stack.arp, e.ip, 24}});
}

Internet::HostEntry& Internet::FindEntry(const std::string& name) {
  for (HostEntry& e : hosts_) {
    if (e.name == name) {
      return e;
    }
  }
  throw std::out_of_range("no such host: " + name);
}

void Internet::CrashHost(const std::string& host_name) {
  HostEntry& e = FindEntry(host_name);
  Kernel* k = e.stack.kernel;
  assert(k->is_up() && "CrashHost: host is already down");
  // Null out attachment ARP pointers before their protocols die.
  for (auto& seg : attachments_) {
    for (Attachment& a : seg) {
      if (a.arp != nullptr && &a.arp->kernel() == k) {
        a.arp = nullptr;
      }
    }
  }
  // Protocol destructors charge teardown work, so the crash itself runs as a
  // task unless the caller (e.g. a FaultEngine crash event) already is one.
  if (k->cpu().in_task()) {
    k->Crash();
  } else {
    k->RunTask(k->events().now(), [&]() { k->Crash(); });
  }
  e.stack.eth = nullptr;
  e.stack.arp = nullptr;
  e.stack.ip = nullptr;
}

HostStack& Internet::RestartHost(const std::string& host_name) {
  HostEntry& e = FindEntry(host_name);
  assert(e.segment >= 0 && "RestartHost: routers do not restart");
  Kernel* k = e.stack.kernel;
  assert(!k->is_up() && "RestartHost: host is not down");
  k->Restart();
  const auto reboot = [this, &e, k]() {
    BuildSubstrate(e);
    if (e.gateway.has_value()) {
      e.stack.ip->SetDefaultGateway(*e.gateway);
    }
    if (warmed_) {
      // The peers kept their (still valid) entries for this host; only the
      // reborn host's cache is cold.
      for (const Attachment& b : attachments_[e.segment]) {
        if (b.ip == e.ip) {
          continue;
        }
        ControlArgs args;
        args.ip = b.ip;
        args.eth = b.eth;
        (void)e.stack.arp->Control(ControlOp::kAddResolveEntry, args);
      }
    }
    if (e.restart_hook) {
      e.restart_hook(e.stack);
    }
  };
  if (k->cpu().in_task()) {
    reboot();
  } else {
    k->RunTask(k->events().now(), reboot);
  }
  for (Attachment& a : attachments_[e.segment]) {
    if (a.ip == e.ip) {
      a.arp = e.stack.arp;
    }
  }
  return e.stack;
}

void Internet::set_restart_hook(const std::string& host_name,
                                std::function<void(HostStack&)> hook) {
  FindEntry(host_name).restart_hook = std::move(hook);
}

HostStack& Internet::AddRouter(const std::string& name,
                               std::vector<std::pair<int, IpAddr>> attachments) {
  assert(!attachments.empty());
  const EthAddr primary_mac = EthAddr::FromIndex(next_eth_index_);
  auto kernel = std::make_unique<Kernel>(name, events_, default_env_, attachments[0].second,
                                         primary_mac);
  Kernel* k = kernel.get();
  k->set_trace_sink(trace_);
  kernels_.push_back(std::move(kernel));
  if (stats_ != nullptr) {
    stats_->RegisterKernel(stat_net_, *k);
  }

  HostStack stack;
  stack.kernel = k;
  k->RunTask(events_.now(), [&]() {
    std::vector<IpInterface> ifaces;
    for (size_t i = 0; i < attachments.size(); ++i) {
      const auto& [seg, addr] = attachments[i];
      const EthAddr mac = EthAddr::FromIndex(next_eth_index_++);
      auto* eth = &k->Emplace<EthProtocol>(*k, *segments_[seg], mac,
                                           "eth" + std::to_string(i));
      auto* arp = &k->Emplace<ArpProtocol>(*k, eth, addr, "arp" + std::to_string(i));
      ifaces.push_back(IpInterface{eth, arp, addr, 24});
      attachments_[seg].push_back(Attachment{addr, mac, arp});
      if (i == 0) {
        stack.eth = eth;
        stack.arp = arp;
      }
    }
    stack.ip = &k->Emplace<IpProtocol>(*k, std::move(ifaces));
    stack.ip->set_forwarding(true);
  });
  HostEntry entry;
  entry.name = name;
  entry.stack = stack;
  entry.segment = -1;  // multiple attachments; routers don't restart
  entry.ip = attachments[0].second;
  entry.env = default_env_;
  hosts_.push_back(std::move(entry));
  return hosts_.back().stack;
}

void Internet::WarmArp() {
  for (const auto& seg : attachments_) {
    for (const Attachment& a : seg) {
      a.arp->kernel().RunTask(events_.now(), [&]() {
        for (const Attachment& b : seg) {
          if (&a == &b) {
            continue;
          }
          ControlArgs args;
          args.ip = b.ip;
          args.eth = b.eth;
          (void)a.arp->Control(ControlOp::kAddResolveEntry, args);
        }
      });
    }
  }
  warmed_ = true;
}

void Internet::SetDefaultGateway(const std::string& host_name, IpAddr gw) {
  HostEntry& e = FindEntry(host_name);
  e.gateway = gw;
  e.stack.kernel->RunTask(events_.now(), [&]() { e.stack.ip->SetDefaultGateway(gw); });
}

void Internet::AttachTrace(TraceSink* trace) {
  trace_ = trace;
  for (auto& k : kernels_) {
    k->set_trace_sink(trace);
  }
  for (auto& s : segments_) {
    s->set_trace(trace);
  }
}

void Internet::AttachPcap(PacketCapture* capture) {
  capture_ = capture;
  for (auto& s : segments_) {
    s->set_capture(capture);
  }
}

void Internet::AttachStats(StatSampler* stats) {
  if (stats_ == stats) {
    return;
  }
  if (stats_ != nullptr) {
    for (auto& s : segments_) {
      s->set_stats(nullptr);
    }
    stats_->DetachNet(stat_net_);
    stat_net_ = -1;
  }
  stats_ = stats;
  if (stats_ == nullptr) {
    return;
  }
  stat_net_ = stats_->AttachNet();
  for (auto& k : kernels_) {
    stats_->RegisterKernel(stat_net_, *k);
  }
  for (size_t i = 0; i < segments_.size(); ++i) {
    segments_[i]->set_stats(stats_->RegisterSegment(stat_net_, static_cast<int>(i)));
  }
}

HostStack& Internet::host(const std::string& name) { return FindEntry(name).stack; }

std::unique_ptr<Internet> Internet::TwoHosts(HostEnv env) {
  auto net = std::make_unique<Internet>(env);
  const int seg = net->AddSegment();
  net->AddHost("client", seg, IpAddr(10, 0, 1, 1));
  net->AddHost("server", seg, IpAddr(10, 0, 1, 2));
  net->WarmArp();
  return net;
}

std::unique_ptr<Internet> Internet::TwoSegments(HostEnv env) {
  auto net = std::make_unique<Internet>(env);
  const int seg_a = net->AddSegment();
  const int seg_b = net->AddSegment();
  net->AddHost("client", seg_a, IpAddr(10, 0, 1, 1));
  net->AddHost("server", seg_b, IpAddr(10, 0, 2, 1));
  net->AddRouter("router", {{seg_a, IpAddr(10, 0, 1, 254)}, {seg_b, IpAddr(10, 0, 2, 254)}});
  net->WarmArp();
  net->SetDefaultGateway("client", IpAddr(10, 0, 1, 254));
  net->SetDefaultGateway("server", IpAddr(10, 0, 2, 254));
  return net;
}

}  // namespace xk
