// xk_perfbench: the host-time benchmark program.
//
// Drives the simulator from outside, through the same public builders and
// entry points the bench binaries use (Internet, BuildLRpc, RpcClient::Call,
// ClusterClient::Call, UdpProtocol::Open, Internet::RunAll, TraceSink,
// tracetool::Parse, causal::Stitch), and times the calls into them. Every
// workload is a batch job: a fixed amount of simulated work run as fast as
// the host allows, single-threaded, on the serial engine.
//
//   xk_perfbench --workload W --seed N --seconds S --trace 0|1
//                --baseline FILE [--rev REV] [--spans FILE]
//
// One invocation runs one unmeasured repeat, then repeats the workload (a
// fresh network each time) until S seconds of host time are spent, with
// set-up-only samples and explain rounds (trace, serialize, parse and stitch
// a smaller slice) spread between the repeats. With --trace 0 the last stdout
// line carries the end-to-end metrics; with --trace 1 untraced and traced
// repeats alternate, the benchmark records its own spans in the traced ones,
// runs the Table III depth sweep, and the last line carries the per-layer
// metrics. Any failed output check makes the exit code non-zero.

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/app/anchor.h"
#include "src/app/oracle.h"
#include "src/app/stacks.h"
#include "src/cluster/client.h"
#include "src/cluster/vpool.h"
#include "src/proto/topology.h"
#include "src/proto/udp.h"
#include "src/sim/rng.h"
#include "src/stat/histogram.h"
#include "src/tools/trace_reader.h"
#include "src/trace/causal.h"
#include "src/trace/trace.h"

namespace xk {
namespace {

using Clock = std::chrono::steady_clock;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Value at quantile q of `v` (nearest rank); reorders `v`.
double Quantile(std::vector<int64_t>& v, double q) {
  if (v.empty()) {
    return 0;
  }
  size_t k = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  k = std::min(v.size() - 1, k == 0 ? 0 : k - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return static_cast<double>(v[k]);
}

// The value 5% in from the fast end of `v` (nearest rank): the
// undisturbed speed (see "host-time estimators" below).
double FastEnd(std::vector<double> v, bool higher_better) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const double q = higher_better ? 0.95 : 0.05;
  return v[static_cast<size_t>(std::lround(q * static_cast<double>(v.size() - 1)))];
}

double ProcStatusMb(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0;
  }
  char line[256];
  double kb = 0;
  const size_t n = std::strlen(key);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, key, n) == 0) {
      kb = std::strtod(line + n, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// --- the benchmark's own spans --------------------------------------------------
//
// Held in memory, written as JSONL when the benchmark ends. Each span has a
// name, host start/end (ns since the recorder was created), the span open
// when it began (its parent) and the simulated call id it belongs to (0 =
// none). Self time is duration minus the time its children cover.
class SpanLog {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;

  SpanLog() : epoch_(NowNs()) {}

  uint32_t Begin(const char* name, uint64_t call = 0) {
    const uint32_t id = static_cast<uint32_t>(spans_.size());
    spans_.push_back(Span{name, stack_.empty() ? kNone : stack_.back(), call, NowNs() - epoch_, 0});
    stack_.push_back(id);
    return id;
  }

  void End(uint32_t id) {
    spans_[id].t1 = NowNs() - epoch_;
    stack_.pop_back();
  }

  // Per-name count and self-time total over the closed spans from `from`.
  struct Agg {
    uint64_t count = 0;
    double self_ns = 0;
  };
  std::map<std::string, Agg> Aggregate(size_t from = 0) const {
    std::vector<int64_t> child(spans_.size(), 0);
    for (size_t i = from; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.parent != kNone && s.parent >= from) {
        child[s.parent] += s.t1 - s.t0;
      }
    }
    std::map<std::string, Agg> out;
    for (size_t i = from; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      Agg& a = out[s.name];
      ++a.count;
      a.self_ns += static_cast<double>(s.t1 - s.t0 - child[i]);
    }
    return out;
  }

  size_t size() const { return spans_.size(); }

  // Drops the per-call spans recorded since `from` (one repeat's worth),
  // keeping the phase spans, so memory stays bounded across repeats. The
  // last traced repeat's call spans survive to be written out.
  void DropCallSpans(size_t from) {
    std::vector<uint32_t> remap(spans_.size(), kNone);
    size_t w = from;
    for (size_t i = from; i < spans_.size(); ++i) {
      if (spans_[i].call == 0) {
        remap[i] = static_cast<uint32_t>(w);
        spans_[w++] = spans_[i];
      }
    }
    spans_.resize(w);
    for (size_t i = from; i < spans_.size(); ++i) {
      uint32_t& p = spans_[i].parent;
      if (p != kNone && p >= from) {
        p = remap[p];
      }
    }
  }

  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                   "\"parent\":%lld,\"call\":%llu}\n",
                   i, s.name, static_cast<long long>(s.t0), static_cast<long long>(s.t1),
                   s.parent == kNone ? -1LL : static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.call));
    }
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    const char* name;
    uint32_t parent;
    uint64_t call;
    int64_t t0;
    int64_t t1;
  };
  int64_t epoch_;
  std::vector<Span> spans_;
  std::vector<uint32_t> stack_;
};

// Opens a span on `log` (if any) for the lifetime of the scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t call = 0)
      : log_(log), id_(log != nullptr ? log->Begin(name, call) : 0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) {
      log_->End(id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  uint32_t id_;
};

// --- per-repeat measurement -------------------------------------------------------

// The run phase of a repeat is cut into this many windows of equal call
// counts; host-time metrics are taken per window.
constexpr uint64_t kWindowsPerRepeat = 1000;

// What must be identical across every repeat of one invocation.
struct Digest {
  uint64_t events = 0;
  uint64_t completed = 0;
  SimTime sum_done = 0;
  SimTime rtt_p50 = 0;
  SimTime rtt_p99 = 0;

  bool operator==(const Digest&) const = default;
  std::string ToString() const {
    char buf[200];
    std::snprintf(buf, sizeof(buf), "events=%llu completed=%llu sum_done=%lld p50=%lld p99=%lld",
                  static_cast<unsigned long long>(events),
                  static_cast<unsigned long long>(completed), static_cast<long long>(sum_done),
                  static_cast<long long>(rtt_p50), static_cast<long long>(rtt_p99));
    return buf;
  }
};

// Layer counters read from public accessors after a repeat (all simulated:
// identical across repeats).
struct LayerCounts {
  uint64_t frames = 0;
  uint64_t fault_drops = 0;
  uint64_t fragments = 0;
  uint64_t retransmissions = 0;
  uint64_t down_marks = 0;
  uint64_t forwards = 0;
  uint64_t pending_peak = 0;
  uint64_t demux_probe_max = 0;
  uint64_t session_slots = 0;
  uint64_t sessions_opened = 0;
  uint64_t sessions_evicted = 0;
};

struct Repeat {
  double topology_s = 0;
  double arp_s = 0;
  double stacks_s = 0;  // stacks, anchors, warm-up / session population
  double population_s = 0;  // sessions: opening both populations (part of stacks_s)
  double run_s = 0;
  double drain_s = 0;
  uint64_t issued = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;     // error returns
  uint64_t never_ran = 0;  // callbacks that had not run by quiescence
  uint64_t double_runs = 0;
  std::vector<int64_t> lat_ns;  // host time, issue -> completion callback
  // Host time at completions 0, K, 2K, ... (K = window_calls): the run phase
  // cut into windows of K calls each.
  uint64_t window_calls = 0;
  std::vector<int64_t> marks;
  Histogram rtt;                // simulated round trips
  std::vector<SimTime> first_rtts;  // the first 64 simulated round trips
  uint64_t warm_calls = 0;          // unmeasured set-up calls (pair warm-up)
  // pair: p50 of the first 64 calls of a fresh pair, cold call included --
  // exactly the histogram bench_suite's table2_layering job records.
  SimTime first64_p50 = 0;
  Digest digest;
  LayerCounts counts;
  uint64_t live_after_drain = 0;
  bool oracle_clean = true;
  std::string oracle_detail;

  double setup_s() const { return topology_s + arp_s + stacks_s; }
};

// Bookkeeping shared by the closed- and open-loop drivers: one slot per call
// so "every callback runs exactly once" is checked, not assumed.
class CallBook {
 public:
  CallBook(Repeat& rep, Internet& net, uint64_t expected) : rep_(rep), net_(net) {
    ran_.reserve(expected);
    rep_.lat_ns.reserve(expected);
  }

  // Returns the call's slot.
  size_t Issue() {
    ++rep_.issued;
    ran_.push_back(0);
    return ran_.size() - 1;
  }

  void Complete(size_t slot, SimTime at, SimTime done_at, bool ok, int64_t host_t0,
                int64_t host_t1) {
    if (ran_[slot]++ != 0) {
      ++rep_.double_runs;
      return;
    }
    if (rep_.window_calls > 0 && rep_.lat_ns.size() % rep_.window_calls == 0) {
      rep_.marks.push_back(host_t1);
    }
    rep_.lat_ns.push_back(host_t1 - host_t0);
    rep_.rtt.Record(done_at - at);
    if (rep_.first_rtts.size() < 64) {
      rep_.first_rtts.push_back(done_at - at);
    }
    rep_.digest.sum_done += done_at;
    if (ok) {
      ++rep_.completed;
    } else {
      ++rep_.failed;
    }
    rep_.counts.pending_peak =
        std::max<uint64_t>(rep_.counts.pending_peak, net_.events().pending_events());
  }

  void Finish() {
    for (uint8_t r : ran_) {
      if (r == 0) {
        ++rep_.never_ran;
      }
    }
    rep_.digest.completed = rep_.completed;
    rep_.digest.rtt_p50 = rep_.rtt.P50();
    rep_.digest.rtt_p99 = rep_.rtt.P99();
  }

 private:
  Repeat& rep_;
  Internet& net_;
  std::vector<uint8_t> ran_;
};

void TraceIssue(Kernel& k, uint64_t id, SimTime at, const Message& request) {
  if (TraceSink* ts = k.trace_sink()) {
    ts->RecordEvent(k, TraceOp::kIssue, "perfbench", at, id, &request, nullptr, 0);
  }
}

void TraceDone(Kernel& k, uint64_t id, const Result<Message>& r) {
  if (TraceSink* ts = k.trace_sink()) {
    ts->RecordEvent(k, TraceOp::kDone, "perfbench", k.now(), id, r.ok() ? &*r : nullptr,
                    nullptr, 0, r.ok() ? StatusCode::kOk : r.status().code());
  }
}

using SendFn = std::function<void(Message, RpcDone)>;

// One call in flight: the next call is issued from inside the previous
// call's completion task. `make_args(i)` builds call i's request.
void RunClosedLoop(Internet& net, Kernel& k, uint64_t calls,
                   const std::function<Message(uint64_t)>& make_args, const SendFn& send,
                   Repeat& rep, SpanLog* spans, uint64_t id_base = 0) {
  CallBook book(rep, net, calls);
  uint64_t issued = 0;
  std::function<void()> next = [&] {
    const uint64_t id = id_base + ++issued;
    const size_t slot = book.Issue();
    const SimTime at = k.now();
    Message args = make_args(id);
    TraceIssue(k, id, at, args);
    const int64_t h0 = NowNs();
    ScopedSpan issue_span(spans, "issue", id);
    send(std::move(args), [&, id, slot, at, h0](Result<Message> r) {
      const int64_t h1 = NowNs();
      ScopedSpan done_span(spans, "completion", id);
      TraceDone(k, id, r);
      book.Complete(slot, at, k.now(), r.ok(), h0, h1);
      if (issued < calls) {
        next();
      }
    });
  };
  k.ScheduleTask(0, [&] { next(); });
  net.RunAll();
  book.Finish();
}

// --- topology phases --------------------------------------------------------------

// Internet::TwoHosts, split into its topology and ARP steps so each is timed.
std::unique_ptr<Internet> TwoHostsTimed(Repeat& rep, SpanLog* spans) {
  std::unique_ptr<Internet> net;
  {
    ScopedSpan s(spans, "setup.topology");
    const int64_t t0 = NowNs();
    net = std::make_unique<Internet>(HostEnv::kXKernel);
    const int seg = net->AddSegment();
    net->AddHost("client", seg, IpAddr(10, 0, 1, 1));
    net->AddHost("server", seg, IpAddr(10, 0, 1, 2));
    rep.topology_s = static_cast<double>(NowNs() - t0) / 1e9;
  }
  {
    ScopedSpan s(spans, "setup.arp");
    const int64_t t0 = NowNs();
    net->WarmArp();
    rep.arp_s = static_cast<double>(NowNs() - t0) / 1e9;
  }
  return net;
}

void AddStackCounts(const RpcStack& st, LayerCounts& c) {
  if (st.fragment != nullptr) {
    c.fragments += st.fragment->stats().fragments_sent;
  }
  if (st.channel != nullptr) {
    c.retransmissions += st.channel->stats().retransmissions;
  }
}

void AddNetCounts(Internet& net, LayerCounts& c) {
  for (size_t s = 0; s < net.num_segments(); ++s) {
    const EthernetSegment& seg = net.segment(static_cast<int>(s));
    c.frames += seg.frames_sent();
    c.fault_drops += seg.frames_dropped();
  }
}

// --- workload: pair-null / pair-16k -------------------------------------------------

struct PairSpec {
  size_t bytes = 0;
  uint64_t calls = 0;
  uint16_t command = 1;
  std::vector<uint8_t> payload;  // seeded request bytes (bytes long)
};

Repeat RunPair(const PairSpec& spec, SpanLog* spans, bool setup_only = false) {
  Repeat rep;
  std::unique_ptr<Internet> net = TwoHostsTimed(rep, spans);
  HostStack& ch = net->host("client");
  HostStack& sh = net->host("server");
  RpcStack cstack;
  RpcStack sstack;
  RpcClient* client = nullptr;
  const IpAddr server_ip = sh.kernel->ip_addr();
  const Message request =
      spec.bytes == 0 ? Message() : Message::FromBytes(std::span<const uint8_t>(spec.payload));
  auto make_args = [&request](uint64_t) { return request; };
  SendFn send = [&](Message args, RpcDone done) {
    client->Call(server_ip, spec.command, std::move(args), std::move(done));
  };
  {
    ScopedSpan s(spans, "setup.stacks");
    const int64_t t0 = NowNs();
    cstack = BuildLRpc(ch, Delivery::kVip);
    sstack = BuildLRpc(sh, Delivery::kVip);
    ch.kernel->RunTask(net->events().now(), [&] {
      client = &ch.kernel->Emplace<RpcClient>(*ch.kernel, cstack.top);
    });
    sh.kernel->RunTask(net->events().now(), [&] {
      auto& server = sh.kernel->Emplace<RpcServer>(*sh.kernel, sstack.top);
      // Null reply regardless of request size (the paper's throughput test).
      (void)server.Export(RpcServer::kAny, [](uint16_t, Message&) { return Message(); });
    });
    // One unmeasured call opens every session on both hosts, so the run
    // phase is the steady state the paper measures.
    Repeat warm;
    RunClosedLoop(*net, *ch.kernel, 1, make_args, send, warm, nullptr, /*id_base=*/1ULL << 40);
    rep.warm_calls = 1;
    rep.first_rtts = warm.first_rtts;
    rep.stacks_s = static_cast<double>(NowNs() - t0) / 1e9;
  }
  if (setup_only) {
    return rep;
  }
  const uint64_t events0 = net->events_fired();
  const uint64_t frames0 = [&] {
    LayerCounts c;
    AddNetCounts(*net, c);
    return c.frames;
  }();
  const uint64_t frags0 = cstack.fragment->stats().fragments_sent +
                          sstack.fragment->stats().fragments_sent;
  {
    ScopedSpan s(spans, "run");
    const int64_t t0 = NowNs();
    rep.window_calls = std::max<uint64_t>(1, spec.calls / kWindowsPerRepeat);
    RunClosedLoop(*net, *ch.kernel, spec.calls, make_args, send, rep, spans);
    rep.run_s = static_cast<double>(NowNs() - t0) / 1e9;
  }
  rep.digest.events = net->events_fired() - events0;
  Histogram first64;
  for (SimTime t : rep.first_rtts) {
    first64.Record(t);
  }
  rep.first64_p50 = first64.P50();
  AddNetCounts(*net, rep.counts);
  rep.counts.frames -= frames0;
  AddStackCounts(cstack, rep.counts);
  AddStackCounts(sstack, rep.counts);
  rep.counts.fragments -= frags0;
  {
    ScopedSpan s(spans, "drain");
    const int64_t t0 = NowNs();
    net.reset();
    rep.drain_s = static_cast<double>(NowNs() - t0) / 1e9;
  }
  return rep;
}

// --- workload: datacenter -----------------------------------------------------------

constexpr uint16_t kEchoCommand = 1;
const IpAddr kServiceVip(10, 99, 0, 1);

struct DatacenterSpec {
  int client_segments = 2;
  int clients_per_segment = 2;
  int replicas = 4;
  double rate_cps = 120;        // per client, Poisson in simulated time
  SimTime horizon = Sec(400);   // arrivals in [0, horizon)
  double loss = 0.005;          // uniform frame loss on every segment
  size_t payload_bytes = 64;    // after the oracle's 8-byte id
  uint64_t seed = 1;
};

// An open-loop Poisson source on one client: arrivals never wait for
// completions. Mirrors OpenLoopGen, with host-time stamps at issue and
// completion (OpenLoopGen has no hook for them).
class PoissonSource {
 public:
  PoissonSource(Kernel& k, ClusterClient& client, AmoOracle& oracle, CallBook& book,
                const DatacenterSpec& spec, uint64_t seed, uint64_t id_base, SpanLog* spans)
      : k_(k), client_(client), oracle_(oracle), book_(book), spec_(spec), rng_(seed),
        id_base_(id_base), spans_(spans) {}

  void Start() {
    const SimTime first = Gap();
    if (first < spec_.horizon) {
      k_.ScheduleTask(first, [this, first] { IssueAt(first); });
    }
  }

 private:
  SimTime Gap() {
    const double u = rng_.NextDouble();
    const double gap_ns = -std::log1p(-u) * 1e9 / spec_.rate_cps;
    return std::max<SimTime>(1, static_cast<SimTime>(std::llround(gap_ns)));
  }

  void IssueAt(SimTime at) {
    const SimTime next = at + Gap();
    if (next < spec_.horizon) {
      k_.ScheduleTask(next - at, [this, next] { IssueAt(next); });
    }
    const uint64_t id = id_base_ | ++seq_;
    const size_t slot = book_.Issue();
    oracle_.RecordIssued(id, at);
    Message request = AmoOracle::MakeRequest(id, spec_.payload_bytes);
    TraceIssue(k_, id, at, request);
    const int64_t h0 = NowNs();
    ScopedSpan issue_span(spans_, "issue", id);
    client_.Call(kServiceVip, kEchoCommand, id, std::move(request),
                 [this, id, slot, at, h0](Result<Message> r) {
                   const int64_t h1 = NowNs();
                   ScopedSpan done_span(spans_, "completion", id);
                   TraceDone(k_, id, r);
                   oracle_.RecordOutcome(id, r, k_.now());
                   book_.Complete(slot, at, k_.now(), r.ok(), h0, h1);
                 });
  }

  Kernel& k_;
  ClusterClient& client_;
  AmoOracle& oracle_;
  CallBook& book_;
  const DatacenterSpec& spec_;
  Rng rng_;
  uint64_t id_base_;
  uint64_t seq_ = 0;
  SpanLog* spans_;
};

// k client segments x m clients fan in through one core router to a pool of
// replicas behind VPOOL round-robin (the topology of MeasureDatacenter).
Repeat RunDatacenter(const DatacenterSpec& spec, SpanLog* spans, bool setup_only = false) {
  Repeat rep;
  std::unique_ptr<Internet> net;
  std::vector<HostStack*> clients;
  std::vector<std::string> replica_names;
  std::vector<IpAddr> replica_ips;
  {
    ScopedSpan s(spans, "setup.topology");
    const int64_t t0 = NowNs();
    net = std::make_unique<Internet>(HostEnv::kXKernel, spec.seed);
    WireModel wire;
    wire.propagation = Usec(200);
    const int server_seg = net->AddSegment(wire);
    std::vector<int> client_segs;
    std::vector<std::pair<int, IpAddr>> attachments;
    attachments.emplace_back(server_seg, IpAddr(10, 0, 0, 254));
    for (int i = 0; i < spec.client_segments; ++i) {
      client_segs.push_back(net->AddSegment(wire));
      attachments.emplace_back(client_segs.back(), IpAddr(10, 0, static_cast<uint8_t>(i + 1), 254));
    }
    net->AddRouter("core", attachments);
    for (int r = 0; r < spec.replicas; ++r) {
      const std::string name = "s" + std::to_string(r);
      replica_ips.emplace_back(10, 0, 0, static_cast<uint8_t>(r + 1));
      net->AddHost(name, server_seg, replica_ips.back());
      net->SetDefaultGateway(name, IpAddr(10, 0, 0, 254));
      replica_names.push_back(name);
    }
    for (int i = 0; i < spec.client_segments; ++i) {
      for (int j = 0; j < spec.clients_per_segment; ++j) {
        const std::string name = "c" + std::to_string(i) + "_" + std::to_string(j);
        clients.push_back(&net->AddHost(
            name, client_segs[static_cast<size_t>(i)],
            IpAddr(10, 0, static_cast<uint8_t>(i + 1), static_cast<uint8_t>(j + 1))));
        net->SetDefaultGateway(name, IpAddr(10, 0, static_cast<uint8_t>(i + 1), 254));
      }
    }
    rep.topology_s = static_cast<double>(NowNs() - t0) / 1e9;
  }
  {
    ScopedSpan s(spans, "setup.arp");
    const int64_t t0 = NowNs();
    net->WarmArp();
    rep.arp_s = static_cast<double>(NowNs() - t0) / 1e9;
  }
  for (size_t s = 0; s < net->num_segments(); ++s) {
    net->segment(static_cast<int>(s)).set_drop_rate(spec.loss);
  }

  AmoOracle oracle;
  const uint64_t expected = static_cast<uint64_t>(
      spec.rate_cps * static_cast<double>(spec.horizon) / 1e9 * static_cast<double>(clients.size()));
  rep.window_calls = std::max<uint64_t>(1, expected / kWindowsPerRepeat);
  CallBook book(rep, *net, expected + expected / 20);
  std::vector<RpcStack> stacks;
  std::vector<VpoolProtocol*> vpools;
  std::vector<std::unique_ptr<PoissonSource>> sources;
  {
    ScopedSpan s(spans, "setup.stacks");
    const int64_t t0 = NowNs();
    for (const std::string& name : replica_names) {
      HostStack& h = net->host(name);
      stacks.push_back(BuildLRpc(h, Delivery::kVip));
      const RpcStack& st = stacks.back();
      h.kernel->RunTask(net->events().now(), [&] {
        auto& server = h.kernel->Emplace<RpcServer>(*h.kernel, st.top);
        (void)server.Export(kEchoCommand, oracle.WrapEcho(h.kernel));
      });
    }
    uint64_t idx = 0;
    for (HostStack* h : clients) {
      stacks.push_back(BuildLRpc(*h, Delivery::kVip));
      const RpcStack& st = stacks.back();
      Kernel* k = h->kernel;
      ClusterClient* cc = nullptr;
      k->RunTask(net->events().now(), [&] {
        VpoolProtocol& vp = k->Emplace<VpoolProtocol>(*k, st.top);
        vp.BindService(kServiceVip, replica_ips, VpoolPolicy::kRoundRobin, {});
        vpools.push_back(&vp);
        cc = &k->Emplace<ClusterClient>(*k, &vp);
      });
      sources.push_back(std::make_unique<PoissonSource>(
          *k, *cc, oracle, book, spec, spec.seed * 1000003 + idx, (idx + 1) << 32, spans));
      sources.back()->Start();
      ++idx;
    }
    rep.stacks_s = static_cast<double>(NowNs() - t0) / 1e9;
  }
  if (setup_only) {
    return rep;
  }
  {
    ScopedSpan s(spans, "run");
    const int64_t t0 = NowNs();
    net->RunAll();
    rep.run_s = static_cast<double>(NowNs() - t0) / 1e9;
  }
  book.Finish();
  rep.digest.events = net->events_fired();
  AddNetCounts(*net, rep.counts);
  for (const RpcStack& st : stacks) {
    AddStackCounts(st, rep.counts);
  }
  for (const VpoolProtocol* vp : vpools) {
    rep.counts.down_marks += vp->down_marks();
  }
  rep.counts.forwards = net->host("core").ip->stats().forwards;
  const AmoOracle::Report report = oracle.Finish();
  rep.oracle_clean = report.clean() && report.issued == rep.issued;
  if (!rep.oracle_clean) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "issued=%llu double=%llu mismatched=%llu unknown=%llu silent=%llu",
                  static_cast<unsigned long long>(report.issued),
                  static_cast<unsigned long long>(report.double_executions),
                  static_cast<unsigned long long>(report.mismatched_replies),
                  static_cast<unsigned long long>(report.unknown_replies),
                  static_cast<unsigned long long>(report.silent));
    rep.oracle_detail = buf;
  }
  {
    ScopedSpan s(spans, "drain");
    const int64_t t0 = NowNs();
    sources.clear();
    net.reset();
    rep.drain_s = static_cast<double>(NowNs() - t0) / 1e9;
  }
  return rep;
}

// --- workload: sessions -------------------------------------------------------------

struct SessionsSpec {
  size_t sessions = 300000;  // live sessions per side
  uint64_t stride = 1;       // call i touches session (offset + i * stride) % sessions
  uint64_t offset = 0;
  SimTime idle_timeout = Msec(5);
};

// Port plan of bench/session_scale.h: every (local, server) port pair -- and
// so every demux key -- is distinct up to ~10^6 sessions per side.
constexpr size_t kLocalPorts = 60000;
uint16_t LocalPort(size_t i) { return static_cast<uint16_t>(1 + i % kLocalPorts); }
uint16_t ServerPort(size_t i) { return static_cast<uint16_t>(20000 + i / kLocalPorts); }

// UDP echo over TwoHosts with `spec.sessions` live sessions per side, opened
// in batched configuration tasks; strided echo calls touch every session;
// then an idle-eviction sweep drains both sides to zero.
Repeat RunSessions(const SessionsSpec& spec, SpanLog* spans, bool setup_only = false) {
  Repeat rep;
  std::unique_ptr<Internet> net = TwoHostsTimed(rep, spans);
  HostStack& ch = net->host("client");
  HostStack& sh = net->host("server");
  UdpProtocol* cudp = nullptr;
  UdpProtocol* sudp = nullptr;
  EchoAnchor* client = nullptr;
  EchoAnchor* server = nullptr;
  std::vector<SessionRef> csess(spec.sessions);
  std::vector<SessionRef> ssess(spec.sessions);
  {
    ScopedSpan s(spans, "setup.stacks");
    const int64_t t0 = NowNs();
    cudp = BuildUdp(ch);
    sudp = BuildUdp(sh);
    // Checksums walk the payload per datagram; this workload measures
    // session residency, not byte costs.
    cudp->set_checksum_enabled(false);
    sudp->set_checksum_enabled(false);
    ch.kernel->RunTask(net->events().now(), [&] {
      client = &ch.kernel->Emplace<EchoAnchor>(*ch.kernel, /*server_role=*/false);
    });
    sh.kernel->RunTask(net->events().now(), [&] {
      server = &sh.kernel->Emplace<EchoAnchor>(*sh.kernel, /*server_role=*/true);
    });
    ScopedSpan p(spans, "setup.population");
    const int64_t p0 = NowNs();
    constexpr size_t kBatch = 8192;
    for (size_t base = 0; base < spec.sessions; base += kBatch) {
      const size_t end = std::min(base + kBatch, spec.sessions);
      ch.kernel->RunTask(net->events().now(), [&] {
        for (size_t i = base; i < end; ++i) {
          ParticipantSet parts;
          parts.local.port = LocalPort(i);
          parts.peer.host = sh.kernel->ip_addr();
          parts.peer.port = ServerPort(i);
          Result<SessionRef> r = cudp->Open(*client, parts);
          if (r.ok()) {
            csess[i] = *r;
          }
        }
      });
      sh.kernel->RunTask(net->events().now(), [&] {
        for (size_t i = base; i < end; ++i) {
          ParticipantSet parts;
          parts.local.port = ServerPort(i);
          parts.peer.host = ch.kernel->ip_addr();
          parts.peer.port = LocalPort(i);
          Result<SessionRef> r = sudp->Open(*server, parts);
          if (r.ok()) {
            ssess[i] = *r;
          }
        }
      });
    }
    rep.population_s = static_cast<double>(NowNs() - p0) / 1e9;
    rep.stacks_s = static_cast<double>(NowNs() - t0) / 1e9;
  }
  if (setup_only) {
    return rep;
  }
  rep.counts.sessions_opened = cudp->live_sessions() + sudp->live_sessions();
  rep.counts.demux_probe_max = cudp->active_map().MaxProbeLength();
  rep.counts.session_slots = cudp->session_slots() + sudp->session_slots();

  const uint64_t events0 = net->events_fired();
  auto make_args = [](uint64_t) { return Message(64); };
  uint64_t cursor = spec.offset;
  SendFn send = [&](Message args, RpcDone done) {
    const SessionRef& sess = csess[cursor % spec.sessions];
    cursor += spec.stride;
    client->Send(sess, std::move(args), std::move(done));
  };
  {
    ScopedSpan s(spans, "run");
    const int64_t t0 = NowNs();
    rep.window_calls = std::max<uint64_t>(1, spec.sessions / kWindowsPerRepeat);
    RunClosedLoop(*net, *ch.kernel, spec.sessions, make_args, send, rep, spans);
    rep.run_s = static_cast<double>(NowNs() - t0) / 1e9;
  }
  rep.digest.events = net->events_fired() - events0;
  AddNetCounts(*net, rep.counts);
  {
    ScopedSpan s(spans, "drain");
    const int64_t t0 = NowNs();
    // Drop our references, arm the idle sweep on both sides, run to
    // quiescence: every session must be evicted.
    csess.clear();
    ssess.clear();
    ControlArgs args;
    args.u64 = static_cast<uint64_t>(spec.idle_timeout);
    ch.kernel->RunTask(net->events().now(),
                       [&] { (void)cudp->Control(ControlOp::kSetIdleTimeout, args); });
    sh.kernel->RunTask(net->events().now(),
                       [&] { (void)sudp->Control(ControlOp::kSetIdleTimeout, args); });
    net->RunAll();
    rep.live_after_drain = cudp->live_sessions() + sudp->live_sessions();
    rep.counts.sessions_evicted = cudp->idle_evictions() + sudp->idle_evictions();
    net.reset();
    rep.drain_s = static_cast<double>(NowNs() - t0) / 1e9;
  }
  return rep;
}

// --- workload table -----------------------------------------------------------------

struct Workload {
  std::string name;
  std::function<Repeat(SpanLog*)> run;        // the measured batch
  std::function<Repeat(SpanLog*)> run_slice;  // the explain slice (same shape, smaller)
  std::function<Repeat()> setup;              // set-up alone, then tear down
  std::string inputs;                         // what the seed generated (manifest)
};

std::vector<uint8_t> SeededBytes(uint64_t seed, size_t n) {
  Rng rng(seed);
  std::vector<uint8_t> out(n);
  for (uint8_t& b : out) {
    b = static_cast<uint8_t>(rng.NextU64());
  }
  return out;
}

uint64_t Gcd(uint64_t a, uint64_t b) {
  while (b != 0) {
    const uint64_t t = a % b;
    a = b;
    b = t;
  }
  return a;
}

bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 17);
  out->name = name;
  if (name == "pair-null" || name == "pair-16k") {
    const bool big = name == "pair-16k";
    auto spec = std::make_shared<PairSpec>();
    spec->bytes = big ? 16 * 1024 : 0;
    spec->calls = big ? 80000 : 300000;
    spec->command = static_cast<uint16_t>(1 + rng.NextBelow(0xFFFE));
    spec->payload = SeededBytes(rng.NextU64(), spec->bytes);
    auto slice = std::make_shared<PairSpec>(*spec);
    slice->calls = big ? 40 : 400;
    out->run = [spec](SpanLog* s) { return RunPair(*spec, s); };
    out->run_slice = [slice](SpanLog* s) { return RunPair(*slice, s); };
    out->setup = [spec] { return RunPair(*spec, nullptr, /*setup_only=*/true); };
    out->inputs = "command " + std::to_string(spec->command) + ", payload bytes from seed " +
                  std::to_string(seed);
    return true;
  }
  if (name == "datacenter") {
    auto spec = std::make_shared<DatacenterSpec>();
    spec->seed = 1 + rng.NextBelow(1u << 30);
    auto slice = std::make_shared<DatacenterSpec>(*spec);
    slice->horizon = Msec(1250);
    out->run = [spec](SpanLog* s) { return RunDatacenter(*spec, s); };
    out->run_slice = [slice](SpanLog* s) { return RunDatacenter(*slice, s); };
    out->setup = [spec] { return RunDatacenter(*spec, nullptr, /*setup_only=*/true); };
    out->inputs = "simulation and arrival seed " + std::to_string(spec->seed);
    return true;
  }
  if (name == "sessions") {
    auto spec = std::make_shared<SessionsSpec>();
    spec->offset = rng.NextBelow(spec->sessions);
    do {
      spec->stride = 1 + rng.NextBelow(spec->sessions - 1);
    } while (Gcd(spec->stride, spec->sessions) != 1);
    auto slice = std::make_shared<SessionsSpec>(*spec);
    slice->sessions = 800;
    slice->offset %= slice->sessions;
    do {
      slice->stride = 1 + rng.NextBelow(slice->sessions - 1);
    } while (Gcd(slice->stride, slice->sessions) != 1);
    out->run = [spec](SpanLog* s) { return RunSessions(*spec, s); };
    out->run_slice = [slice](SpanLog* s) { return RunSessions(*slice, s); };
    out->setup = [spec] { return RunSessions(*spec, nullptr, /*setup_only=*/true); };
    out->inputs = "call order offset " + std::to_string(spec->offset) + " stride " +
                  std::to_string(spec->stride);
    return true;
  }
  return false;
}

// --- explain: trace, serialize, parse and stitch one slice --------------------------

constexpr size_t kExplainRounds = 40;

struct Explain {
  double untraced_run_s = 0;
  double record_s = 0;     // traced run phase minus the untraced one
  double traced_run_s = 0;
  double serialize_s = 0;
  double parse_s = 0;
  double stitch_s = 0;
  size_t bytes = 0;
  uint64_t calls = 0;
  uint64_t flow_calls = 0;
  uint64_t flow_completed = 0;
  bool digest_match = false;
  std::string digest_untraced;
  std::string digest_traced;

  double total_s() const { return traced_run_s + serialize_s + parse_s + stitch_s; }
};

// Each phase 5% in from its fast end over `rounds` (they explain identical
// slices): rounds are short, like the call windows.
Explain FastEndOf(const std::vector<Explain>& rounds) {
  Explain out = rounds.front();
  auto fast = [&](double Explain::*field) {
    std::vector<double> v;
    for (const Explain& e : rounds) {
      v.push_back(e.*field);
    }
    return FastEnd(std::move(v), /*higher_better=*/false);
  };
  out.untraced_run_s = fast(&Explain::untraced_run_s);
  out.traced_run_s = fast(&Explain::traced_run_s);
  out.serialize_s = fast(&Explain::serialize_s);
  out.parse_s = fast(&Explain::parse_s);
  out.stitch_s = fast(&Explain::stitch_s);
  out.record_s = out.traced_run_s - out.untraced_run_s;
  return out;
}

Explain RunExplain(const Workload& w, SpanLog* spans) {
  Explain ex;
  ScopedSpan all(spans, "explain");
  const Repeat plain = w.run_slice(nullptr);
  ex.untraced_run_s = plain.run_s;
  TraceSink sink;
  Repeat traced;
  {
    ScopedSpan s(spans, "explain.record");
    TraceSink::set_thread_default(&sink);
    traced = w.run_slice(nullptr);
    TraceSink::set_thread_default(nullptr);
  }
  ex.traced_run_s = traced.run_s;
  ex.calls = traced.issued + traced.warm_calls;
  ex.digest_untraced = plain.digest.ToString();
  ex.digest_traced = traced.digest.ToString();
  ex.digest_match = plain.digest == traced.digest;

  std::string text;
  {
    ScopedSpan s(spans, "explain.serialize");
    const int64_t t0 = NowNs();
    text = sink.ToJsonl();
    ex.serialize_s = static_cast<double>(NowNs() - t0) / 1e9;
  }
  sink.Clear();
  ex.bytes = text.size();
  tracetool::TraceFile tf;
  {
    ScopedSpan s(spans, "explain.parse");
    const int64_t t0 = NowNs();
    tf = tracetool::Parse(text);
    ex.parse_s = static_cast<double>(NowNs() - t0) / 1e9;
  }
  std::string().swap(text);
  {
    ScopedSpan s(spans, "explain.stitch");
    const int64_t t0 = NowNs();
    const causal::FlowAnalysis fa = causal::Stitch(tf);
    ex.stitch_s = static_cast<double>(NowNs() - t0) / 1e9;
    ex.flow_calls = fa.calls.size();
    ex.flow_completed = fa.completed;
  }
  return ex;
}

// --- depth sweep: Table III in host ns ----------------------------------------------

// One persistent two-host rig at one stack depth: 0 = VIP, 1 = FRAGMENT-VIP,
// 2 = CHANNEL-FRAGMENT-VIP (EchoAnchor), 3 = SELECT-CHANNEL-FRAGMENT-VIP
// (RpcClient; EchoAnchor cannot drive SELECT). Replies are null.
struct DepthRig {
  std::unique_ptr<Internet> net;
  Kernel* ck = nullptr;
  RpcStack cstack, sstack;
  EchoAnchor* echo = nullptr;
  SessionRef sess;
  RpcClient* client = nullptr;
  IpAddr server_ip;
  SendFn send;
};

std::unique_ptr<DepthRig> MakeDepthRig(int depth, size_t bytes) {
  auto rig = std::make_unique<DepthRig>();
  rig->net = Internet::TwoHosts();
  HostStack& ch = rig->net->host("client");
  HostStack& sh = rig->net->host("server");
  rig->ck = ch.kernel;
  rig->server_ip = sh.kernel->ip_addr();
  DepthRig* r = rig.get();
  const SimTime now = rig->net->events().now();
  if (depth < 3) {
    rig->cstack = BuildPartial(ch, depth);
    rig->sstack = BuildPartial(sh, depth);
    ch.kernel->RunTask(now, [&] {
      r->echo = &ch.kernel->Emplace<EchoAnchor>(*ch.kernel, /*server_role=*/false);
      // Bare VIP carries a 16 KB message only over IP (which fragments); the
      // anchor's send size is what VIP asks when choosing its paths.
      if (bytes > 1400) {
        r->echo->set_max_send_size(64 * 1024);
      }
    });
    sh.kernel->RunTask(now, [&] {
      auto& server = sh.kernel->Emplace<EchoAnchor>(*sh.kernel, /*server_role=*/true);
      server.set_echo_limit(0);
      (void)EnableEcho(r->sstack, server);
    });
    ch.kernel->RunTask(now, [&] {
      Result<SessionRef> s = OpenEchoSession(r->cstack, *r->echo, r->server_ip);
      if (s.ok()) {
        r->sess = *s;
      }
    });
    rig->send = [r](Message args, RpcDone done) {
      r->echo->Send(r->sess, std::move(args), std::move(done));
    };
  } else {
    rig->cstack = BuildLRpc(ch, Delivery::kVip);
    rig->sstack = BuildLRpc(sh, Delivery::kVip);
    ch.kernel->RunTask(now, [&] {
      r->client = &ch.kernel->Emplace<RpcClient>(*ch.kernel, r->cstack.top);
    });
    sh.kernel->RunTask(now, [&] {
      auto& server = sh.kernel->Emplace<RpcServer>(*sh.kernel, r->sstack.top);
      (void)server.Export(RpcServer::kAny, [](uint16_t, Message&) { return Message(); });
    });
    rig->send = [r](Message args, RpcDone done) {
      r->client->Call(r->server_ip, 1, std::move(args), std::move(done));
    };
  }
  return rig;
}

struct SweepRow {
  double host_ns = 0;  // median over windows, per call
  double sim_ns = 0;   // simulated mean round trip
  uint64_t failed = 0;
};

struct Sweep {
  SweepRow depth[2][4];  // [size: 0 B, 16 KB][depth]
  // Per-layer host ns (median over windows of the per-window difference).
  double layer_ns[2][4] = {};
  bool ok = true;
};

Sweep RunSweep(SpanLog* spans) {
  ScopedSpan all(spans, "sweep");
  constexpr int kWindows = 9;
  const size_t sizes[2] = {0, 16 * 1024};
  const uint64_t calls[2] = {4000, 400};
  Sweep sw;
  std::unique_ptr<DepthRig> rigs[2][4];
  for (int s = 0; s < 2; ++s) {
    for (int d = 0; d < 4; ++d) {
      rigs[s][d] = MakeDepthRig(d, sizes[s]);
      Repeat warm;
      RunClosedLoop(*rigs[s][d]->net, *rigs[s][d]->ck, 4, [&](uint64_t) { return Message(sizes[s]); },
                    rigs[s][d]->send, warm, nullptr);
      if (warm.completed != 4) {
        sw.ok = false;
      }
    }
  }
  static const char* const kSpanNames[2][4] = {
      {"sweep.0B.VIP", "sweep.0B.FRAGMENT-VIP", "sweep.0B.CHANNEL-FRAGMENT-VIP", "sweep.0B.L_RPC"},
      {"sweep.16K.VIP", "sweep.16K.FRAGMENT-VIP", "sweep.16K.CHANNEL-FRAGMENT-VIP",
       "sweep.16K.L_RPC"}};
  std::vector<double> per_call[2][4];
  std::vector<double> delta[2][4];
  Histogram sim[2][4];
  // Interleaved window by window, so host drift lands on every depth alike
  // and cancels in the per-window differences.
  for (int w = 0; w < kWindows; ++w) {
    for (int s = 0; s < 2; ++s) {
      double ns[4];
      for (int d = 0; d < 4; ++d) {
        DepthRig& rig = *rigs[s][d];
        Repeat rep;
        ScopedSpan sp(spans, kSpanNames[s][d]);
        const int64_t t0 = NowNs();
        RunClosedLoop(*rig.net, *rig.ck, calls[s], [&](uint64_t) { return Message(sizes[s]); },
                      rig.send, rep, spans);
        ns[d] = static_cast<double>(NowNs() - t0) / static_cast<double>(calls[s]);
        per_call[s][d].push_back(ns[d]);
        sim[s][d].Merge(rep.rtt);
        sw.depth[s][d].failed += rep.failed + rep.never_ran;
      }
      delta[s][0].push_back(ns[0]);
      for (int d = 1; d < 4; ++d) {
        delta[s][d].push_back(ns[d] - ns[d - 1]);
      }
    }
  }
  for (int s = 0; s < 2; ++s) {
    for (int d = 0; d < 4; ++d) {
      sw.depth[s][d].host_ns = Median(per_call[s][d]);
      sw.depth[s][d].sim_ns = sim[s][d].Mean();
      sw.layer_ns[s][d] = Median(delta[s][d]);
      if (sw.depth[s][d].failed != 0) {
        sw.ok = false;
      }
    }
  }
  return sw;
}

// --- core probe: session open / evict on a UDP population ---------------------------

// The sessions workload measures its own population; every other workload
// runs this 2 x 10^4-session probe so the core.* numbers exist everywhere.
Repeat RunCoreProbe(uint64_t seed, SpanLog* spans) {
  SessionsSpec spec;
  spec.sessions = 20000;
  spec.offset = seed % spec.sessions;
  spec.stride = 7;
  ScopedSpan s(spans, "core_probe");
  return RunSessions(spec, nullptr);
}

// --- the baseline RTT the pair-null workload must reproduce -------------------------

// Reads table2_layering / L_RPC-VIP percentiles.p50_ms from bench/baseline.json
// (the committed bench-suite baseline). Returns a negative value if absent.
double BaselineLrpcP50Ms(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return -1;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  const size_t job = text.find("\"name\": \"L_RPC-VIP\"");
  size_t at = std::string::npos;
  for (size_t p = text.find("\"group\": \"table2_layering\""); p != std::string::npos;
       p = text.find("\"group\": \"table2_layering\"", p + 1)) {
    const size_t n = text.find("\"name\"", p);
    if (n != std::string::npos && n == job) {
      at = p;
      break;
    }
  }
  if (at == std::string::npos) {
    return -1;
  }
  const size_t pct = text.find("\"percentiles\"", at);
  const size_t key = pct == std::string::npos ? pct : text.find("\"p50_ms\":", pct);
  if (key == std::string::npos) {
    return -1;
  }
  return std::strtod(text.c_str() + key + 9, nullptr);
}

// --- host-time estimators ------------------------------------------------------------
//
// Host speed on a shared machine drifts with neighbour load: the same null
// call measured 2.0-4.8 us in consecutive 0.3 s windows of one process, with
// thread CPU time tracking wall time and no steal, in phases of tenths of a
// second to seconds. A median over a run moves with the share of the run that
// was disturbed (medians of 10 s runs spread 25-46% run to run). So the program
// pins itself to one CPU (no mid-run migrations), each repeat's run
// phase is cut into windows of equal call counts (~1-2 ms each), every
// timing is taken per window, and the value reported is 5% in from the fast
// end of all windows of all repeats: the host's undisturbed speed, as
// bench/session_scale.h reports its best pass. Windows are short, so most are
// undisturbed and the fast end is the common case, not a lucky outlier. What
// remains is the clock itself: a dependent multiply chain pinned to one CPU
// drifts 1.35-1.57 ns per step (10th-90th percentile over 20 s), and every
// timing here moves with it from run to run.
struct HostTimes {
  double calls_per_s = 0;
  double p50_us = 0;
  double p99_us = 0;  // over every call of every repeat (not windowed)
  size_t windows = 0;
  uint64_t samples = 0;
};

HostTimes WindowTimes(const std::vector<Repeat>& reps) {
  std::vector<double> tput;
  std::vector<double> p50;
  std::vector<int64_t> all;
  for (const Repeat& r : reps) {
    const uint64_t k = r.window_calls;
    for (size_t i = 0; i + 1 < r.marks.size(); ++i) {
      tput.push_back(static_cast<double>(k) * 1e9 /
                     static_cast<double>(r.marks[i + 1] - r.marks[i]));
      std::vector<int64_t> lat(r.lat_ns.begin() + static_cast<std::ptrdiff_t>(i * k),
                               r.lat_ns.begin() + static_cast<std::ptrdiff_t>((i + 1) * k));
      p50.push_back(Quantile(lat, 0.50) / 1e3);
    }
    all.insert(all.end(), r.lat_ns.begin(), r.lat_ns.end());
  }
  HostTimes out;
  out.windows = tput.size();
  out.samples = all.size();
  out.calls_per_s = FastEnd(tput, /*higher_better=*/true);
  out.p50_us = FastEnd(p50, /*higher_better=*/false);
  out.p99_us = Quantile(all, 0.99) / 1e3;
  return out;
}

// --- main ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string baseline = "bench/baseline.json";
  std::string rev = "unknown";
  std::string spans_path;
};

bool ParseOptions(int argc, char** argv, Options* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      o->workload = v;
    } else if (k == "--seed") {
      o->seed = std::strtoull(v.c_str(), &end, 10);
      if (end == v.c_str() || *end != '\0') {
        return false;
      }
    } else if (k == "--seconds") {
      o->seconds = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || !(o->seconds > 0)) {
        return false;
      }
    } else if (k == "--trace") {
      if (v != "0" && v != "1") {
        return false;
      }
      o->trace = v == "1";
    } else if (k == "--baseline") {
      o->baseline = v;
    } else if (k == "--rev") {
      o->rev = v;
    } else if (k == "--spans") {
      o->spans_path = v;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !o->workload.empty();
}

class Checks {
 public:
  void Expect(bool ok, const std::string& what) {
    if (!ok) {
      failures_.push_back(what);
      std::printf("CHECK FAILED: %s\n", what.c_str());
    }
  }
  bool ok() const { return failures_.empty(); }

 private:
  std::vector<std::string> failures_;
};

// Pins the process to the CPU it is running on, so the scheduler cannot
// migrate it (and cool its caches) mid-measurement. Returns the CPU, or -1.
int PinToCurrentCpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) {
    return -1;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0 ? cpu : -1;
}

int Main(int argc, char** argv) {
  Options opt;
  if (!ParseOptions(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: xk_perfbench --workload W --seed N --seconds S --trace 0|1 "
                 "[--baseline FILE] [--rev REV] [--spans FILE]\n");
    return 2;
  }
  Workload w;
  if (!MakeWorkload(opt.workload, opt.seed, &w)) {
    std::fprintf(stderr, "xk_perfbench: unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  double baseline_p50_ms = -1;
  if (opt.workload == "pair-null") {
    baseline_p50_ms = BaselineLrpcP50Ms(opt.baseline);
    if (baseline_p50_ms <= 0) {
      std::fprintf(stderr, "xk_perfbench: no table2_layering L_RPC-VIP p50 in %s\n",
                   opt.baseline.c_str());
      return 2;
    }
  }

  const int pinned_cpu = PinToCurrentCpu();
  Checks checks;
  std::unique_ptr<SpanLog> spans = opt.trace ? std::make_unique<SpanLog>() : nullptr;
  std::vector<Repeat> plain;   // untraced repeats (all of them with --trace 0)
  std::vector<Repeat> traced;  // --trace 1: repeats recorded with spans
  std::vector<size_t> traced_from;  // span index where each traced repeat began
  // One unmeasured repeat first: the allocator's free lists, page tables and
  // caches then hold what every measured repeat reuses. Peak memory is read
  // right after it, so it is the peak of one repeat whatever follows.
  (void)w.run(nullptr);
  const double peak_rss_mb = ProcStatusMb("VmHWM:");

  // The explain slice: traced, serialized, parsed and stitched, each round
  // checked. The first round runs now, the others are spread through the
  // run like the windows.
  std::vector<Explain> rounds;
  double explain_wall_s = 0;
  auto explain_round = [&] {
    const int64_t t0 = NowNs();
    rounds.push_back(RunExplain(w, spans.get()));
    explain_wall_s += static_cast<double>(NowNs() - t0) / 1e9;
    const Explain& e = rounds.back();
    checks.Expect(e.digest_match, "explain: traced slice digest " + e.digest_traced +
                                      " != untraced " + e.digest_untraced);
    checks.Expect(e.flow_calls == e.calls && e.flow_completed == e.calls,
                  "explain: stitched " + std::to_string(e.flow_calls) + " flows (" +
                      std::to_string(e.flow_completed) + " completed) for " +
                      std::to_string(e.calls) + " calls");
  };
  explain_round();

  const int64_t t_start = NowNs();
  const double budget_ns = opt.seconds * 1e9;
  // Set-up alone is repeated between the repeats, so set-up time is sampled
  // across the whole run: on the small topologies one set-up takes ~0.1 ms.
  std::vector<double> setups;
  auto sample_setups = [&] {
    const int64_t t0 = NowNs();
    for (int n = 0; n < 8 && NowNs() - t0 < 50'000'000; ++n) {
      setups.push_back(w.setup().setup_s());
    }
  };
  // At least three repeats of each kind, so every median has a middle.
  for (int i = 0;; ++i) {
    const bool done_time = static_cast<double>(NowNs() - t_start) >= budget_ns;
    const size_t have = opt.trace ? std::min(plain.size(), traced.size()) : plain.size();
    if (done_time && have >= 3 && rounds.size() >= kExplainRounds) {
      break;
    }
    if (opt.trace && i % 2 == 1) {
      if (!traced.empty()) {
        spans->DropCallSpans(traced_from.back());
      }
      traced_from.push_back(spans->size());
      traced.push_back(w.run(spans.get()));
    } else {
      plain.push_back(w.run(nullptr));
      setups.push_back(plain.back().setup_s());
      if (!opt.trace) {
        sample_setups();
      }
      // Explain rounds keep pace with the clock, so they too span the run.
      const double share = static_cast<double>(NowNs() - t_start) / budget_ns;
      while (rounds.size() < kExplainRounds &&
             static_cast<double>(rounds.size()) < share * static_cast<double>(kExplainRounds)) {
        explain_round();
      }
    }
  }
  const Explain ex = FastEndOf(rounds);
  for (const Explain& e : rounds) {
    std::printf("explain round: untraced run %.6f s, traced run %.6f s, serialize %.6f s, "
                "parse %.6f s, stitch %.6f s, %zu bytes, %llu calls\n",
                e.untraced_run_s, e.traced_run_s, e.serialize_s, e.parse_s, e.stitch_s, e.bytes,
                static_cast<unsigned long long>(e.calls));
  }
  const double measure_s = static_cast<double>(NowNs() - t_start) / 1e9;
  // Span aggregates over the last traced repeat (the one whose call spans
  // are kept), taken before anything else records spans.
  const auto agg = opt.trace ? spans->Aggregate(traced_from.back())
                             : std::map<std::string, SpanLog::Agg>();

  // Output checks on every repeat.
  const Digest& ref = plain.front().digest;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  auto check_repeat = [&](const Repeat& r, const char* kind, size_t i) {
    const std::string tag = std::string(kind) + " repeat " + std::to_string(i) + ": ";
    checks.Expect(r.completed + r.failed + r.never_ran == r.issued,
                  tag + "completed + failed + never-ran != issued");
    checks.Expect(r.never_ran == 0, tag + std::to_string(r.never_ran) + " callbacks never ran");
    checks.Expect(r.double_runs == 0,
                  tag + std::to_string(r.double_runs) + " callbacks ran more than once");
    checks.Expect(r.digest == ref, tag + "simulated digest " + r.digest.ToString() +
                                       " differs from " + ref.ToString());
    checks.Expect(r.oracle_clean, tag + "oracle not clean: " + r.oracle_detail);
    if (opt.workload == "sessions") {
      checks.Expect(r.live_after_drain == 0, tag + std::to_string(r.live_after_drain) +
                                                 " sessions live after the drain");
    }
    attempted += r.issued;
    failed += r.failed + r.never_ran;
  };
  for (size_t i = 0; i < plain.size(); ++i) {
    check_repeat(plain[i], "untraced", i);
    std::printf("repeat %zu: setup %.6f s, run %.6f s, drain %.6f s\n", i, plain[i].setup_s(),
                plain[i].run_s, plain[i].drain_s);
  }
  for (size_t i = 0; i < traced.size(); ++i) {
    check_repeat(traced[i], "traced", i);
  }
  if (baseline_p50_ms > 0) {
    char want[32];
    char got[32];
    std::snprintf(want, sizeof(want), "%.6f", baseline_p50_ms);
    std::snprintf(got, sizeof(got), "%.6f", static_cast<double>(plain.front().first64_p50) / 1e6);
    checks.Expect(std::string(want) == got,
                  std::string("pair-null simulated RTT p50 over the first 64 calls ") + got +
                      " ms != baseline table2_layering L_RPC-VIP p50 " + want + " ms");
  }

  const int nproc = static_cast<int>(std::thread::hardware_concurrency());
  std::printf("{\"manifest\": {\"rev\": \"%s\", \"build_type\": \"%s\", \"nproc\": %d, "
              "\"pinned_cpu\": %d, "
              "\"cpu_model\": \"%s\", \"workload\": \"%s\", \"seed\": %llu, "
              "\"inputs\": \"%s\", \"seconds\": %s, "
              "\"trace\": %d, \"repeats_untraced\": %zu, \"repeats_traced\": %zu, "
              "\"setups\": %zu, "
              "\"phase_s\": {\"setup\": %s, \"run\": %s, \"drain\": %s, \"explain\": %s, "
              "\"measure_wall\": %s}}}\n",
              JsonEscape(opt.rev).c_str(), XK_PERFBENCH_BUILD_TYPE, nproc, pinned_cpu,
              JsonEscape(CpuModel()).c_str(), opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), JsonEscape(w.inputs).c_str(),
              Num(opt.seconds).c_str(),
              opt.trace ? 1 : 0, plain.size(), traced.size(), setups.size(),
              Num(Median(setups)).c_str(),
              Num(Median([&] {
                std::vector<double> v;
                for (const Repeat& r : plain) v.push_back(r.run_s);
                return v;
              }())).c_str(),
              Num(Median([&] {
                std::vector<double> v;
                for (const Repeat& r : plain) v.push_back(r.drain_s);
                return v;
              }())).c_str(),
              Num(explain_wall_s).c_str(), Num(measure_s).c_str());

  const Repeat& r0 = plain.front();
  const double calls = static_cast<double>(r0.issued);
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  auto put = [&](const std::string& name, double v, const std::string& unit) {
    metrics.push_back({name, {v, unit}});
    std::printf("%-34s %16.6f %s\n", name.c_str(), v, unit.c_str());
  };
  // Printed with the rest but kept out of the result line (see BENCHMARK.json).
  auto show = [&](const std::string& name, double v, const std::string& unit) {
    std::printf("%-34s %16.6f %s  (not gated)\n", name.c_str(), v, unit.c_str());
  };
  std::printf("workload %s seed %llu: %zu untraced + %zu traced repeats of %llu calls, "
              "%llu of %llu failed or never completed; simulated digest %s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed), plain.size(),
              traced.size(), static_cast<unsigned long long>(r0.issued),
              static_cast<unsigned long long>(failed), static_cast<unsigned long long>(attempted),
              ref.ToString().c_str());

  auto med = [&](const std::vector<Repeat>& reps, auto get) {
    std::vector<double> v;
    for (const Repeat& r : reps) {
      v.push_back(get(r));
    }
    return Median(v);
  };

  const HostTimes ht = WindowTimes(plain);
  if (!opt.trace) {
    put("setup_s", Median(setups), "s");
    put("calls_per_s", ht.calls_per_s, "1/s");
    put("call_us_p50", ht.p50_us, "us");
    show("call_us_p99", ht.p99_us, "us");
    put("completed_ratio",
        attempted > 0 ? static_cast<double>(attempted - failed) / static_cast<double>(attempted)
                      : 0.0,
        "ratio");
    show("failed_ratio",
         attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted) : 0.0,
         "ratio");
    put("peak_rss_mb", peak_rss_mb, "MB");
    show("drain_s", med(plain, [](const Repeat& r) { return r.drain_s; }), "s");
    put("explain_s", ex.total_s(), "s");
    std::printf("call times: fast end of %zu windows of %llu calls; p99 over all %llu calls; "
                "%zu set-ups; explain phases fast end of %zu rounds\n",
                ht.windows, static_cast<unsigned long long>(r0.window_calls),
                static_cast<unsigned long long>(ht.samples), setups.size(), rounds.size());
  } else {
    const Sweep sw = RunSweep(spans.get());
    checks.Expect(sw.ok, "depth sweep: a call failed");
    Repeat probe;
    if (opt.workload != "sessions") {
      probe = RunCoreProbe(opt.seed, spans.get());
      checks.Expect(probe.live_after_drain == 0, "core probe: sessions live after the drain");
    }
    const Repeat& core = opt.workload == "sessions" ? traced.front() : probe;

    auto self_mean = [&](const char* name) {
      auto it = agg.find(name);
      return it == agg.end() || it->second.count == 0
                 ? 0.0
                 : it->second.self_ns / static_cast<double>(it->second.count);
    };
    const double traced_calls_per_s = WindowTimes(traced).calls_per_s;
    const double events_per_call = static_cast<double>(ref.events) / calls;
    const LayerCounts& c = r0.counts;
    put("sim.events_per_call", events_per_call, "count");
    put("sim.ns_per_event",
        1e9 / (ht.calls_per_s * events_per_call), "ns");
    put("sim.pending_peak", static_cast<double>(c.pending_peak), "count");
    put("sim.link.frames_per_call", static_cast<double>(c.frames) / calls, "count");
    put("sim.link.fault_drops", static_cast<double>(c.fault_drops), "count");
    put("rpc.fragment.fragments_per_call", static_cast<double>(c.fragments) / calls, "count");
    put("rpc.channel.retransmissions", static_cast<double>(c.retransmissions), "count");
    put("cluster.vpool.down_marks", static_cast<double>(c.down_marks), "count");
    put("proto.ip.forwards_per_call", static_cast<double>(c.forwards) / calls, "count");
    put("rpc.issue_ns", self_mean("issue"), "ns");
    const char* const kLayers[4] = {"proto.vip.call_ns", "rpc.fragment.layer_ns",
                                    "rpc.channel.layer_ns", "rpc.select.layer_ns"};
    for (int s = 0; s < 2; ++s) {
      for (int d = 0; d < 4; ++d) {
        put(std::string(kLayers[d]) + (s == 0 ? "" : "_16k"), sw.layer_ns[s][d], "ns");
      }
    }
    put("core.session_open_ns",
        core.population_s * 1e9 /
            static_cast<double>(std::max<uint64_t>(1, core.counts.sessions_opened)),
        "ns");
    put("core.demux_probe_max", static_cast<double>(core.counts.demux_probe_max), "count");
    put("core.session_slots", static_cast<double>(core.counts.session_slots), "count");
    put("core.evict_ns_per_session",
        core.drain_s * 1e9 /
            static_cast<double>(std::max<uint64_t>(1, core.counts.sessions_evicted)),
        "ns");
    put("setup.topology_s", med(traced, [](const Repeat& r) { return r.topology_s; }), "s");
    put("setup.arp_s", med(traced, [](const Repeat& r) { return r.arp_s; }), "s");
    put("setup.stacks_s", med(traced, [](const Repeat& r) { return r.stacks_s; }), "s");
    put("trace.record_s", ex.record_s, "s");
    put("trace.serialize_s", ex.serialize_s, "s");
    put("trace.parse_s", ex.parse_s, "s");
    put("trace.stitch_s", ex.stitch_s, "s");
    put("trace.bytes_per_call",
        static_cast<double>(ex.bytes) / static_cast<double>(std::max<uint64_t>(1, ex.calls)),
        "B");
    put("bench.span_overhead_pct", (ht.calls_per_s / traced_calls_per_s - 1.0) * 100.0, "%");

    std::printf("\nTable III in host time (median of interleaved windows) next to simulated "
                "time:\n%-26s %12s %12s %12s %12s\n",
                "stack", "0B host ns", "0B sim ns", "16K host ns", "16K sim ns");
    const char* const kRows[4] = {"VIP", "FRAGMENT-VIP", "CHANNEL-FRAGMENT-VIP",
                                  "SELECT-CHANNEL-FRAGMENT-VIP"};
    for (int d = 0; d < 4; ++d) {
      std::printf("%-26s %12.1f %12.1f %12.1f %12.1f\n", kRows[d], sw.depth[0][d].host_ns,
                  sw.depth[0][d].sim_ns, sw.depth[1][d].host_ns, sw.depth[1][d].sim_ns);
    }
    std::printf("%-26s %12s %12s %12s %12s\n", "layer", "0B host ns", "0B sim ns",
                "16K host ns", "16K sim ns");
    const char* const kLayerRows[4] = {"VIP (base)", "+FRAGMENT", "+CHANNEL", "+SELECT"};
    for (int d = 0; d < 4; ++d) {
      const double sim0 = d == 0 ? sw.depth[0][0].sim_ns
                                 : sw.depth[0][d].sim_ns - sw.depth[0][d - 1].sim_ns;
      const double sim1 = d == 0 ? sw.depth[1][0].sim_ns
                                 : sw.depth[1][d].sim_ns - sw.depth[1][d - 1].sim_ns;
      std::printf("%-26s %12.1f %12.1f %12.1f %12.1f\n", kLayerRows[d], sw.layer_ns[0][d], sim0,
                  sw.layer_ns[1][d], sim1);
    }
    if (!opt.spans_path.empty() && !spans->Write(opt.spans_path)) {
      std::fprintf(stderr, "xk_perfbench: failed to write spans to %s\n", opt.spans_path.c_str());
    }
  }

  std::string out = "{\"correct\": ";
  out += checks.ok() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "\"" : ", \"") + metrics[i].first + "\": {\"value\": " +
           Num(metrics[i].second.first) + ", \"unit\": \"" + metrics[i].second.second + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return checks.ok() ? 0 : 1;
}

}  // namespace
}  // namespace xk

int main(int argc, char** argv) { return xk::Main(argc, argv); }
