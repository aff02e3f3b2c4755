// Micro-benchmarks (google-benchmark, real wall-clock time) of the x-kernel
// infrastructure primitives the paper's argument rests on:
//
//  * a layer crossing is one procedure call (Session::Push dispatch);
//  * header push/pop is a pointer adjustment under the current buffer scheme
//    and an allocation under the old one (the 0.11 vs 0.50 ms/layer ablation,
//    here in host nanoseconds);
//  * demultiplexing is one map lookup;
//  * the discrete-event core itself is cheap enough that simulated results
//    are not distorted by harness costs;
//  * a traced run explains itself cheaply: serializing, parsing and stitching
//    its trace (the three host-side phases after recording).

#include <benchmark/benchmark.h>

#include <functional>
#include <memory>

#include "src/app/stacks.h"
#include "src/core/map.h"
#include "src/core/message.h"
#include "src/proto/topology.h"
#include "src/sim/event_queue.h"
#include "src/tools/trace_reader.h"
#include "src/trace/causal.h"
#include "src/trace/trace.h"

namespace xk {
namespace {

void BM_MessagePushPopPointerAdjust(benchmark::State& state) {
  Message::set_default_alloc_policy(HeaderAllocPolicy::kPointerAdjust);
  const size_t hdr_size = state.range(0);
  std::vector<uint8_t> hdr(hdr_size, 0xAB);
  std::vector<uint8_t> out(hdr_size);
  Message msg(1024);
  for (auto _ : state) {
    msg.PushHeader(hdr);
    benchmark::DoNotOptimize(msg.PopHeader(out));
  }
}
BENCHMARK(BM_MessagePushPopPointerAdjust)->Arg(4)->Arg(18)->Arg(23)->Arg(36);

void BM_MessagePushPopPerLayerAlloc(benchmark::State& state) {
  Message::set_default_alloc_policy(HeaderAllocPolicy::kPerLayerAlloc);
  const size_t hdr_size = state.range(0);
  std::vector<uint8_t> hdr(hdr_size, 0xAB);
  std::vector<uint8_t> out(hdr_size);
  Message msg(1024);
  for (auto _ : state) {
    msg.PushHeader(hdr);
    benchmark::DoNotOptimize(msg.PopHeader(out));
  }
  Message::set_default_alloc_policy(HeaderAllocPolicy::kPointerAdjust);
}
BENCHMARK(BM_MessagePushPopPerLayerAlloc)->Arg(4)->Arg(18)->Arg(23)->Arg(36);

void BM_MessageSliceJoin16k(benchmark::State& state) {
  Message msg(16 * 1024);
  for (auto _ : state) {
    Message whole;
    for (int i = 0; i < 16; ++i) {
      whole.Append(msg.Slice(static_cast<size_t>(i) * 1024, 1024));
    }
    benchmark::DoNotOptimize(whole.length());
  }
}
BENCHMARK(BM_MessageSliceJoin16k);

void BM_MessageFlatten(benchmark::State& state) {
  Message msg(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(msg.Flatten());
  }
}
BENCHMARK(BM_MessageFlatten)->Arg(64)->Arg(1500)->Arg(16384);

void BM_EventQueueScheduleRun(benchmark::State& state) {
  EventQueue q;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      q.ScheduleIn(Usec(i), [] {});
    }
    q.Run();
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueueScheduleRun);

void BM_EventQueueScheduleCancelMix(benchmark::State& state) {
  // The retransmit-timer pattern that dominates CHANNEL/FRAGMENT/RDP: set a
  // timer per message, cancel most of them when the ack arrives first, let
  // the rest fire.
  EventQueue q;
  std::vector<EventHandle> handles(64);
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      handles[i] = q.ScheduleIn(Usec(100 + i), [] {});
    }
    for (int i = 0; i < 48; ++i) {
      handles[i].Cancel();
    }
    q.Run();
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueueScheduleCancelMix);

void BM_EventQueueFarTimers(benchmark::State& state) {
  // FRAGMENT keeps every sent message for a one-second timer, so a busy
  // sender holds many far timers while near-term events (frame deliveries,
  // tasks) churn past them. Steady state: N live one-second timers. Each
  // iteration advances the clock by 1 s / N with one near-term event and arms
  // one fresh one-second timer, so about one old timer fires per iteration.
  const int64_t n = state.range(0);
  const SimTime step = n > 0 ? Msec(1000) / n : Usec(10);
  EventQueue q;
  for (int64_t i = 1; i <= n; ++i) {
    q.ScheduleAt(step * i, [] {});
  }
  for (auto _ : state) {
    q.ScheduleIn(step, [] {});
    if (n > 0) {
      q.ScheduleIn(Msec(1000), [] {});
    }
    benchmark::DoNotOptimize(q.RunUntil(q.now() + step));
  }
  state.SetItemsProcessed(static_cast<int64_t>(q.fired_total()));
  state.counters["live"] = static_cast<double>(q.pending_events());
}
BENCHMARK(BM_EventQueueFarTimers)->Arg(0)->Arg(1000)->Arg(100000);

void BM_FullNullRpcSimulated(benchmark::State& state) {
  // Wall-clock cost of simulating one complete null RPC through the full
  // layered stack -- the harness overhead per simulated call.
  for (auto _ : state) {
    state.PauseTiming();
    auto net = Internet::TwoHosts();
    auto& ch = net->host("client");
    auto& sh = net->host("server");
    RpcStack cs = BuildLRpc(ch);
    RpcStack ss = BuildLRpc(sh);
    RpcClient* client = nullptr;
    ch.kernel->RunTask(0, [&] { client = &ch.kernel->Emplace<RpcClient>(*ch.kernel, cs.top); });
    sh.kernel->RunTask(0, [&] {
      auto& server = sh.kernel->Emplace<RpcServer>(*sh.kernel, ss.top);
      (void)server.Export(RpcServer::kAny, [](uint16_t, Message&) { return Message(); });
    });
    state.ResumeTiming();
    bool done = false;
    ch.kernel->RunTask(0, [&] {
      client->Call(sh.kernel->ip_addr(), 1, Message(), [&](Result<Message>) { done = true; });
    });
    net->RunAll();
    benchmark::DoNotOptimize(done);
  }
}
BENCHMARK(BM_FullNullRpcSimulated);

// A fixed trace slice, recorded once: 400 null L_RPC-VIP calls on the two-host
// testbed, one in flight, each bracketed by issue/done events so the stitcher
// finds one flow per call.
const TraceSink& TraceSlice() {
  static const std::unique_ptr<TraceSink> slice = [] {
    constexpr uint64_t kCalls = 400;
    auto sink = std::make_unique<TraceSink>();
    TraceSink::set_thread_default(sink.get());
    auto net = Internet::TwoHosts();
    TraceSink::set_thread_default(nullptr);
    Kernel& ck = *net->host("client").kernel;
    Kernel& sk = *net->host("server").kernel;
    RpcStack cs = BuildLRpc(net->host("client"), Delivery::kVip);
    RpcStack ss = BuildLRpc(net->host("server"), Delivery::kVip);
    RpcClient* client = nullptr;
    ck.RunTask(0, [&] { client = &ck.Emplace<RpcClient>(ck, cs.top); });
    sk.RunTask(0, [&] {
      auto& server = sk.Emplace<RpcServer>(sk, ss.top);
      (void)server.Export(RpcServer::kAny, [](uint16_t, Message&) { return Message(); });
    });
    uint64_t next = 1;
    std::function<void()> issue = [&] {
      const uint64_t id = next++;
      Message args;
      sink->RecordEvent(ck, TraceOp::kIssue, "micro", ck.now(), id, &args, nullptr, 0);
      client->Call(sk.ip_addr(), 1, std::move(args), [&, id](Result<Message> r) {
        sink->RecordEvent(ck, TraceOp::kDone, "micro", ck.now(), id, r.ok() ? &*r : nullptr,
                          nullptr, 0);
        if (next <= kCalls) {
          issue();
        }
      });
    };
    ck.RunTask(0, issue);
    net->RunAll();
    return sink;
  }();
  return *slice;
}

void BM_TraceSerialize(benchmark::State& state) {
  const TraceSink& sink = TraceSlice();
  size_t bytes = 0;
  for (auto _ : state) {
    const std::string text = sink.ToJsonl();
    bytes = text.size();
    benchmark::DoNotOptimize(text.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(bytes));
}
BENCHMARK(BM_TraceSerialize);

void BM_TraceParse(benchmark::State& state) {
  const std::string text = TraceSlice().ToJsonl();
  for (auto _ : state) {
    const tracetool::TraceFile tf = tracetool::Parse(text);
    benchmark::DoNotOptimize(tf.spans.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_TraceParse);

void BM_TraceStitch(benchmark::State& state) {
  const std::string text = TraceSlice().ToJsonl();
  const tracetool::TraceFile tf = tracetool::Parse(text);
  size_t flows = 0;
  for (auto _ : state) {
    const causal::FlowAnalysis fa = causal::Stitch(tf);
    flows = fa.calls.size();
    benchmark::DoNotOptimize(fa.calls.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(text.size()));
  state.counters["flows"] = static_cast<double>(flows);
}
BENCHMARK(BM_TraceStitch);

}  // namespace
}  // namespace xk

BENCHMARK_MAIN();
