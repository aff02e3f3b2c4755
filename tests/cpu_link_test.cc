// Tests for the CPU and Ethernet link models.

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/sim/cpu.h"
#include "src/sim/link.h"
#include "tests/rpc_util.h"

namespace xk {
namespace {

TEST(CpuTest, ChargesAccumulateWithinTask) {
  Cpu cpu;
  EXPECT_EQ(cpu.BeginTask(Usec(100)), Usec(100));
  cpu.Charge(Usec(10));
  cpu.Charge(Usec(5));
  EXPECT_EQ(cpu.now(), Usec(115));
  EXPECT_EQ(cpu.EndTask(), Usec(115));
  EXPECT_EQ(cpu.total_busy(), Usec(15));
}

TEST(CpuTest, BackToBackTasksSerialize) {
  Cpu cpu;
  cpu.BeginTask(Usec(0));
  cpu.Charge(Usec(50));
  cpu.EndTask();
  // A task dispatched at t=20 while the CPU is busy until t=50 starts at 50.
  EXPECT_EQ(cpu.BeginTask(Usec(20)), Usec(50));
  cpu.Charge(Usec(10));
  EXPECT_EQ(cpu.EndTask(), Usec(60));
}

TEST(CpuTest, IdleGapsDoNotCountAsBusy) {
  Cpu cpu;
  cpu.BeginTask(Usec(0));
  cpu.Charge(Usec(10));
  cpu.EndTask();
  cpu.BeginTask(Usec(1000));
  cpu.Charge(Usec(10));
  cpu.EndTask();
  EXPECT_EQ(cpu.total_busy(), Usec(20));
}

class Recorder : public FrameSink {
 public:
  struct Arrival {
    SimTime at;
    std::vector<uint8_t> bytes;
  };
  explicit Recorder(EventQueue& q) : q_(q) {}
  void FrameArrived(const EthFrame& f) override { arrivals.push_back({q_.now(), f.bytes}); }
  std::vector<Arrival> arrivals;

 private:
  EventQueue& q_;
};

EthFrame MakeFrame(EthAddr dst, EthAddr src, size_t payload) {
  EthFrame f;
  auto put = [&](const EthAddr& a) {
    for (uint8_t b : a.bytes()) {
      f.bytes.push_back(b);
    }
  };
  put(dst);
  put(src);
  f.bytes.push_back(0x08);
  f.bytes.push_back(0x00);
  f.bytes.resize(14 + payload, 0xAB);
  return f;
}

struct LinkFixture : ::testing::Test {
  EventQueue q;
  WireModel wire;
  EthernetSegment seg{q, WireModel{}, 42};
  Recorder a{q}, b{q}, c{q};
  int ia = seg.Attach(EthAddr::FromIndex(1), &a);
  int ib = seg.Attach(EthAddr::FromIndex(2), &b);
  int ic = seg.Attach(EthAddr::FromIndex(3), &c);
};

TEST_F(LinkFixture, UnicastReachesOnlyDestination) {
  seg.Transmit(ia, MakeFrame(EthAddr::FromIndex(2), EthAddr::FromIndex(1), 100), 0);
  q.Run();
  EXPECT_EQ(a.arrivals.size(), 0u);
  EXPECT_EQ(b.arrivals.size(), 1u);
  EXPECT_EQ(c.arrivals.size(), 0u);
}

TEST_F(LinkFixture, BroadcastReachesAllButSender) {
  seg.Transmit(ia, MakeFrame(EthAddr::Broadcast(), EthAddr::FromIndex(1), 10), 0);
  q.Run();
  EXPECT_EQ(a.arrivals.size(), 0u);
  EXPECT_EQ(b.arrivals.size(), 1u);
  EXPECT_EQ(c.arrivals.size(), 1u);
}

TEST_F(LinkFixture, ArrivalTimeMatchesWireModel) {
  const size_t payload = 1000;
  seg.Transmit(ia, MakeFrame(EthAddr::FromIndex(2), EthAddr::FromIndex(1), payload), Usec(50));
  q.Run();
  ASSERT_EQ(b.arrivals.size(), 1u);
  const SimTime expected = Usec(50) + wire.TransmitTime(14 + payload) + wire.propagation;
  EXPECT_EQ(b.arrivals[0].at, expected);
}

TEST_F(LinkFixture, MinFramePaddingAffectsTiming) {
  // A tiny frame still takes min_frame_bytes on the wire.
  seg.Transmit(ia, MakeFrame(EthAddr::FromIndex(2), EthAddr::FromIndex(1), 1), 0);
  q.Run();
  ASSERT_EQ(b.arrivals.size(), 1u);
  EXPECT_EQ(b.arrivals[0].at, wire.TransmitTime(64) + wire.propagation);
}

TEST_F(LinkFixture, BusSerializesBackToBackFrames) {
  const auto f = MakeFrame(EthAddr::FromIndex(2), EthAddr::FromIndex(1), 1000);
  seg.Transmit(ia, f, 0);
  seg.Transmit(ia, f, 0);  // ready at the same instant: queues behind
  q.Run();
  ASSERT_EQ(b.arrivals.size(), 2u);
  const SimTime tx = wire.TransmitTime(1014);
  EXPECT_EQ(b.arrivals[0].at, tx + wire.propagation);
  EXPECT_EQ(b.arrivals[1].at, 2 * tx + wire.propagation);
  EXPECT_EQ(seg.bus_busy_time(), 2 * tx);
}

TEST_F(LinkFixture, DropRateDropsEverythingAtOne) {
  seg.set_drop_rate(1.0);
  seg.Transmit(ia, MakeFrame(EthAddr::FromIndex(2), EthAddr::FromIndex(1), 10), 0);
  q.Run();
  EXPECT_EQ(b.arrivals.size(), 0u);
  EXPECT_EQ(seg.frames_dropped(), 1u);
}

TEST_F(LinkFixture, FaultHookCanTargetSpecificDelivery) {
  seg.set_fault_hook([](const EthFrame&, int, uint64_t index) {
    return index == 1 ? LinkFault::kDrop : LinkFault::kDeliver;
  });
  const auto f = MakeFrame(EthAddr::FromIndex(2), EthAddr::FromIndex(1), 10);
  seg.Transmit(ia, f, 0);
  seg.Transmit(ia, f, 0);
  seg.Transmit(ia, f, 0);
  q.Run();
  EXPECT_EQ(b.arrivals.size(), 2u);
  EXPECT_EQ(seg.frames_dropped(), 1u);
}

TEST_F(LinkFixture, FaultHookDuplicateDeliversTwice) {
  seg.set_fault_hook(
      [](const EthFrame&, int, uint64_t) { return LinkFault::kDuplicate; });
  seg.Transmit(ia, MakeFrame(EthAddr::FromIndex(2), EthAddr::FromIndex(1), 10), 0);
  q.Run();
  EXPECT_EQ(b.arrivals.size(), 2u);
}

TEST_F(LinkFixture, StatsCountFramesAndBytes) {
  seg.Transmit(ia, MakeFrame(EthAddr::FromIndex(2), EthAddr::FromIndex(1), 100), 0);
  seg.Transmit(ib, MakeFrame(EthAddr::FromIndex(1), EthAddr::FromIndex(2), 200), 0);
  q.Run();
  EXPECT_EQ(seg.frames_sent(), 2u);
  EXPECT_EQ(seg.bytes_sent(), 114u + 214u);
  seg.ResetStats();
  EXPECT_EQ(seg.frames_sent(), 0u);
  EXPECT_EQ(seg.bus_busy_time(), 0);
}

TEST(WireModelTest, TransmitTimeAt10Mbps) {
  WireModel w;
  // 1250 bytes = 10000 bits = 1000 us at 10 Mbps, plus per-frame overhead.
  EXPECT_EQ(w.TransmitTime(1250), w.per_frame_overhead + Usec(1000));
}

// --- batched delivery ---------------------------------------------------------

// Run once with batched delivery (the default) and once with it disabled;
// every observable artifact must be byte-identical. A raw-ETH broadcast
// burst rides along with the RPC traffic: each broadcast lands on every
// other station at the same instant -- the multi-receiver case batching
// folds into one heap event -- while the RPC unicasts exercise the
// singleton-batch path. (ARP must be warm: the synchronous open path the
// RPC stack uses reports UNREACHABLE on a cold cache rather than resolving.)
struct BatchDiffArtifacts {
  std::string trace_jsonl;
  std::string pcap_jsonl;
  uint64_t events_fired = 0;
  SimTime sum_done_at = 0;
  int completed = 0;
  int failed = 0;
};

BatchDiffArtifacts RunBatchDiffScenario(uint64_t seed, bool batched) {
  std::mt19937_64 rng(seed);
  TraceSink sink;
  PacketCapture capture;
  TraceSink::set_thread_default(&sink);
  PacketCapture::set_thread_default(&capture);

  BatchDiffArtifacts out;
  {
    auto net = std::make_unique<Internet>(HostEnv::kXKernel, 1);
    WireModel wire;
    wire.propagation = Usec(100 + static_cast<SimTime>(rng() % 1500));
    const int seg = net->AddSegment(wire);
    const int pairs = 2 + static_cast<int>(rng() % 3);  // 4..8 hosts on one bus
    struct Pair {
      HostStack* ch = nullptr;
      HostStack* sh = nullptr;
      RpcStack cstack, sstack;
      RpcClient* client = nullptr;
      RpcServer* server = nullptr;
    };
    std::vector<Pair> ps(static_cast<size_t>(pairs));
    for (int p = 0; p < pairs; ++p) {
      ps[p].ch = &net->AddHost("c" + std::to_string(p), seg,
                               IpAddr(10, 0, 1, static_cast<uint8_t>(2 * p + 1)));
      ps[p].sh = &net->AddHost("s" + std::to_string(p), seg,
                               IpAddr(10, 0, 1, static_cast<uint8_t>(2 * p + 2)));
    }
    net->segment(seg).set_batched_delivery(batched);
    net->WarmArp();
    const double drop = static_cast<double>(rng() % 8) / 100.0;
    if (drop > 0) {
      net->segment(seg).set_drop_rate(drop);
    }
    std::vector<Kernel*> clients;
    std::vector<CallFn> calls;
    for (Pair& pr : ps) {
      pr.cstack = BuildLRpc(*pr.ch, Delivery::kVip);
      pr.sstack = BuildLRpc(*pr.sh, Delivery::kVip);
      RunIn(*pr.ch->kernel, [&] {
        pr.client = &pr.ch->kernel->Emplace<RpcClient>(*pr.ch->kernel, pr.cstack.top);
      });
      RunIn(*pr.sh->kernel, [&] {
        pr.server = &pr.sh->kernel->Emplace<RpcServer>(*pr.sh->kernel, pr.sstack.top);
        (void)pr.server->Export(RpcServer::kAny,
                                [](uint16_t, Message& request) { return request; });
      });
      clients.push_back(pr.ch->kernel);
      const IpAddr server_ip = pr.sh->kernel->ip_addr();
      RpcClient* client = pr.client;
      calls.push_back(
          [client, server_ip](Message args, std::function<void(Result<Message>)> done) {
            client->Call(server_ip, 1, std::move(args), std::move(done));
          });
    }
    // Broadcast burst on a private ETH type: every station but the sender
    // receives each frame at the same arrival time and echoes it back,
    // contending on the bus with the RPC traffic. With >= 3 receivers per
    // frame, multi-member batches form by construction.
    constexpr EthType kBurstType = 0x3901;
    for (Pair& pr : ps) {
      for (HostStack* h : {pr.ch, pr.sh}) {
        if (h == ps[0].ch) {
          continue;
        }
        h->kernel->RunTask(net->events().now(), [&] {
          auto& srv = h->kernel->Emplace<EchoAnchor>(*h->kernel, /*server_role=*/true);
          srv.set_app_cost(0);
          ParticipantSet enable;
          enable.local.eth_type = kBurstType;
          (void)h->eth->OpenEnable(srv, enable);
        });
      }
    }
    HostStack* burst_host = ps[0].ch;
    hotloop_internal::Burst burst;
    burst_host->kernel->RunTask(net->events().now(), [&] {
      auto& sender =
          burst_host->kernel->Emplace<EchoAnchor>(*burst_host->kernel, /*server_role=*/false);
      sender.set_app_cost(0);
      ParticipantSet parts;
      parts.local.eth_type = kBurstType;
      parts.peer.eth = EthAddr::Broadcast();
      Result<SessionRef> r = burst_host->eth->Open(sender, parts);
      burst.kernel = burst_host->kernel;
      burst.anchor = &sender;
      burst.sess = r.ok() ? *r : nullptr;
      burst.remaining = 8 + static_cast<int>(rng() % 16);
      burst.size = 2 + static_cast<int>(rng() % 3);
      burst.bytes = static_cast<size_t>(64) << (rng() % 3);
      burst.gap = Usec(200 + static_cast<SimTime>(rng() % 800));
    });
    if (burst.sess != nullptr) {
      burst_host->kernel->RunTask(net->events().now(),
                                  [&burst] { hotloop_internal::Fire(&burst); });
    }
    const size_t bytes = static_cast<size_t>(64) << (rng() % 6);  // 64..2048
    ManyPairsResult r = RpcWorkload::MeasureManyPairs(*net, clients, calls, bytes, 3);
    out.completed = r.completed;
    out.failed = r.failed;
    out.sum_done_at = r.sum_done_at;
    out.events_fired = net->events_fired();
  }

  TraceSink::set_thread_default(nullptr);
  PacketCapture::set_thread_default(nullptr);
  out.trace_jsonl = sink.ToJsonl();
  out.pcap_jsonl = capture.ToJsonl();
  return out;
}

TEST(BatchedDeliveryTest, RandomizedDifferentialBatchedVsUnbatched) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const BatchDiffArtifacts with = RunBatchDiffScenario(seed, /*batched=*/true);
    const BatchDiffArtifacts without = RunBatchDiffScenario(seed, /*batched=*/false);
    EXPECT_GT(with.completed, 0);
    EXPECT_EQ(with.completed, without.completed);
    EXPECT_EQ(with.failed, without.failed);
    EXPECT_EQ(with.sum_done_at, without.sum_done_at);
    EXPECT_EQ(with.events_fired, without.events_fired);
    EXPECT_EQ(with.trace_jsonl, without.trace_jsonl);
    EXPECT_EQ(with.pcap_jsonl, without.pcap_jsonl);
  }
}

}  // namespace
}  // namespace xk
