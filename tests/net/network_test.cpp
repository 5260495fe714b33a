#include "peerlab/net/network.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "peerlab/net/fault_plan.hpp"
#include "peerlab/obs/trace.hpp"

namespace peerlab::net {
namespace {

NodeProfile host(const std::string& name, Seconds control_mean = 0.05) {
  NodeProfile p;
  p.hostname = name;
  p.uplink_mbps = 8.0;
  p.downlink_mbps = 8.0;
  p.control_delay_mean = control_mean;
  p.control_delay_sigma = 0.0;  // deterministic for exact assertions
  p.loss_per_megabyte = 0.0;
  return p;
}

Network make_network(sim::Simulator& sim, std::vector<NodeProfile> hosts,
                     NetworkConfig cfg = {}) {
  Topology topo(sim.rng().fork(1));
  for (auto& h : hosts) topo.add_node(std::move(h));
  return Network(sim, std::move(topo), cfg);
}

TEST(Network, DatagramArrivesAfterControlDelay) {
  sim::Simulator sim(1);
  NetworkConfig cfg;
  cfg.datagram_loss = 0.0;
  auto net = make_network(sim, {host("a"), host("b", 0.5)}, cfg);
  std::optional<Seconds> arrival;
  net.send_datagram(NodeId(1), NodeId(2), kilobytes(1.0), [&] { arrival = sim.now(); });
  sim.run();
  ASSERT_TRUE(arrival.has_value());
  // propagation (loopback-scale, same location) + 0.5 control + 1 ms serialization.
  EXPECT_NEAR(*arrival, 0.505, 0.01);
  EXPECT_EQ(net.datagrams_sent(), 1u);
  EXPECT_EQ(net.datagrams_lost(), 0u);
}

TEST(Network, DatagramLossSuppressesDelivery) {
  sim::Simulator sim(7);
  NetworkConfig cfg;
  cfg.datagram_loss = 1.0 - 1e-9;  // ~always lost
  auto net = make_network(sim, {host("a"), host("b")}, cfg);
  int delivered = 0;
  for (int i = 0; i < 50; ++i) {
    net.send_datagram(NodeId(1), NodeId(2), kilobytes(1.0), [&] { ++delivered; });
  }
  sim.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(net.datagrams_lost(), 50u);
}

TEST(Network, DatagramLossRateIsApproximatelyConfigured) {
  sim::Simulator sim(11);
  NetworkConfig cfg;
  cfg.datagram_loss = 0.2;
  auto net = make_network(sim, {host("a"), host("b")}, cfg);
  int delivered = 0;
  constexpr int kN = 5000;
  for (int i = 0; i < kN; ++i) {
    net.send_datagram(NodeId(1), NodeId(2), kilobytes(1.0), [&] { ++delivered; });
  }
  sim.run();
  EXPECT_NEAR(static_cast<double>(delivered) / kN, 0.8, 0.03);
}

TEST(Network, BulkMessageCompletesAtDegradedRate) {
  sim::Simulator sim(1);
  auto net = make_network(sim, {host("a"), host("b")});
  std::optional<Seconds> elapsed;
  bool ok = false;
  net.start_message(NodeId(1), NodeId(2), megabytes(8.0), [&](bool success, Seconds t) {
    ok = success;
    elapsed = t;
  });
  sim.run();
  ASSERT_TRUE(elapsed.has_value());
  EXPECT_TRUE(ok);
  // 8 MB at degradation factor 1/2 of 8 Mbit/s = 4 Mbit/s -> 16 s.
  EXPECT_NEAR(*elapsed, 16.0, 0.1);
}

TEST(Network, SmallBulkMessageSeesNominalRate) {
  sim::Simulator sim(1);
  auto net = make_network(sim, {host("a"), host("b")});
  std::optional<Seconds> elapsed;
  net.start_message(NodeId(1), NodeId(2), kilobytes(64.0),
                    [&](bool, Seconds t) { elapsed = t; });
  sim.run();
  ASSERT_TRUE(elapsed.has_value());
  // 64 KB = 0.512 Mbit at 8 Mbit/s = 64 ms, plus propagation slack.
  EXPECT_NEAR(*elapsed, 0.064, 0.01);
}

TEST(Network, LossyDestinationFailsSomeMessagesPartWay) {
  sim::Simulator sim(3);
  auto lossy = host("b");
  lossy.loss_per_megabyte = 0.05;
  auto net = make_network(sim, {host("a"), lossy});
  int okc = 0, fail = 0;
  std::vector<Seconds> fail_times;
  for (int i = 0; i < 60; ++i) {
    sim.schedule(static_cast<double>(i) * 100.0, [&] {
      net.start_message(NodeId(1), NodeId(2), megabytes(10.0), [&](bool success, Seconds t) {
        if (success) {
          ++okc;
        } else {
          ++fail;
          fail_times.push_back(t);
        }
      });
    });
  }
  sim.run();
  EXPECT_GT(okc, 0);
  EXPECT_GT(fail, 0);  // (1 - 0.05)^10 ~ 0.6 survival, expect failures
  EXPECT_EQ(net.messages_lost(), static_cast<std::uint64_t>(fail));
  // Failures burn a fraction of the full wire time, never more than a
  // successful transfer takes.
  for (const Seconds t : fail_times) {
    EXPECT_GT(t, 0.0);
    EXPECT_LT(t, 30.0);
  }
}

TEST(Network, WholeFileVersusPartsShapeMatchesPaperFigure5) {
  // The headline phenomenon: a 100 MB monolith is drastically slower
  // than 16 sequential 6.25 MB parts on the same path.
  sim::Simulator sim(5);
  auto net = make_network(sim, {host("a"), host("b")});

  Seconds whole_time = 0.0;
  net.start_message(NodeId(1), NodeId(2), megabytes(100.0),
                    [&](bool, Seconds t) { whole_time = t; });
  sim.run();

  sim::Simulator sim2(5);
  auto net2 = make_network(sim2, {host("a"), host("b")});
  Seconds parts_time = 0.0;
  int remaining = 16;
  std::function<void()> send_next = [&] {
    net2.start_message(NodeId(1), NodeId(2), megabytes(6.25), [&](bool, Seconds) {
      if (--remaining > 0) {
        send_next();
      } else {
        parts_time = sim2.now();
      }
    });
  };
  send_next();
  sim2.run();

  EXPECT_GT(whole_time / parts_time, 8.0);
  EXPECT_LT(whole_time / parts_time, 40.0);
}

TEST(Network, SampleControlDelayTracksDestinationProfile) {
  sim::Simulator sim(1);
  auto net = make_network(sim, {host("a", 0.05), host("slow", 27.0)});
  const Seconds fast = net.sample_control_delay(NodeId(2), NodeId(1));
  const Seconds slow = net.sample_control_delay(NodeId(1), NodeId(2));
  EXPECT_LT(fast, 1.0);
  EXPECT_GT(slow, 20.0);
}

TEST(Network, CancelMessageSuppressesCallback) {
  sim::Simulator sim(1);
  auto net = make_network(sim, {host("a"), host("b")});
  bool fired = false;
  const FlowId id = net.start_message(NodeId(1), NodeId(2), megabytes(8.0),
                                      [&](bool, Seconds) { fired = true; });
  sim.schedule(1.0, [&] { net.cancel_message(id); });
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Network, BrownoutSlowsTransferAndLeavesATraceRecord) {
  sim::Simulator sim(1);
  NetworkConfig cfg;
  cfg.degradation.s0 = 1000 * kGigabyte;  // no large-message cap: exact arithmetic
  auto net = make_network(sim, {host("a"), host("b")}, cfg);
  obs::trace::TraceRecorder recorder(sim);
  net.set_trace(&recorder);
  // 1 MB at 8 Mbit/s finishes in 1 s unbrowned; halving the source's
  // capacity at t = 0.5 stretches the remaining half to 1 s. The
  // restoring event (t = 100.5) is a daemon, so the run ends first.
  FaultPlan plan;
  plan.brownout(0.5, NodeId(1), 0.5, 100.0);
  FaultInjector injector(net, plan);
  injector.set_trace(&recorder);
  std::optional<Seconds> done;
  net.start_message(NodeId(1), NodeId(2), megabytes(1.0),
                    [&](bool ok, Seconds elapsed) {
                      EXPECT_TRUE(ok);
                      done = elapsed;
                    });
  sim.run();
  ASSERT_TRUE(done.has_value());
  EXPECT_NEAR(*done, 1.5, 0.01);
  std::vector<obs::trace::TraceRecord> brownouts;
  for (const auto& record : recorder.events()) {
    if (record.kind == obs::trace::TraceKind::kBrownout) brownouts.push_back(record);
  }
  ASSERT_EQ(brownouts.size(), 1u);
  EXPECT_EQ(brownouts[0].trace, 0u);  // ambient
  EXPECT_EQ(brownouts[0].node, NodeId(1));
  EXPECT_EQ(brownouts[0].a, 500u);  // the factor in per mille
}

TEST(Network, CountersTrackActivity) {
  sim::Simulator sim(1);
  NetworkConfig cfg;
  cfg.datagram_loss = 0.0;
  auto net = make_network(sim, {host("a"), host("b")}, cfg);
  net.send_datagram(NodeId(1), NodeId(2), 100, [] {});
  net.start_message(NodeId(1), NodeId(2), megabytes(1.0), [](bool, Seconds) {});
  sim.run();
  EXPECT_EQ(net.datagrams_sent(), 1u);
  EXPECT_EQ(net.messages_started(), 1u);
  EXPECT_EQ(net.messages_lost(), 0u);
}

}  // namespace
}  // namespace peerlab::net
