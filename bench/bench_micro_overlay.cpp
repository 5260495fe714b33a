// Overlay-scale microbenchmarks (google-benchmark): wall-clock cost of
// standing up deployments and pushing workloads through the full stack
// — the simulator's events-per-second throughput, which bounds how
// many repetitions the figure benches can afford — and of one broker
// selection on a booted population (BM_BrokerSelect).

#include <benchmark/benchmark.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "peerlab/core/economic.hpp"
#include "peerlab/planetlab/deployment.hpp"
#include "peerlab/planetlab/profiles.hpp"

namespace {

using namespace peerlab;

void BM_DeploymentBoot(benchmark::State& state) {
  const bool full = state.range(0) != 0;
  for (auto _ : state) {
    sim::Simulator sim(1);
    planetlab::DeploymentOptions opts;
    opts.full_slice = full;
    opts.boot_time = full ? 90.0 : 60.0;
    planetlab::Deployment dep(sim, opts);
    dep.boot();
    benchmark::DoNotOptimize(dep.broker().registered_clients().size());
  }
}
BENCHMARK(BM_DeploymentBoot)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_FileTransferRoundTrip(benchmark::State& state) {
  const auto parts = static_cast<int>(state.range(0));
  std::uint64_t events = 0;
  for (auto _ : state) {
    sim::Simulator sim(1);
    planetlab::Deployment dep(sim);
    transport::FileTransferConfig cfg;
    cfg.file_size = megabytes(10.0);
    cfg.parts = parts;
    bool done = false;
    dep.control().files().send_file(dep.sc_peer(2), cfg,
                                    [&](const transport::TransferResult& r) {
                                      done = r.complete;
                                    });
    sim.run();
    benchmark::DoNotOptimize(done);
    events += sim.executed_events();
  }
  state.counters["sim_events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FileTransferRoundTrip)->Arg(1)->Arg(16)->Arg(64)->Unit(benchmark::kMicrosecond);

void BM_TaskRoundTripThroughOverlay(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim(1);
    planetlab::Deployment dep(sim);
    dep.boot();
    dep.broker().set_selection_model(std::make_unique<core::EconomicSchedulingModel>());
    overlay::Primitives api(dep.control());
    bool ok = false;
    api.submit_task_auto(30.0, 0, [&](const overlay::TaskOutcome& o) { ok = o.ok; });
    sim.run();
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_TaskRoundTripThroughOverlay)->Unit(benchmark::kMillisecond);

/// A broker and `clients` idle clients copying the Table-1 profiles in
/// turn (SC1..SC8 calibrated, the other slice nodes with the slice
/// profile; hostnames suffixed, since Topology rejects duplicates),
/// starting staggered over one heartbeat period.
class HeartbeatWorld {
 public:
  HeartbeatWorld(sim::Simulator& sim, int clients, overlay::BrokerConfig broker_config = {}) {
    net::Topology topo(sim.rng().fork(1));
    const NodeId broker_node = topo.add_node(planetlab::broker_profile());
    const auto& table = planetlab::table1();
    for (int i = 0; i < clients; ++i) {
      const int ordinal = i % static_cast<int>(table.size());
      const auto& entry = table[static_cast<std::size_t>(ordinal)];
      auto profile = entry.simple_client_index > 0
                         ? planetlab::simple_client_profile(entry.simple_client_index)
                         : planetlab::slice_node_profile(entry, ordinal);
      profile.hostname += "-" + std::to_string(i);
      topo.add_node(std::move(profile));
    }
    network_.emplace(sim, std::move(topo));
    fabric_.emplace(*network_);
    broker_.emplace(*fabric_, broker_node, directories_, broker_config);
    const Seconds period = overlay::ClientConfig{}.heartbeat_interval;
    for (int i = 0; i < clients; ++i) {
      auto& client = clients_.emplace_back(std::make_unique<overlay::ClientPeer>(
          *fabric_, NodeId(static_cast<std::uint64_t>(i) + 2), broker_node, directories_));
      sim.schedule(period * i / clients, [peer = client.get()] { peer->start(); });
    }
  }

  [[nodiscard]] std::size_t registered() const { return broker_->registered_clients().size(); }
  [[nodiscard]] overlay::BrokerPeer& broker() { return *broker_; }

 private:
  std::optional<net::Network> network_;
  std::optional<transport::TransportFabric> fabric_;
  overlay::OverlayDirectories directories_;
  std::optional<overlay::BrokerPeer> broker_;
  std::vector<std::unique_ptr<overlay::ClientPeer>> clients_;
};

void BM_SimulatedHourOfHeartbeats(benchmark::State& state) {
  // Pure liveness machinery: how cheap is one simulated hour of an
  // idle 8-peer deployment (heartbeats + stats reports only)?
  std::uint64_t events = 0;
  for (auto _ : state) {
    sim::Simulator sim(1);
    planetlab::Deployment dep(sim);
    dep.boot();
    sim.run_until(sim.now() + 3600.0);
    events += sim.executed_events();
  }
  state.counters["sim_events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulatedHourOfHeartbeats)->Unit(benchmark::kMillisecond);

void BM_SimulatedHourOfHeartbeatsPopulation(benchmark::State& state) {
  // The same hour at population scale: `range(0)` idle clients built
  // from the Table-1 profiles (heartbeats, stats reports and advert
  // republishes only).
  const auto clients = static_cast<int>(state.range(0));
  std::uint64_t events = 0;
  for (auto _ : state) {
    sim::Simulator sim(1);
    HeartbeatWorld world(sim, clients);
    sim.run_until(3600.0);
    benchmark::DoNotOptimize(world.registered());
    events += sim.executed_events();
  }
  state.counters["sim_events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulatedHourOfHeartbeatsPopulation)
    ->Arg(1000)
    ->Arg(3000)
    ->Unit(benchmark::kMillisecond);

/// The broker's three selection paths: the candidate index
/// (undefended), the defended scan, and the defended scan with econ
/// admission under a deadline/budget contract.
enum class BrokerArm : std::int64_t { kIndex = 0, kDefendedScan = 1, kDefendedEconScan = 2 };

void BM_BrokerSelect(benchmark::State& state) {
  // One 16-peer petition (the paper's 16-part transmission) through
  // BrokerPeer::select_peers on a booted Table-1 population, economic
  // model. Named BM_BrokerSelect/<clients>/<arm>. Between petitions the world runs one simulated second,
  // untimed: heartbeats keep arriving (the index re-keys what they
  // dirty) and econ assignment hints expire as they would in service.
  const auto clients = static_cast<int>(state.range(0));
  const auto arm = static_cast<BrokerArm>(state.range(1));
  overlay::BrokerConfig config;
  config.reputation.enabled = arm != BrokerArm::kIndex;
  config.econ.enabled = arm == BrokerArm::kDefendedEconScan;
  sim::Simulator sim(1);
  HeartbeatWorld world(sim, clients, config);
  world.broker().set_selection_model(std::make_unique<core::EconomicSchedulingModel>());
  const Seconds period = overlay::ClientConfig{}.heartbeat_interval;
  sim.run_until(2 * period);

  core::SelectionContext ctx;
  ctx.purpose = core::SelectionContext::Purpose::kFileTransfer;
  ctx.payload_size = megabytes(16.0);
  for (auto _ : state) {
    state.PauseTiming();
    sim.run_until(sim.now() + 1.0);
    ctx.now = sim.now();
    if (arm == BrokerArm::kDefendedEconScan) {
      ctx.deadline = ctx.now + 600.0;
      ctx.budget = 50.0;
    }
    state.ResumeTiming();
    const auto selected = world.broker().select_peers(ctx, 16);
    benchmark::DoNotOptimize(selected.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["registered"] = static_cast<double>(world.registered());
}
BENCHMARK(BM_BrokerSelect)
    ->ArgsProduct({{1000, 10000}, {0, 1, 2}})
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
