// Engine microbenchmarks (google-benchmark): event queue, simulator
// loop, RNG draws, fluid flow scheduler recomputation — the hot paths
// every figure experiment runs through.

#include <benchmark/benchmark.h>

#include "peerlab/net/flow_scheduler.hpp"
#include "peerlab/sim/simulator.hpp"

namespace {

using namespace peerlab;

void BM_EventQueuePushPop(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::EventQueue queue;
    for (int i = 0; i < n; ++i) {
      queue.push(static_cast<double>((i * 7919) % 1000), [] {});
    }
    while (!queue.empty()) {
      benchmark::DoNotOptimize(queue.pop().time);
    }
  }
  state.SetItemsProcessed(state.iterations() * n * 2);
}
BENCHMARK(BM_EventQueuePushPop)->Arg(1 << 8)->Arg(1 << 12)->Arg(1 << 16);

void BM_EventQueuePeriodicTimers(benchmark::State& state) {
  // An overlay's steady state: n daemon heartbeat timers on a 30 s
  // period, each pushed again when it fires, beside n/8 scheduled events
  // 300 s to an hour out, each replaced when it fires. One iteration is
  // one period's worth of pops and re-pushes.
  const auto n = static_cast<int>(state.range(0));
  sim::EventQueue queue;
  bool timer = false;
  const auto action = [&timer](bool is_timer) { return [&timer, is_timer] { timer = is_timer; }; };
  for (int i = 0; i < n; ++i) queue.push(30.0 * i / n, action(true), /*daemon=*/true);
  for (int i = 0; i < n / 8; ++i) queue.push(300.0 + 3300.0 * i / (n / 8), action(false));
  std::uint64_t step = 0;
  for (auto _ : state) {
    for (int i = 0; i < n; ++i) {
      auto fired = queue.pop();
      fired.action();
      if (timer) {
        queue.push(fired.time + 30.0, std::move(fired.action), true);
      } else {
        queue.push(fired.time + 300.0 + static_cast<double>((++step * 7919) % 3300),
                   std::move(fired.action));
      }
    }
  }
  benchmark::DoNotOptimize(queue.size());
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueuePeriodicTimers)->Arg(1 << 8)->Arg(1 << 12)->Arg(1 << 15);

void BM_SimulatorEventChain(benchmark::State& state) {
  const auto hops = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim(1);
    int remaining = hops;
    std::function<void()> hop = [&] {
      if (--remaining > 0) sim.schedule(0.001, hop);
    };
    sim.schedule(0.001, hop);
    sim.run();
    benchmark::DoNotOptimize(sim.now());
  }
  state.SetItemsProcessed(state.iterations() * hops);
}
BENCHMARK(BM_SimulatorEventChain)->Arg(1 << 10)->Arg(1 << 14);

void BM_RngLognormal(benchmark::State& state) {
  sim::Rng rng(42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.lognormal_mean(12.86, 0.25));
  }
}
BENCHMARK(BM_RngLognormal);

void BM_RngFork(benchmark::State& state) {
  sim::Rng rng(42);
  std::uint64_t stream = 0;
  for (auto _ : state) {
    sim::Rng forked = rng.fork(++stream);
    benchmark::DoNotOptimize(forked.uniform());
  }
}
BENCHMARK(BM_RngFork);

void BM_FlowSchedulerChurn(benchmark::State& state) {
  const auto flows = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulator sim(1);
    net::Topology topo(sim.rng().fork(1));
    std::vector<NodeId> nodes;
    for (int i = 0; i <= flows; ++i) {
      net::NodeProfile p;
      p.hostname = "n" + std::to_string(i);
      p.uplink_mbps = 100.0;
      p.downlink_mbps = 10.0;
      nodes.push_back(topo.add_node(p));
    }
    net::FlowScheduler scheduler(sim, topo);
    state.ResumeTiming();
    // One source fanning out to `flows` sinks: every start triggers a
    // full max-min recomputation over the active set.
    for (int i = 0; i < flows; ++i) {
      net::FlowSpec spec;
      spec.src = nodes[0];
      spec.dst = nodes[static_cast<std::size_t>(i + 1)];
      spec.size = megabytes(1.0);
      spec.on_complete = [](Seconds) {};
      benchmark::DoNotOptimize(scheduler.start(std::move(spec)));
    }
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * flows);
}
BENCHMARK(BM_FlowSchedulerChurn)->Arg(4)->Arg(16)->Arg(64);

void BM_FlowSchedulerLocality(benchmark::State& state) {
  // Many-component topology: `pairs` disjoint long-lived flows, each
  // on its own (src, dst) pair, plus one dedicated pair churned in the
  // timed loop. Incremental re-levelling only touches the dedicated
  // pair's component, so throughput should be flat in `pairs`; the
  // old global recompute degraded linearly.
  const auto pairs = static_cast<int>(state.range(0));
  sim::Simulator sim(1);
  net::Topology topo(sim.rng().fork(1));
  std::vector<NodeId> srcs, dsts;
  for (int i = 0; i <= pairs; ++i) {
    net::NodeProfile p;
    p.hostname = "s" + std::to_string(i);
    p.uplink_mbps = 100.0;
    p.downlink_mbps = 10.0;
    srcs.push_back(topo.add_node(p));
    p.hostname = "d" + std::to_string(i);
    dsts.push_back(topo.add_node(p));
  }
  net::FlowScheduler scheduler(sim, topo);
  for (int i = 1; i <= pairs; ++i) {
    net::FlowSpec spec;
    spec.src = srcs[static_cast<std::size_t>(i)];
    spec.dst = dsts[static_cast<std::size_t>(i)];
    spec.size = megabytes(1e8);  // outlives any realistic iteration count
    spec.on_complete = [](Seconds) {};
    scheduler.start(std::move(spec));
  }
  for (auto _ : state) {
    // One full transfer on the dedicated pair per iteration: the start
    // and the completion each re-level only that pair's component
    // while the `pairs` background components stay live. 1 MB at the
    // pair's 10 Mbit/s downlink bottleneck completes in 0.8 s.
    net::FlowSpec spec;
    spec.src = srcs[0];
    spec.dst = dsts[0];
    spec.size = megabytes(1.0);
    spec.on_complete = [](Seconds) {};
    benchmark::DoNotOptimize(scheduler.start(std::move(spec)));
    sim.run_until(sim.now() + 0.9);
  }
  state.SetItemsProcessed(state.iterations() * 2);  // start + completion
}
BENCHMARK(BM_FlowSchedulerLocality)->Arg(16)->Arg(64)->Arg(256);

}  // namespace

BENCHMARK_MAIN();
