#include "peerlab/experiments/churn.hpp"

#include <string>
#include <utility>

#include "peerlab/common/check.hpp"

namespace peerlab::experiments {

namespace {

using overlay::FileService;
using planetlab::Deployment;
using transport::FileTransferConfig;

struct ChurnRun {
  double makespan = 0.0;
  double failovers = 0.0;
  double crashes = 0.0;
  double elections = 0.0;
  double deltas_streamed = 0.0;
  bool complete = false;
};

/// One seeded world, one model, one churn level: boot, build enough
/// broker history for the history-driven models, arm the churn plan,
/// then scatter the file with failover enabled and run to completion.
/// Every world carries one standby broker replicating the primary;
/// with `crash_broker` the primary is crashed kBrokerCrashDelay after
/// the distribution starts, so completion must come through election +
/// re-homing. With options.metrics set, the run's instruments fold
/// into the shared registry under a per-model (and per-arm) suffix;
/// the churn plan installed mid-run attaches itself through the
/// deployment's remembered registry.
ChurnRun churn_run(const RunOptions& options, Repetition& rep, Model model, int level,
                   bool crash_broker) {
  planetlab::DeploymentOptions dep_options;
  dep_options.standby_brokers = 1;
  World world(options, rep.seed, dep_options);
  sim::Simulator& sim = world.sim();
  Deployment& dep = world.dep();
  const std::string name = kModelNames[static_cast<int>(model)];
  const std::string arm = crash_broker ? ".broker-crash" : "";
  world.observe(rep, name + "." + kChurnLabels[level] + arm);
  dep.boot();

  // Warm-up: one small transfer + chat per SC, serially, so the
  // broker's history ranks every peer (the quick-peer model freezes
  // that impression, the data evaluator keeps updating it).
  FileTransferConfig warm = failover_transfer();
  warm.file_size = megabytes(2.0);
  warm.parts = 2;
  world.warm_up(warm, /*rounds=*/1, /*spacing=*/300.0);

  // Both brokers get the model: the standby's copy binds to its own
  // (replicated) history, so a post-failover selection judges peers on
  // the warm-up record the primary streamed over — not on cold state.
  // This matters most for quick-peer, which freezes its ranking at
  // construction from whatever history it is handed.
  world.bind(model);

  // Churn window: covers selection and the whole distribution. Client
  // nodes churn per the MTTF/MTTR renewal plan; in the broker-crash
  // arm the primary additionally dies for good shortly after the
  // distribution starts (the selection phase below runs a fixed 300 s
  // window, so the distribution start time is deterministic).
  const Seconds distribution_start = sim.now() + 300.0;
  net::FaultPlan plan;
  if (kChurnMttf[level] > 0.0) {
    sim::Rng churn_rng = sim.rng().fork(0xC4A54ull);
    plan = net::FaultPlan::random_churn(churn_rng, dep.client_nodes(), kChurnMttf[level],
                                        kChurnMttr, sim.now(), sim.now() + 6000.0);
  }
  if (crash_broker) {
    net::FaultPlan broker_kill;
    broker_kill.crash_forever(distribution_start + kBrokerCrashDelay, dep.broker().node());
    plan.merge(broker_kill);
  }
  if (!plan.empty()) dep.install_faults(std::move(plan));

  // Broker-mediated selection of the initial share holders.
  core::SelectionContext ctx;
  ctx.purpose = core::SelectionContext::Purpose::kFileTransfer;
  ctx.payload_size = kChurnFileSize;
  ctx.trace = world.root();
  const World::Selection selection = world.select(ctx, kChurnFanout, /*window=*/300.0);

  ChurnRun run;
  bool done = false;
  dep.control().files().distribute(
      kChurnFileSize, kChurnParts, selection.peers, failover_transfer(),
      [&](const FileService::DistributionResult& result) {
        run.makespan = result.makespan();
        run.failovers = static_cast<double>(result.failovers);
        run.complete = result.complete;
        done = true;
      },
      failover_options());
  world.run();
  PEERLAB_CHECK_MSG(done, "churn distribution never resolved");
  if (crash_broker) {
    // A fast distribution can outrun the crash+detection window; keep
    // the clock moving a little so the election always happens and the
    // arm's replica metrics mean the same thing in every cell.
    world.run_until(sim.now() + kBrokerElectionGrace);
  }
  if (dep.faults() != nullptr) {
    run.crashes = static_cast<double>(dep.faults()->crashes_applied());
  }
  if (dep.replicas() != nullptr) {
    run.elections = static_cast<double>(dep.replicas()->elections());
    run.deltas_streamed = static_cast<double>(dep.replicas()->deltas_streamed());
  }
  world.finish("." + name + arm);
  return run;
}

}  // namespace

ChurnResult run_bench_churn(const RunOptions& options) {
  struct CellRuns {
    ChurnRun base;
    ChurnRun broker;
  };
  using Rep = std::array<std::array<CellRuns, kChurnLevels>, 3>;
  const auto reps = run_repetitions<Rep>(options, [&options](Repetition& r) {
    Rep rep;
    for (int m = 0; m < 3; ++m) {
      for (int level = 0; level < kChurnLevels; ++level) {
        // Same seed across models, levels and arms: identical worlds
        // and — per level — identical client fault plans, so the two
        // arms only diverge at the broker-crash instant and the
        // per-seed makespan difference isolates the cost of losing
        // the broker.
        auto& cell = rep[static_cast<std::size_t>(m)][static_cast<std::size_t>(level)];
        cell.base = churn_run(options, r, static_cast<Model>(m), level, /*crash_broker=*/false);
        cell.broker = churn_run(options, r, static_cast<Model>(m), level, /*crash_broker=*/true);
      }
    }
    return rep;
  });

  ChurnResult result;
  for (const auto& rep : reps) {
    for (std::size_t m = 0; m < 3; ++m) {
      for (std::size_t level = 0; level < kChurnLevels; ++level) {
        ChurnCell& cell = result.cells[m][level];
        const CellRuns& runs = rep[m][level];
        cell.makespan.add(runs.base.makespan);
        cell.failovers.add(runs.base.failovers);
        cell.crashes.add(runs.base.crashes);
        cell.complete_runs += runs.base.complete ? 1 : 0;
        ++cell.runs;
        cell.broker_makespan.add(runs.broker.makespan);
        cell.broker_penalty.add(runs.broker.makespan - runs.base.makespan);
        cell.broker_elections.add(runs.broker.elections);
        cell.broker_complete_runs += runs.broker.complete ? 1 : 0;
        ++cell.broker_runs;
      }
    }
  }
  return result;
}

}  // namespace peerlab::experiments
