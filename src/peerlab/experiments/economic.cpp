#include "peerlab/experiments/economic.hpp"

#include <string>
#include <vector>

#include "peerlab/common/check.hpp"

namespace peerlab::experiments {

namespace {

using planetlab::Deployment;
using transport::FileTransferConfig;
using transport::TransferResult;

struct EconRunCell {
  econ::Ledger ledger;
  sim::Summary cost;
  sim::Summary completion_time;
};

/// The model each arm binds. Blind (arm 0) and efficiency (arm 4)
/// both rank blind; arm 4's contracts carry the kEfficiency objective
/// so the engine re-orders the rotation by the Dubey–Tokekar score.
constexpr Model kArmModel[kEconModels] = {Model::kBlind, Model::kEconomic, Model::kQuickPeer,
                                          Model::kHybrid, Model::kBlind};

/// One seeded world, one selection arm, one load level. The same seed
/// builds the same world for every arm, so columns isolate the policy.
EconRunCell economic_run(const RunOptions& options, Repetition& rep, int model, int load) {
  planetlab::DeploymentOptions dep_options;
  // Fast heartbeats for every arm: under heavy load the informed
  // models only spread away from busy peers if the broker's snapshots
  // reflect backlog on the timescale jobs arrive.
  dep_options.client.heartbeat_interval = 5.0;
  const bool engine_on = model != 0;  // blind is the pristine baseline
  if (engine_on) dep_options.broker.econ = economic_engine_config();
  World world(options, rep.seed, dep_options);
  sim::Simulator& sim = world.sim();
  Deployment& dep = world.dep();
  const std::string arm = std::string(kEconModelNames[model]) + "." + kEconLoadLabels[load];
  world.observe(rep, arm);
  dep.boot();

  // Warm-up: one small transfer + chat per SC, serially, so the
  // estimators (and quick-peer's response-time ranking) have a record
  // for every peer before any contract is issued.
  FileTransferConfig warm;
  warm.file_size = megabytes(2.0);
  warm.parts = 2;
  world.warm_up(warm, /*rounds=*/1, /*spacing=*/300.0);
  world.bind(kArmModel[model]);

  // One quoter prices every arm's picks on the identical schedule the
  // engine-enabled brokers shopped from, so ledger costs compare
  // across arms (including blind, whose broker never quotes at all).
  const econ::EconEngine quoter(economic_engine_config());

  EconRunCell cell;
  int done = 0;
  const Seconds first_launch = sim.now() + 10.0;
  for (int j = 0; j < kEconJobs; ++j) {
    const Seconds launch = first_launch + static_cast<double>(j) * kEconSpacing[load];
    sim.schedule_at(launch, [&, model] {
      const Seconds issued = sim.now();
      core::SelectionContext ctx;
      ctx.now = issued;
      ctx.purpose = core::SelectionContext::Purpose::kFileTransfer;
      ctx.payload_size = kEconPayload;
      ctx.deadline = issued + kEconDeadlineSlack;
      ctx.budget = kEconBudget;
      if (model == 4) ctx.objective = core::EconObjective::kEfficiency;
      ctx.trace = world.root();
      dep.control().request_selection(ctx, 1, [&, ctx, issued](std::vector<PeerId> peers) {
        if (peers.empty()) {
          cell.ledger.record({ctx.deadline, ctx.budget, 0.0, 0.0, false});
          ++done;
          return;
        }
        const PeerId winner = peers.front();
        // Price the pick at decision time from the broker's own view.
        double quoted = 0.0;
        for (const auto& snap : dep.broker().snapshot_group()) {
          if (snap.peer == winner) {
            quoted = quoter.appraise(snap, ctx).cost;
            break;
          }
        }
        FileTransferConfig cfg;
        cfg.file_size = kEconPayload;
        cfg.parts = 4;
        cfg.trace = ctx.trace;
        dep.control().files().send_file(
            winner, cfg, [&, ctx, issued, quoted](const TransferResult& result) {
              cell.ledger.record(
                  {ctx.deadline, ctx.budget, result.finished, quoted, result.complete});
              cell.cost.add(quoted);
              if (result.complete) cell.completion_time.add(result.finished - issued);
              ++done;
            });
      });
    });
  }
  world.run();
  PEERLAB_CHECK_MSG(done == kEconJobs, "economic job never resolved");
  world.finish("." + arm);
  return cell;
}

}  // namespace

econ::EconConfig economic_engine_config() {
  econ::EconConfig config;
  config.enabled = true;
  return config;
}

EconResult run_bench_economic(const RunOptions& options) {
  using Rep = std::array<std::array<EconRunCell, kEconLoads>, kEconModels>;
  const auto reps = run_repetitions<Rep>(options, [&options](Repetition& r) {
    Rep rep;
    for (int m = 0; m < kEconModels; ++m) {
      for (int load = 0; load < kEconLoads; ++load) {
        rep[static_cast<std::size_t>(m)][static_cast<std::size_t>(load)] =
            economic_run(options, r, m, load);
      }
    }
    return rep;
  });

  EconResult result;
  for (const auto& rep : reps) {
    for (std::size_t m = 0; m < kEconModels; ++m) {
      for (std::size_t load = 0; load < kEconLoads; ++load) {
        EconArm& arm = result.cells[m][load];
        const EconRunCell& cell = rep[m][load];
        arm.ledger.merge(cell.ledger);
        arm.cost.merge(cell.cost);
        arm.completion_time.merge(cell.completion_time);
        ++arm.runs;
      }
    }
  }
  return result;
}

}  // namespace peerlab::experiments
