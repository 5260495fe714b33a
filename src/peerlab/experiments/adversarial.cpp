#include "peerlab/experiments/adversarial.hpp"

#include <string>
#include <utility>
#include <vector>

#include "peerlab/adversary/behavior_plan.hpp"
#include "peerlab/common/check.hpp"

namespace peerlab::experiments {

namespace {

using overlay::FileService;
using planetlab::Deployment;
using transport::FileTransferConfig;

struct AdvRun {
  double makespan = 0.0;
  double failovers = 0.0;
  double refusals = 0.0;
  double lies = 0.0;
  double quarantines = 0.0;
  bool complete = false;
};

/// One seeded world, one model, one adversary count, one defense
/// posture. Adversaries are armed *before* boot: the leech refuses
/// (and lies) from the first heartbeat, so the warm-up phase below is
/// also the evidence window the defended broker learns from. The
/// adversary subset is drawn from a forked stream, so the same seed
/// scripts the same peers in both arms and the cells differ only in
/// the broker's defense posture.
AdvRun adversarial_run(const RunOptions& options, Repetition& rep, int model, int level,
                       bool defended) {
  planetlab::DeploymentOptions dep_options;
  if (defended) dep_options.broker.reputation = adversarial_defense_config();
  World world(options, rep.seed, dep_options);
  sim::Simulator& sim = world.sim();
  Deployment& dep = world.dep();
  const std::string name = kAdvModelNames[model];
  const std::string posture = defended ? ".defended" : "";
  world.observe(rep, name + "." + kAdvLabels[level] + posture);

  if (kAdvCounts[level] > 0) {
    std::vector<PeerId> pool;
    for (int i = 1; i <= 8; ++i) pool.push_back(dep.sc_peer(i));
    sim::Rng pick = sim.rng().fork(0x5E1EC7ull);
    pick.shuffle(pool);
    adversary::BehaviorPlan plan;
    for (int i = 0; i < kAdvCounts[level]; ++i) {
      plan.free_rider(pool[static_cast<std::size_t>(i)]);
      plan.stats_liar(pool[static_cast<std::size_t>(i)], kAdvPraisePerHeartbeat,
                      kAdvFabricatedRate);
    }
    dep.install_adversaries(std::move(plan));
  }
  dep.boot();

  // Warm-up: one small transfer + chat per SC, serially, so the broker
  // has a record for every peer. Transfers towards leeches fail here
  // ("petition unanswered"), which is exactly the attributed evidence
  // the defended broker ranks on later.
  FileTransferConfig warm = failover_transfer();
  warm.file_size = megabytes(2.0);
  warm.parts = 2;
  world.warm_up(warm, /*rounds=*/1, /*spacing=*/300.0);
  world.bind(static_cast<Model>(model));

  // Broker-mediated selection of the initial share holders.
  core::SelectionContext ctx;
  ctx.purpose = core::SelectionContext::Purpose::kFileTransfer;
  ctx.payload_size = kAdvFileSize;
  ctx.trace = world.root();
  const World::Selection selection = world.select(ctx, kAdvFanout, /*window=*/300.0);

  AdvRun run;
  bool done = false;
  dep.control().files().distribute(
      kAdvFileSize, kAdvParts, selection.peers, failover_transfer(),
      [&](const FileService::DistributionResult& result) {
        run.makespan = result.makespan();
        run.failovers = static_cast<double>(result.failovers);
        run.complete = result.complete;
        done = true;
      },
      failover_options());
  world.run();
  PEERLAB_CHECK_MSG(done, "adversarial distribution never resolved");
  if (dep.adversaries() != nullptr) {
    run.refusals = static_cast<double>(dep.adversaries()->refusals_decided());
  }
  if (dep.broker().defenses_enabled()) {
    run.lies = static_cast<double>(dep.broker().reputation().lies_recorded());
    run.quarantines = static_cast<double>(dep.broker().reputation().quarantines_imposed());
  }
  world.finish("." + name + posture);
  return run;
}

}  // namespace

overlay::ReputationConfig adversarial_defense_config() {
  overlay::ReputationConfig config;
  config.enabled = true;
  // Warm-up evidence is gathered ~40 simulated minutes before the
  // distribution's selection; a slow decay keeps it ranking, and the
  // quarantine window outlasts the whole run (a leech that lies every
  // heartbeat re-arms it anyway).
  config.decay_half_life = 4.0 * 3600.0;
  config.quarantine_duration = 4.0 * 3600.0;
  return config;
}

AdversarialResult run_bench_adversarial(const RunOptions& options) {
  struct CellRuns {
    AdvRun off;
    AdvRun on;
  };
  using Rep = std::array<std::array<CellRuns, kAdvLevels>, kAdvModels>;
  const auto reps = run_repetitions<Rep>(options, [&options](Repetition& r) {
    Rep rep;
    for (int m = 0; m < kAdvModels; ++m) {
      for (int level = 0; level < kAdvLevels; ++level) {
        // Same seed across models, levels and arms: identical worlds
        // and identical adversary subsets, so each pair isolates the
        // defense posture and each column the adversary pressure.
        auto& cell = rep[static_cast<std::size_t>(m)][static_cast<std::size_t>(level)];
        cell.off = adversarial_run(options, r, m, level, /*defended=*/false);
        cell.on = adversarial_run(options, r, m, level, /*defended=*/true);
      }
    }
    return rep;
  });

  AdversarialResult result;
  for (const auto& rep : reps) {
    for (std::size_t m = 0; m < kAdvModels; ++m) {
      for (std::size_t level = 0; level < kAdvLevels; ++level) {
        AdversarialCell& cell = result.cells[m][level];
        const CellRuns& runs = rep[m][level];
        const auto fold = [](AdversarialArm& arm, const AdvRun& run) {
          arm.makespan.add(run.makespan);
          arm.failovers.add(run.failovers);
          arm.refusals.add(run.refusals);
          arm.lies_caught.add(run.lies);
          arm.quarantines.add(run.quarantines);
          arm.complete_runs += run.complete ? 1 : 0;
          ++arm.runs;
        };
        fold(cell.undefended, runs.off);
        fold(cell.defended, runs.on);
      }
    }
  }
  return result;
}

}  // namespace peerlab::experiments
