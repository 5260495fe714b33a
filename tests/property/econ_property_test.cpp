// Economic engine properties.
//
// Zero-perturbation: an enabled-but-unconstrained engine, and a
// disabled engine facing constrained petitions, must both leave the
// pristine selection path bit for bit — end-to-end (same-seed
// deployments running a full scatter distribution resolve identically)
// and at the broker decision layer (non-economic models give the same
// answer whether or not the petition carries deadline/budget the
// pristine path is supposed to ignore).
//
// Admission invariants over randomized candidate sets: re-ranking is
// always a permutation, the feasible prefix matches a recomputed
// appraisal of every candidate, exhausted petitions keep the model's
// order untouched, and the whole thing replays deterministically.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "econ/scored_ranking.hpp"
#include "peerlab/common/check.hpp"
#include "peerlab/core/blind.hpp"
#include "peerlab/core/hybrid.hpp"
#include "peerlab/econ/economy.hpp"
#include "peerlab/planetlab/deployment.hpp"
#include "support/test_seed.hpp"

namespace peerlab::econ {
namespace {

using core::EconObjective;
using core::PeerSnapshot;
using core::SelectionContext;

// ---- end-to-end zero perturbation --------------------------------------

struct WorldOutcome {
  Seconds resolved_at = 0.0;
  double makespan = 0.0;
  bool complete = false;
  std::vector<PeerId> share_peers;
};

/// One scatter distribution in a seeded deployment; `engine_on` flips
/// only BrokerConfig::econ.enabled. Petitions stay unconstrained, so
/// both arms must take the identical pristine path.
WorldOutcome run_world(std::uint64_t seed, bool engine_on) {
  sim::Simulator sim(seed);
  planetlab::DeploymentOptions opts;
  opts.broker.econ.enabled = engine_on;
  planetlab::Deployment dep(sim, opts);
  dep.boot();

  SelectionContext ctx;
  ctx.purpose = SelectionContext::Purpose::kFileTransfer;
  ctx.now = sim.now();
  const auto targets = dep.broker().select_peers(ctx, 3);
  PEERLAB_CHECK_MSG(!targets.empty(), "selection offered nobody");

  WorldOutcome out;
  transport::FileTransferConfig cfg;
  dep.control().files().distribute(megabytes(12.0), 6, targets, cfg,
                                   [&](const overlay::FileService::DistributionResult& r) {
                                     out.resolved_at = sim.now();
                                     out.makespan = r.makespan();
                                     out.complete = r.complete;
                                     for (const auto& share : r.shares) {
                                       out.share_peers.push_back(share.peer);
                                     }
                                   });
  sim.run();
  PEERLAB_CHECK_MSG(dep.broker().econ_engine().petitions() == 0,
                    "unconstrained petitions must never reach the engine");
  return out;
}

class EconZeroPerturbationTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EconZeroPerturbationTest, EnabledEngineUnconstrainedWorldIsByteIdentical) {
  const std::uint64_t seed = GetParam();
  const WorldOutcome off = run_world(seed, /*engine_on=*/false);
  const WorldOutcome on = run_world(seed, /*engine_on=*/true);
  EXPECT_DOUBLE_EQ(off.resolved_at, on.resolved_at) << "seed=" << seed;
  EXPECT_DOUBLE_EQ(off.makespan, on.makespan) << "seed=" << seed;
  EXPECT_EQ(off.complete, on.complete) << "seed=" << seed;
  EXPECT_EQ(off.share_peers, on.share_peers) << "seed=" << seed;
}

TEST_P(EconZeroPerturbationTest, DisabledEngineIgnoresContractsOnPristineModels) {
  // With the engine off, deadlines/budgets riding the wire must change
  // nothing for models that never read them. Fresh worlds per arm keep
  // stateful cursors (blind rotation) comparable.
  const std::uint64_t seed = GetParam();
  for (const bool hybrid : {false, true}) {
    const auto select = [&](bool constrained) {
      sim::Simulator sim(seed);
      planetlab::Deployment dep(sim);
      dep.boot();
      if (hybrid) {
        dep.broker().set_selection_model(std::make_unique<core::HybridModel>());
      }
      SelectionContext ctx;
      ctx.purpose = SelectionContext::Purpose::kFileTransfer;
      ctx.payload_size = megabytes(4.0);
      ctx.now = sim.now();
      if (constrained) {
        ctx.deadline = sim.now() + 120.0;
        ctx.budget = 40.0;
      }
      return dep.broker().select_peers(ctx, 4);
    };
    EXPECT_EQ(select(false), select(true)) << "seed=" << seed << " hybrid=" << hybrid;
  }
}

// ---- randomized admission invariants -----------------------------------

std::vector<PeerSnapshot> random_candidates(sim::Rng& rng, std::size_t n) {
  std::vector<PeerSnapshot> out;
  for (std::size_t i = 0; i < n; ++i) {
    PeerSnapshot p;
    p.peer = PeerId(i + 1);
    p.node = NodeId(i + 1);
    p.cpu_ghz = rng.uniform(0.3, 3.0);
    p.price_per_cpu_second = rng.uniform(0.1, 5.0);
    p.idle = rng.bernoulli(0.6);
    p.queued_tasks = static_cast<int>(rng.uniform_int(0, 4));
    p.active_transfers = static_cast<int>(rng.uniform_int(0, 3));
    p.reputation = rng.uniform(0.2, 1.0);
    out.push_back(p);
  }
  return out;
}

SelectionContext random_contract(sim::Rng& rng) {
  SelectionContext ctx;
  ctx.now = rng.uniform(0.0, 1000.0);
  ctx.purpose = SelectionContext::Purpose::kFileTransfer;
  ctx.payload_size = static_cast<Bytes>(rng.uniform_int(1, 64)) * kMegabyte;
  if (rng.bernoulli(0.7)) ctx.deadline = ctx.now + rng.uniform(1.0, 600.0);
  if (rng.bernoulli(0.7)) ctx.budget = rng.uniform(0.5, 200.0);
  constexpr EconObjective kObjectives[] = {
      EconObjective::kBrokerDefault, EconObjective::kCostOptimise,
      EconObjective::kTimeOptimise, EconObjective::kCostTime, EconObjective::kEfficiency};
  ctx.objective = kObjectives[rng.uniform_int(0, 4)];
  if (!ctx.econ_constrained()) ctx.budget = 10.0;  // keep the petition constrained
  return ctx;
}

class EconAdmissionPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EconAdmissionPropertyTest, AdmissionIsAFeasiblePrefixPermutation) {
  const std::uint64_t seed = GetParam();
  sim::Rng rng(seed);
  EconConfig cfg;
  cfg.enabled = true;
  cfg.pricing.reputation_discount = 0.25;
  EconEngine engine(cfg);
  EconEngine replay(cfg);

  for (int round = 0; round < 50; ++round) {
    const auto candidates = random_candidates(rng, 1 + static_cast<std::size_t>(
                                                       rng.uniform_int(0, 15)));
    const auto ctx = random_contract(rng);
    core::BlindModel model;
    std::vector<PeerId> ranking;
    model.rank_into(candidates, ctx, ranking);
    std::vector<PeerId> before = ranking;
    const auto scored = peerlab::testing::scored_by_rank(candidates, ranking);
    const auto verdict = engine.admit(candidates, scored, ctx, scored.size(), ranking);
    const std::string where = "seed=" + std::to_string(seed) +
                              " round=" + std::to_string(round);

    // Permutation: nothing invented, nothing dropped.
    auto sorted_before = before;
    auto sorted_after = ranking;
    std::sort(sorted_before.begin(), sorted_before.end());
    std::sort(sorted_after.begin(), sorted_after.end());
    EXPECT_EQ(sorted_before, sorted_after) << where;

    // Feasible prefix: the first `feasible` entries appraise feasible,
    // the rest infeasible, and the counts add up.
    EXPECT_EQ(verdict.appraised, before.size()) << where;
    EXPECT_LE(verdict.feasible, verdict.appraised) << where;
    EXPECT_EQ(verdict.exhausted, verdict.feasible == 0 || before.empty()) << where;
    for (std::size_t i = 0; i < ranking.size(); ++i) {
      const auto& snap = candidates[ranking[i].value() - 1];
      const bool want_feasible = !verdict.exhausted && i < verdict.feasible;
      if (verdict.exhausted) {
        EXPECT_FALSE(engine.appraise(snap, ctx).feasible()) << where << " rank=" << i;
      } else {
        EXPECT_EQ(engine.appraise(snap, ctx).feasible(), want_feasible)
            << where << " rank=" << i;
      }
    }

    // Exhausted petitions keep the model's order untouched.
    if (verdict.exhausted) {
      EXPECT_EQ(ranking, before) << where;
    }

    // Deterministic replay: an identical engine makes identical calls.
    std::vector<PeerId> ranking2;
    (void)replay.admit(candidates, scored, ctx, scored.size(), ranking2);
    EXPECT_EQ(ranking, ranking2) << where;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EconZeroPerturbationTest,
                         ::testing::Range(peerlab::testing::test_seed(),
                                          peerlab::testing::test_seed() + 6));

INSTANTIATE_TEST_SUITE_P(Seeds, EconAdmissionPropertyTest,
                         ::testing::Range(peerlab::testing::test_seed(),
                                          peerlab::testing::test_seed() + 8));

}  // namespace
}  // namespace peerlab::econ
