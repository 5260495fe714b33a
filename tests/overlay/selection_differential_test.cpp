// Broker-level selection equivalence under churn and adversarial
// stats interleavings, plus the failover-rebuild pin: a broker whose
// candidate index answered from incremental state must return exactly
// what the frozen scan reference computes from snapshot_group(), for
// all five models, across ≥ 24 seeds — and an index rebuilt from
// adopted (replicated) state must keep that property.
//
// Two more arms pin the broker's scan path, which serves every
// defended or econ-constrained petition from a reused snapshot buffer,
// memoized history means and the engine's positional admission:
// defended brokers (reputation penalty, quarantine excludes, the lift
// fallback) and econ-enabled brokers under random contracts and
// objectives, the latter also against the frozen admission in
// tests/econ/econ_reference.hpp.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <vector>

#include "core/selection_reference.hpp"
#include "econ/econ_reference.hpp"
#include "overlay/overlay_world.hpp"
#include "peerlab/core/blind.hpp"
#include "peerlab/core/data_evaluator.hpp"
#include "peerlab/core/economic.hpp"
#include "peerlab/core/hybrid.hpp"
#include "peerlab/core/user_preference.hpp"
#include "support/test_seed.hpp"

namespace peerlab::overlay {
namespace {

using testing::OverlayWorld;
using testing::WorldOptions;

constexpr int kSeeds = 24;
constexpr int kClients = 8;

enum class ModelChoice { kBlind, kEconomic, kEvaluator, kUserPreference, kHybrid };

struct RefSet {
  std::unique_ptr<peerlab::testing::ReferenceBlind> blind;
  std::unique_ptr<peerlab::testing::ReferenceEconomic> economic;
  std::unique_ptr<peerlab::testing::ReferenceEvaluator> evaluator;
  std::unique_ptr<peerlab::testing::ReferenceUserPreference> preference;
  std::unique_ptr<peerlab::testing::ReferenceHybrid> hybrid;
};

void install(ModelChoice choice, BrokerPeer& broker, RefSet& refs) {
  switch (choice) {
    case ModelChoice::kBlind:
      broker.set_selection_model(std::make_unique<core::BlindModel>());
      refs.blind = std::make_unique<peerlab::testing::ReferenceBlind>();
      break;
    case ModelChoice::kEconomic:
      broker.set_selection_model(std::make_unique<core::EconomicSchedulingModel>());
      refs.economic = std::make_unique<peerlab::testing::ReferenceEconomic>();
      break;
    case ModelChoice::kEvaluator:
      broker.set_selection_model(
          std::make_unique<core::DataEvaluatorModel>(core::DataEvaluatorModel::same_priority()));
      refs.evaluator = std::make_unique<peerlab::testing::ReferenceEvaluator>(
          peerlab::testing::ReferenceEvaluator::same_priority());
      break;
    case ModelChoice::kUserPreference: {
      std::vector<PeerId> order;
      for (int i = kClients; i >= 1; --i) order.push_back(peer_of(NodeId(i + 1)));
      broker.set_selection_model(std::make_unique<core::UserPreferenceModel>(order));
      refs.preference = std::make_unique<peerlab::testing::ReferenceUserPreference>(order);
      break;
    }
    case ModelChoice::kHybrid:
      broker.set_selection_model(std::make_unique<core::HybridModel>());
      refs.hybrid = std::make_unique<peerlab::testing::ReferenceHybrid>();
      break;
  }
}

std::vector<PeerId> reference_select(ModelChoice choice, RefSet& refs,
                                     std::span<const core::PeerSnapshot> snaps,
                                     const core::SelectionContext& ctx, std::size_t k) {
  switch (choice) {
    case ModelChoice::kBlind:
      return peerlab::testing::ref_select_k(*refs.blind, snaps, ctx, k);
    case ModelChoice::kEconomic:
      return peerlab::testing::ref_select_k(*refs.economic, snaps, ctx, k);
    case ModelChoice::kEvaluator:
      return peerlab::testing::ref_select_k(*refs.evaluator, snaps, ctx, k);
    case ModelChoice::kUserPreference:
      return peerlab::testing::ref_select_k(*refs.preference, snaps, ctx, k);
    default:
      return peerlab::testing::ref_select_k(*refs.hybrid, snaps, ctx, k);
  }
}

/// Adversary-flavoured delta: failures, self-praise-looking bursts,
/// zero-work tasks, queue-sample spoofing. With defenses off the
/// broker applies it wholesale — the index must track it all the same.
StatsDelta fuzz_delta(std::mt19937_64& rng, PeerId subject, Seconds now) {
  StatsDelta delta;
  delta.subject = subject;
  delta.msg_ok = static_cast<int>(rng() % 4);
  delta.msg_fail = static_cast<int>(rng() % 3);
  delta.exec_ok = static_cast<int>(rng() % 3);
  delta.exec_fail = static_cast<int>(rng() % 2);
  delta.file_done = static_cast<int>(rng() % 2);
  delta.file_fail = static_cast<int>(rng() % 2);
  if (rng() % 2 == 0) delta.outbox_sample = static_cast<double>(rng() % 30);
  if (rng() % 2 == 0) delta.inbox_sample = static_cast<double>(rng() % 30);
  if (rng() % 2 == 0) delta.pending_transfers = static_cast<int>(rng() % 5);
  if (rng() % 3 == 0) {
    delta.response_times.push_back(0.01 + 0.005 * static_cast<double>(rng() % 200));
  }
  if (rng() % 3 == 0) {
    stats::TaskRecord record;
    record.task = TaskId(rng() % 512 + 1);
    record.peer = subject;
    record.submitted = now;
    record.started = now + 0.5;
    record.finished = now + 0.5 + 0.25 * static_cast<double>(rng() % 60 + 1);
    record.ok = (rng() % 3) != 0;
    record.work = 0.25 * static_cast<double>(rng() % 30 + 1);
    delta.task_records.push_back(record);
  }
  if (rng() % 3 == 0) {
    stats::TransferRecord record;
    record.transfer = TransferId(rng() % 512 + 1);
    record.peer = subject;
    record.size = static_cast<Bytes>(rng() % 2048 + 32) * 1024;
    record.duration = 0.25 + 0.05 * static_cast<double>(rng() % 200);
    record.petition_time = now;
    record.ok = (rng() % 4) != 0;
    delta.transfer_records.push_back(record);
  }
  return delta;
}

core::SelectionContext fuzz_context(std::mt19937_64& rng, Seconds now, bool allow_excludes) {
  core::SelectionContext ctx;
  ctx.now = now;
  if (rng() % 2 == 0) ctx.work = 0.5 * static_cast<double>(rng() % 30);
  if (rng() % 2 == 0) ctx.payload_size = static_cast<Bytes>(rng() % 4096) * 1024;
  if (allow_excludes && rng() % 3 == 0) {
    const int n = static_cast<int>(rng() % 4);
    for (int i = 0; i < n; ++i) {
      ctx.exclude.push_back(peer_of(NodeId(static_cast<std::uint64_t>(rng() % kClients) + 2)));
    }
  }
  return ctx;
}

void run_world(ModelChoice choice, std::uint64_t seed) {
  WorldOptions options;
  options.clients = kClients;
  options.seed = seed;
  OverlayWorld world(options);
  world.boot(2.0);
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + 1);

  RefSet refs;
  install(choice, *world.broker, refs);
  ASSERT_TRUE(world.broker->index_active());

  const bool allow_excludes = choice != ModelChoice::kBlind;
  int compared = 0;
  Seconds t = world.sim.now();
  for (int step = 0; step < 120; ++step) {
    // Churn: stop/start a client so heartbeats lapse and peers fall
    // off the liveness horizon mid-run.
    if (rng() % 10 == 0) {
      auto& client = world.client(rng() % kClients);
      if (rng() % 2 == 0) {
        client.stop();
      } else {
        client.start();
      }
    }
    if (rng() % 2 == 0) {
      const PeerId subject = peer_of(NodeId(static_cast<std::uint64_t>(rng() % kClients) + 2));
      world.broker->apply_stats(fuzz_delta(rng, subject, world.sim.now()));
    }
    t += 5.0 + static_cast<double>(rng() % 40);
    world.sim.run_until(t);
    if (rng() % 2 == 0) {
      const auto ctx = fuzz_context(rng, world.sim.now(), allow_excludes);
      const std::size_t k = rng() % 4 + 1;
      const auto snaps = world.broker->snapshot_group();
      const auto got = world.broker->select_peers(ctx, k);
      const auto want = reference_select(choice, refs, snaps, ctx, k);
      ASSERT_EQ(got, want) << "seed=" << seed << " step=" << step
                           << " model=" << static_cast<int>(choice);
      ++compared;
    }
  }
  ASSERT_GT(compared, 10) << "seed=" << seed;
  // The petitions above must have been answered by the index, not by
  // silent fallback to the scan.
  EXPECT_GT(world.broker->candidate_index().fast_path_selections(), 0u) << "seed=" << seed;
  EXPECT_EQ(world.broker->candidate_index().scan_fallbacks(), 0u) << "seed=" << seed;
}

void run_model(ModelChoice choice) {
  const std::uint64_t base = peerlab::testing::test_seed();
  for (int i = 0; i < kSeeds; ++i) {
    run_world(choice, base + static_cast<std::uint64_t>(i));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

/// The scan-path arms: which broker defenses and engine are on.
enum class ScanArm { kDefended, kEcon, kDefendedEcon };

/// A random econ contract (or none): deadline, budget and objective
/// each drawn independently, so the engine sees every mix including
/// contracts nothing can meet (exhausted petitions).
void fuzz_contract(std::mt19937_64& rng, core::SelectionContext& ctx) {
  if (rng() % 4 == 0) return;  // unconstrained: the pristine path
  if (rng() % 2 == 0) ctx.deadline = ctx.now + 5.0 + static_cast<double>(rng() % 600);
  if (rng() % 2 == 0) ctx.budget = 0.5 + 0.5 * static_cast<double>(rng() % 200);
  ctx.objective = static_cast<core::EconObjective>(rng() % 5);
  if (!ctx.econ_constrained()) ctx.objective = core::EconObjective::kCostTime;
}

/// The petition the frozen references serve: the defended overlay
/// (penalty weight, quarantine excludes, lift when they empty the
/// candidate set), the model's full ranking, then econ admission.
std::vector<PeerId> reference_serve(ModelChoice choice, RefSet& refs,
                                    peerlab::testing::ReferenceEconEngine* engine,
                                    const BrokerPeer& broker,
                                    std::span<const core::PeerSnapshot> snaps,
                                    const core::SelectionContext& ctx, std::size_t k,
                                    int& lifts) {
  core::SelectionContext effective = ctx;
  const std::size_t base = effective.exclude.size();
  if (broker.defenses_enabled()) {
    effective.reputation_weight = ReputationConfig{}.rank_penalty_weight;
    broker.reputation().append_quarantined(ctx.now, effective.exclude);
  }
  auto ranking = reference_select(choice, refs, snaps, effective, snaps.size());
  if (ranking.empty() && effective.exclude.size() > base) {
    ++lifts;
    effective.exclude.resize(base);
    ranking = reference_select(choice, refs, snaps, effective, snaps.size());
  }
  const bool econ = engine != nullptr && ctx.econ_constrained();
  if (econ) (void)engine->admit_and_rank(snaps, effective, ranking);
  if (ranking.size() > k) ranking.resize(k);
  if (econ) {
    for (const PeerId peer : ranking) engine->note_assignment(peer, ctx.now);
  }
  return ranking;
}

void run_scan_world(ScanArm arm, ModelChoice choice, std::uint64_t seed, int& lifts,
                    int& quarantined_petitions, int& constrained) {
  WorldOptions options;
  options.clients = kClients;
  options.seed = seed;
  options.broker_config.reputation.enabled = arm != ScanArm::kEcon;
  options.broker_config.econ.enabled = arm != ScanArm::kDefended;
  OverlayWorld world(options);
  world.boot(2.0);
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + 7);

  RefSet refs;
  install(choice, *world.broker, refs);
  std::unique_ptr<peerlab::testing::ReferenceEconEngine> engine;
  if (options.broker_config.econ.enabled) {
    engine = std::make_unique<peerlab::testing::ReferenceEconEngine>(options.broker_config.econ);
  }

  const bool allow_excludes = choice != ModelChoice::kBlind;
  Seconds t = world.sim.now();
  for (int step = 0; step < 120; ++step) {
    if (rng() % 10 == 0) {
      auto& client = world.client(rng() % kClients);
      if (rng() % 2 == 0) {
        client.stop();
      } else {
        client.start();
      }
    }
    if (rng() % 2 == 0) {
      // Counterparty-attributed outcomes (or, one time in four, a
      // self-report) feed the reputation book on a defended broker.
      const std::uint64_t subject_node = rng() % kClients + 2;
      const std::uint64_t reporter_node = rng() % 4 == 0 ? subject_node : rng() % kClients + 2;
      world.broker->apply_stats(fuzz_delta(rng, peer_of(NodeId(subject_node)), world.sim.now()),
                                peer_of(NodeId(reporter_node)));
    }
    t += 5.0 + static_cast<double>(rng() % 40);
    world.sim.run_until(t);
    if (rng() % 2 != 0) continue;
    auto ctx = fuzz_context(rng, world.sim.now(), allow_excludes);
    if (engine != nullptr) fuzz_contract(rng, ctx);
    std::vector<PeerId> quarantined;
    world.broker->reputation().append_quarantined(ctx.now, quarantined);
    if (!quarantined.empty() && rng() % 3 == 0) {
      // Exclude everyone the quarantine spares: the defended ranking
      // comes up empty and the broker must lift the quarantine.
      ctx.exclude.clear();
      for (int i = 0; i < kClients; ++i) {
        const PeerId peer = peer_of(NodeId(static_cast<std::uint64_t>(i) + 2));
        if (std::find(quarantined.begin(), quarantined.end(), peer) == quarantined.end()) {
          ctx.exclude.push_back(peer);
        }
      }
    }
    quarantined_petitions += quarantined.empty() ? 0 : 1;
    constrained += ctx.econ_constrained() ? 1 : 0;
    const std::size_t k = rng() % 4 + 1;
    const auto snaps = world.broker->snapshot_group();
    const auto got = world.broker->select_peers(ctx, k);
    const auto want = reference_serve(choice, refs, engine.get(), *world.broker, snaps, ctx, k,
                                      lifts);
    ASSERT_EQ(got, want) << "seed=" << seed << " step=" << step
                         << " model=" << static_cast<int>(choice)
                         << " arm=" << static_cast<int>(arm);
  }
}

void run_scan_arm(ScanArm arm) {
  const std::uint64_t base = peerlab::testing::test_seed();
  int lifts = 0;
  int quarantined_petitions = 0;
  int constrained = 0;
  for (const auto choice : {ModelChoice::kBlind, ModelChoice::kEconomic, ModelChoice::kEvaluator,
                            ModelChoice::kUserPreference, ModelChoice::kHybrid}) {
    for (int i = 0; i < kSeeds; ++i) {
      run_scan_world(arm, choice, base + static_cast<std::uint64_t>(i), lifts,
                     quarantined_petitions, constrained);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  // The interesting paths must actually have been taken.
  if (arm != ScanArm::kEcon) {
    EXPECT_GT(quarantined_petitions, 0);
    EXPECT_GT(lifts, 0);
  }
  if (arm != ScanArm::kDefended) EXPECT_GT(constrained, 0);
}

TEST(SelectionDifferential, BlindUnderChurn) { run_model(ModelChoice::kBlind); }
TEST(SelectionDifferential, EconomicUnderChurn) { run_model(ModelChoice::kEconomic); }
TEST(SelectionDifferential, EvaluatorUnderChurn) { run_model(ModelChoice::kEvaluator); }
TEST(SelectionDifferential, UserPreferenceUnderChurn) {
  run_model(ModelChoice::kUserPreference);
}
TEST(SelectionDifferential, HybridUnderChurn) { run_model(ModelChoice::kHybrid); }

/// Failover pin: a broker that adopts replicated state (fresh client
/// registry, statistics map and history store — every cached pointer
/// invalidated) rebuilds its index and keeps answering bit-identically.
TEST(SelectionDifferential, IndexSurvivesAdoptedState) {
  const std::uint64_t base = peerlab::testing::test_seed();
  for (const auto choice :
       {ModelChoice::kEconomic, ModelChoice::kEvaluator, ModelChoice::kHybrid}) {
    const std::uint64_t seed = base + static_cast<std::uint64_t>(choice) * 131;
    WorldOptions options;
    options.clients = kClients;
    options.seed = seed;
    OverlayWorld primary(options);
    primary.boot(2.0);
    std::mt19937_64 rng(seed);
    RefSet primary_refs;
    install(choice, *primary.broker, primary_refs);

    Seconds t = primary.sim.now();
    for (int step = 0; step < 40; ++step) {
      const PeerId subject = peer_of(NodeId(static_cast<std::uint64_t>(rng() % kClients) + 2));
      primary.broker->apply_stats(fuzz_delta(rng, subject, primary.sim.now()));
      t += 10.0;
      primary.sim.run_until(t);
      if (step % 4 == 0) {
        // Exercise the primary's index so the exported state reflects
        // post-selection (window-evicted) statistics.
        const auto ctx = fuzz_context(rng, primary.sim.now(), true);
        (void)primary.broker->select_peers(ctx, 2);
      }
    }

    // Standby world: identical topology, its own broker, no booted
    // clients — everything it knows arrives via adopt_state.
    OverlayWorld standby(options);
    RefSet standby_refs;
    install(choice, *standby.broker, standby_refs);
    standby.broker->adopt_state(primary.broker->export_state());

    const auto snaps = standby.broker->snapshot_group();
    ASSERT_FALSE(snaps.empty());
    for (int petition = 0; petition < 20; ++petition) {
      core::SelectionContext ctx = fuzz_context(rng, standby.sim.now(), true);
      const std::size_t k = rng() % 4 + 1;
      const auto got = standby.broker->select_peers(ctx, k);
      const auto want = reference_select(choice, standby_refs, snaps, ctx, k);
      ASSERT_EQ(got, want) << "seed=" << seed << " petition=" << petition
                           << " model=" << static_cast<int>(choice);
    }
    // The first post-adoption petition flushed a full rebuild, and the
    // answers above came from the rebuilt index.
    EXPECT_GE(standby.broker->candidate_index().rebuilds(), 1u);
    EXPECT_GT(standby.broker->candidate_index().fast_path_selections(), 0u);
  }
}

TEST(SelectionDifferential, DefendedScanMatchesReference) { run_scan_arm(ScanArm::kDefended); }
TEST(SelectionDifferential, EconScanMatchesReference) { run_scan_arm(ScanArm::kEcon); }
TEST(SelectionDifferential, DefendedEconScanMatchesReference) {
  run_scan_arm(ScanArm::kDefendedEcon);
}

/// Engine-level pin: admission over arbitrary (shuffled, so unsorted)
/// candidate spans, with random hints outstanding, matches the frozen
/// admission bit for bit — verdicts and re-ranked orders alike.
TEST(SelectionDifferential, EconAdmissionMatchesReferenceOnShuffledSpans) {
  const std::uint64_t base = peerlab::testing::test_seed();
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t seed = base + static_cast<std::uint64_t>(i);
    std::mt19937_64 rng(seed);
    stats::HistoryStore history;
    const std::size_t n = rng() % 24 + 1;
    std::vector<core::PeerSnapshot> snaps(n);
    for (std::size_t p = 0; p < n; ++p) {
      auto& snap = snaps[p];
      snap.peer = PeerId(rng() % 40 + 1 + 64 * p);
      snap.node = NodeId(p + 2);
      snap.cpu_ghz = 0.5 + 0.25 * static_cast<double>(rng() % 12);
      snap.price_per_cpu_second = 0.25 + 0.25 * static_cast<double>(rng() % 8);
      snap.idle = rng() % 2 == 0;
      snap.queued_tasks = static_cast<int>(rng() % 4);
      snap.active_transfers = static_cast<int>(rng() % 3);
      snap.reputation = 0.25 * static_cast<double>(rng() % 5);
      snap.history = rng() % 5 == 0 ? nullptr : &history;
      for (int r = 0; r < 3; ++r) {
        const auto delta = fuzz_delta(rng, snap.peer, 100.0);
        for (const Seconds rt : delta.response_times) history.record_response_time(snap.peer, rt);
        for (const auto& record : delta.task_records) history.record_task(record);
        for (const auto& record : delta.transfer_records) history.record_transfer(record);
      }
    }
    std::shuffle(snaps.begin(), snaps.end(), rng);

    econ::EconConfig config;
    config.enabled = true;
    config.default_objective = static_cast<core::EconObjective>(rng() % 4 + 1);
    config.pricing.reputation_discount = 0.5;
    econ::EconEngine engine(config);
    peerlab::testing::ReferenceEconEngine reference(config);
    Seconds now = 200.0;
    for (int petition = 0; petition < 12; ++petition) {
      now += static_cast<double>(rng() % 20);
      core::SelectionContext ctx;
      ctx.now = now;
      if (rng() % 2 == 0) ctx.work = 0.5 * static_cast<double>(rng() % 30);
      if (rng() % 2 == 0) ctx.payload_size = static_cast<Bytes>(rng() % 4096) * 1024;
      fuzz_contract(rng, ctx);
      // Any subset of the candidates, in any order, as the model's
      // ranking.
      std::vector<PeerId> ranking;
      for (const auto& snap : snaps) {
        if (rng() % 4 != 0) ranking.push_back(snap.peer);
      }
      std::shuffle(ranking.begin(), ranking.end(), rng);
      auto want = ranking;
      const auto got_verdict = engine.admit_and_rank(snaps, ctx, ranking);
      const auto want_verdict = reference.admit_and_rank(snaps, ctx, want);
      ASSERT_EQ(ranking, want) << "seed=" << seed << " petition=" << petition;
      ASSERT_EQ(got_verdict.appraised, want_verdict.appraised) << "seed=" << seed;
      ASSERT_EQ(got_verdict.feasible, want_verdict.feasible) << "seed=" << seed;
      ASSERT_EQ(got_verdict.exhausted, want_verdict.exhausted) << "seed=" << seed;
      for (std::size_t h = 0; h < std::min<std::size_t>(ranking.size(), 3); ++h) {
        engine.note_assignment(ranking[h], now);
        reference.note_assignment(ranking[h], now);
      }
    }
  }
}

}  // namespace
}  // namespace peerlab::overlay
