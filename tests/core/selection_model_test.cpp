#include "peerlab/core/selection_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <random>
#include <string>

#include "core/selection_reference.hpp"
#include "peerlab/core/blind.hpp"
#include "peerlab/core/data_evaluator.hpp"
#include "peerlab/core/economic.hpp"
#include "peerlab/core/hybrid.hpp"
#include "peerlab/core/user_preference.hpp"
#include "support/test_seed.hpp"

namespace peerlab::core {
namespace {

std::vector<PeerSnapshot> three_peers() {
  std::vector<PeerSnapshot> peers(3);
  for (std::size_t i = 0; i < 3; ++i) {
    peers[i].peer = PeerId(i + 1);
    peers[i].node = NodeId(i + 1);
  }
  return peers;
}

TEST(SelectionModel, SelectReturnsTopOfRanking) {
  BlindModel model(BlindModel::Mode::kFirstAvailable);
  const auto peers = three_peers();
  SelectionContext ctx;
  EXPECT_EQ(model.select(peers, ctx), PeerId(1));
}

TEST(SelectionModel, SelectOnEmptyCandidatesIsInvalid) {
  BlindModel model;
  SelectionContext ctx;
  EXPECT_FALSE(model.select({}, ctx).valid());
}

TEST(SelectionModel, SelectKClampsToEligible) {
  BlindModel model(BlindModel::Mode::kFirstAvailable);
  const auto peers = three_peers();
  SelectionContext ctx;
  EXPECT_EQ(model.select_k(peers, ctx, 2).size(), 2u);
  EXPECT_EQ(model.select_k(peers, ctx, 10).size(), 3u);
  EXPECT_TRUE(model.select_k(peers, ctx, 0).empty());
}

TEST(SelectionModel, RankedByCostSortsAscendingWithIdTiebreak) {
  std::vector<ScoredPeer> scored{
      {PeerId(3), 0.5}, {PeerId(1), 0.5}, {PeerId(2), 0.1}, {PeerId(4), 0.9}};
  const auto ranked = ranked_by_cost(std::move(scored));
  ASSERT_EQ(ranked.size(), 4u);
  EXPECT_EQ(ranked[0], PeerId(2));
  EXPECT_EQ(ranked[1], PeerId(1));  // tie at 0.5 -> lower id first
  EXPECT_EQ(ranked[2], PeerId(3));
  EXPECT_EQ(ranked[3], PeerId(4));
}

TEST(SelectionModel, EveryModelHonoursTheExcludeList) {
  // Failover re-petitions carry the peers that already failed; every
  // model must skip them no matter how well they score.
  const auto peers = three_peers();
  SelectionContext ctx;
  ctx.exclude = {PeerId(1), PeerId(3)};
  std::vector<std::unique_ptr<SelectionModel>> models;
  models.push_back(std::make_unique<BlindModel>(BlindModel::Mode::kFirstAvailable));
  models.push_back(std::make_unique<BlindModel>(BlindModel::Mode::kRoundRobin));
  models.push_back(std::make_unique<EconomicSchedulingModel>());
  models.push_back(
      std::make_unique<DataEvaluatorModel>(DataEvaluatorModel::same_priority()));
  models.push_back(std::make_unique<UserPreferenceModel>(
      std::vector<PeerId>{PeerId(3), PeerId(1), PeerId(2)}));
  models.push_back(std::make_unique<HybridModel>());
  for (const auto& model : models) {
    const auto ranked = model->rank(peers, ctx);
    ASSERT_EQ(ranked.size(), 1u) << model->name();
    EXPECT_EQ(ranked[0], PeerId(2)) << model->name();
    EXPECT_EQ(model->select(peers, ctx), PeerId(2)) << model->name();
  }
  // Excluding everyone leaves nothing to select.
  ctx.exclude = {PeerId(1), PeerId(2), PeerId(3)};
  for (const auto& model : models) {
    EXPECT_TRUE(model->rank(peers, ctx).empty()) << model->name();
    EXPECT_FALSE(model->select(peers, ctx).valid()) << model->name();
  }
}

/// A production model and its frozen reference, queried in lockstep
/// (the blind pair's rotation cursors advance together).
struct ModelPair {
  std::string name;
  std::unique_ptr<SelectionModel> model;
  std::function<std::vector<PeerId>(std::span<const PeerSnapshot>, const SelectionContext&,
                                    std::size_t)>
      reference;
};

template <typename Ref>
ModelPair pair_of(std::string name, std::unique_ptr<SelectionModel> model,
                  std::shared_ptr<Ref> ref) {
  return ModelPair{std::move(name), std::move(model),
                   [ref](std::span<const PeerSnapshot> c, const SelectionContext& ctx,
                         std::size_t k) { return peerlab::testing::ref_select_k(*ref, c, ctx, k); }};
}

TEST(SelectionModel, SelectKIsThePrefixOfTheReferenceRanking) {
  using peerlab::testing::ReferenceBlind;
  constexpr std::size_t kMaxPeers = 40;
  std::vector<PeerId> preference;
  // Every other peer listed, from the top id down; the rest unlisted.
  for (std::size_t i = 0; i < kMaxPeers / 2; ++i) preference.push_back(PeerId(kMaxPeers - 2 * i));
  std::vector<ModelPair> pairs;
  pairs.push_back(pair_of("blind", std::make_unique<BlindModel>(),
                          std::make_shared<ReferenceBlind>()));
  pairs.push_back(pair_of("blind-first", std::make_unique<BlindModel>(BlindModel::Mode::kFirstAvailable),
                          std::make_shared<ReferenceBlind>(BlindModel::Mode::kFirstAvailable)));
  pairs.push_back(pair_of("economic", std::make_unique<EconomicSchedulingModel>(),
                          std::make_shared<peerlab::testing::ReferenceEconomic>()));
  pairs.push_back(pair_of(
      "evaluator", std::make_unique<DataEvaluatorModel>(DataEvaluatorModel::same_priority()),
      std::make_shared<peerlab::testing::ReferenceEvaluator>(
          peerlab::testing::ReferenceEvaluator::same_priority())));
  pairs.push_back(pair_of("preference", std::make_unique<UserPreferenceModel>(preference),
                          std::make_shared<peerlab::testing::ReferenceUserPreference>(preference)));
  pairs.push_back(pair_of("hybrid", std::make_unique<HybridModel>(),
                          std::make_shared<peerlab::testing::ReferenceHybrid>()));

  // Three profiles of statistics: none, clean, troubled.
  stats::PeerStatistics clean;
  stats::PeerStatistics troubled;
  for (int i = 0; i < 8; ++i) {
    clean.record_message(1.0, true);
    troubled.record_message(1.0, i % 3 == 0);
  }
  troubled.sample_outbox(6.0);
  const stats::PeerStatistics* profiles[] = {nullptr, &clean, &troubled};

  const std::uint64_t seed = peerlab::testing::test_seed();
  std::mt19937_64 rng(seed);
  for (int round = 0; round < 60; ++round) {
    // Candidates repeat three profiles and arrive shuffled: costs tie,
    // peer ids decide, and a candidate's position says nothing of its id.
    const std::size_t n = 1 + rng() % kMaxPeers;
    std::vector<PeerSnapshot> candidates(n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t p = rng() % 3;
      PeerSnapshot& c = candidates[i];
      c.peer = PeerId(i + 1);
      c.node = NodeId(i + 1);
      c.cpu_ghz = 1.0 + static_cast<double>(p);
      c.price_per_cpu_second = p == 1 ? 0.5 : 1.0;
      c.idle = p != 2;
      c.queued_tasks = p == 2 ? 2 : 0;
      c.statistics = profiles[p];
      c.online = rng() % 8 != 0;
      c.reputation = rng() % 4 == 0 ? 0.5 : 1.0;
    }
    std::shuffle(candidates.begin(), candidates.end(), rng);
    SelectionContext ctx;
    ctx.now = 10.0 * round;
    if (rng() % 2 == 0) ctx.work = 20.0;
    if (rng() % 2 == 0) ctx.payload_size = megabytes(4.0);
    if (rng() % 3 == 0) ctx.reputation_weight = 0.75;
    if (rng() % 3 == 0) ctx.exclude.push_back(PeerId(1 + rng() % n));
    if (rng() % 4 == 0) ctx.budget = 0.5 + static_cast<double>(rng() % 40);
    for (auto& pair : pairs) {
      for (const std::size_t k : {std::size_t{0}, std::size_t{1}, n / 2, n, n + 3}) {
        const auto got = pair.model->select_k(candidates, ctx, k);
        const auto want = pair.reference(candidates, ctx, k);
        ASSERT_EQ(got, want) << pair.name << " seed=" << seed << " round=" << round
                             << " n=" << n << " k=" << k;
      }
    }
  }
}

TEST(SelectionContextEnum, PurposeNames) {
  EXPECT_STREQ(to_string(SelectionContext::Purpose::kFileTransfer), "file-transfer");
  EXPECT_STREQ(to_string(SelectionContext::Purpose::kTaskExecution), "task-execution");
  EXPECT_STREQ(to_string(SelectionContext::Purpose::kGeneric), "generic");
}

}  // namespace
}  // namespace peerlab::core
