// CandidateIndex walk backoff (DESIGN.md §15): a walk shape whose
// threshold walks blow their pull budget probes only on its selects
// 1, 3, 7, 15, … and sweeps densely in between; a probe that converges
// restores walking at once; rebinding forgets the schedule; and each
// shape (work / payload carried or not) keeps its own.
//
// A select's pulls tell the two paths apart: the dense sweep pulls
// exactly the eligible peers, a probe pulls its walk on top of that
// (blown) or far fewer (converged).

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "peerlab/core/candidate_index.hpp"
#include "peerlab/core/economic.hpp"

namespace peerlab::core {
namespace {

constexpr Seconds kNow = 100.0;
constexpr std::size_t kPeers = 256;

/// Every peer idle, history-less and advertising the same CPU and
/// price: all utilities tie, so no walk can ever stop strictly short
/// of its bound and each one blows its budget.
void register_tied(CandidateIndex& index) {
  for (std::size_t i = 0; i < kPeers; ++i) {
    index.upsert_peer(PeerId(i + 1), NodeId(i + 1), 2.0, 1.0, nullptr, kNow, true, 0, 0);
  }
}

/// Same peers with strictly rank-aligned CPU and price: fast peers are
/// cheap, so every walk converges within a few pulls.
void register_correlated(CandidateIndex& index) {
  for (std::size_t i = 0; i < kPeers; ++i) {
    const double q = (static_cast<double>(i) + 0.5) / static_cast<double>(kPeers);
    index.upsert_peer(PeerId(i + 1), NodeId(i + 1), 0.5 + 3.5 * q, 0.3 + 2.0 * (1.0 - q),
                      nullptr, kNow, true, 0, 0);
  }
}

SelectionContext petition(bool work, bool payload) {
  SelectionContext ctx;
  ctx.now = kNow;
  if (work) ctx.work = 4.0;
  if (payload) ctx.payload_size = 512 * 1024;
  return ctx;
}

enum class Path { kBlownProbe, kBackedOff, kConverged };

/// Runs one select and classifies the path it took.
Path select_once(CandidateIndex& index, const SelectionContext& ctx) {
  std::vector<PeerId> out;
  const auto pulls_before = index.bound_pulls();
  const auto sweeps_before = index.dense_sweeps();
  EXPECT_TRUE(index.try_select(ctx, kNow, 4, out));
  EXPECT_EQ(out.size(), 4u);
  const auto pulls = index.bound_pulls() - pulls_before;
  if (index.dense_sweeps() == sweeps_before) return Path::kConverged;
  EXPECT_EQ(index.dense_sweeps() - sweeps_before, 1u);
  EXPECT_GE(pulls, kPeers);
  return pulls == kPeers ? Path::kBackedOff : Path::kBlownProbe;
}

/// The 1-based selects among the next `selects` that walked.
std::vector<int> walking_selects(CandidateIndex& index, const SelectionContext& ctx,
                                 int selects) {
  std::vector<int> walked;
  for (int s = 1; s <= selects; ++s) {
    if (select_once(index, ctx) != Path::kBackedOff) walked.push_back(s);
  }
  return walked;
}

TEST(CandidateIndexBackoff, TieDegenerateShapeWalksOnDoublingSchedule) {
  EconomicSchedulingModel model;
  CandidateIndex index;
  register_tied(index);
  index.bind_model(&model);
  const auto ctx = petition(/*work=*/true, /*payload=*/false);
  std::vector<int> blown;
  for (int s = 1; s <= 40; ++s) {
    const Path path = select_once(index, ctx);
    ASSERT_NE(path, Path::kConverged) << "select " << s;
    // Skipped selects pull exactly the eligible peers: no walk at all.
    if (path == Path::kBlownProbe) blown.push_back(s);
  }
  EXPECT_EQ(blown, (std::vector<int>{1, 3, 7, 15, 31}));
}

TEST(CandidateIndexBackoff, ConvergedProbeRestoresWalkingAndResetsThePeriod) {
  EconomicSchedulingModel model;
  CandidateIndex index;
  register_tied(index);
  index.bind_model(&model);
  const auto ctx = petition(/*work=*/true, /*payload=*/true);
  EXPECT_EQ(walking_selects(index, ctx, 5), (std::vector<int>{1, 3}));
  // The registry turns walk-friendly mid-backoff: select 6 was already
  // scheduled as a skip (the sweep is exact either way); the probe at
  // select 7 converges, and every select after it walks.
  register_correlated(index);
  EXPECT_EQ(select_once(index, ctx), Path::kBackedOff);  // select 6
  EXPECT_EQ(select_once(index, ctx), Path::kConverged);  // select 7: probe
  for (int s = 0; s < 4; ++s) EXPECT_EQ(select_once(index, ctx), Path::kConverged);
  // Degenerate again: the schedule restarts from a period of 1.
  register_tied(index);
  EXPECT_EQ(walking_selects(index, ctx, 8), (std::vector<int>{1, 3, 7}));
}

TEST(CandidateIndexBackoff, RebindForgetsTheSchedule) {
  EconomicSchedulingModel model;
  CandidateIndex index;
  register_tied(index);
  index.bind_model(&model);
  const auto ctx = petition(/*work=*/false, /*payload=*/true);
  EXPECT_EQ(walking_selects(index, ctx, 4), (std::vector<int>{1, 3}));
  index.bind_model(&model);
  EXPECT_EQ(walking_selects(index, ctx, 4), (std::vector<int>{1, 3}));
}

TEST(CandidateIndexBackoff, EachWalkShapeKeepsItsOwnSchedule) {
  EconomicSchedulingModel model;
  CandidateIndex index;
  register_tied(index);
  index.bind_model(&model);
  const auto work = petition(/*work=*/true, /*payload=*/false);
  const auto payload = petition(/*work=*/false, /*payload=*/true);
  std::vector<int> work_walks;
  std::vector<int> payload_walks;
  for (int s = 1; s <= 8; ++s) {
    if (select_once(index, work) != Path::kBackedOff) work_walks.push_back(s);
    if (select_once(index, payload) != Path::kBackedOff) payload_walks.push_back(s);
  }
  EXPECT_EQ(work_walks, (std::vector<int>{1, 3, 7}));
  EXPECT_EQ(payload_walks, (std::vector<int>{1, 3, 7}));
}

}  // namespace
}  // namespace peerlab::core
