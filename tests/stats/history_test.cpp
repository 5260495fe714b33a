#include "peerlab/stats/history.hpp"

#include <gtest/gtest.h>

#include "peerlab/common/check.hpp"

namespace peerlab::stats {
namespace {

TaskRecord task(PeerId peer, Seconds started, Seconds exec, bool ok, GigaCycles work = 60.0) {
  TaskRecord r;
  r.task = TaskId(1);
  r.peer = peer;
  r.submitted = started - 1.0;
  r.started = started;
  r.finished = started + exec;
  r.ok = ok;
  r.work = work;
  return r;
}

TransferRecord transfer(PeerId peer, Bytes size, Seconds duration, bool ok) {
  TransferRecord r;
  r.transfer = TransferId(1);
  r.peer = peer;
  r.size = size;
  r.duration = duration;
  r.ok = ok;
  return r;
}

TEST(HistoryStore, EmptyEstimatorsReturnNothing) {
  HistoryStore h;
  EXPECT_FALSE(h.mean_execution_time(PeerId(1)).has_value());
  EXPECT_FALSE(h.mean_effective_speed(PeerId(1)).has_value());
  EXPECT_FALSE(h.mean_transfer_rate(PeerId(1)).has_value());
  EXPECT_FALSE(h.mean_response_time(PeerId(1)).has_value());
  EXPECT_DOUBLE_EQ(h.task_success_rate(PeerId(1)), 1.0);
  EXPECT_TRUE(h.known_peers().empty());
}

TEST(HistoryStore, MeanExecutionTimeUsesSuccessfulTasksOnly) {
  HistoryStore h;
  h.record_task(task(PeerId(1), 10.0, 4.0, true));
  h.record_task(task(PeerId(1), 20.0, 6.0, true));
  h.record_task(task(PeerId(1), 30.0, 100.0, false));  // failure ignored
  ASSERT_TRUE(h.mean_execution_time(PeerId(1)).has_value());
  EXPECT_DOUBLE_EQ(*h.mean_execution_time(PeerId(1)), 5.0);
}

TEST(HistoryStore, MeanExecutionTimeHonoursDepth) {
  HistoryStore h;
  for (int i = 0; i < 10; ++i) {
    h.record_task(task(PeerId(1), i * 100.0, 10.0, true));
  }
  for (int i = 10; i < 14; ++i) {
    h.record_task(task(PeerId(1), i * 100.0, 2.0, true));
  }
  // Depth 4 sees only the recent fast tasks.
  EXPECT_DOUBLE_EQ(*h.mean_execution_time(PeerId(1), 4), 2.0);
  // Depth 14 mixes both.
  EXPECT_NEAR(*h.mean_execution_time(PeerId(1), 14), (10.0 * 10 + 2.0 * 4) / 14.0, 1e-9);
}

TEST(HistoryStore, EffectiveSpeedIsWorkOverTime) {
  HistoryStore h;
  h.record_task(task(PeerId(1), 0.0, 30.0, true, /*work=*/60.0));  // 2 GHz effective
  ASSERT_TRUE(h.mean_effective_speed(PeerId(1)).has_value());
  EXPECT_DOUBLE_EQ(*h.mean_effective_speed(PeerId(1)), 2.0);
}

TEST(HistoryStore, TransferRateFromRecords) {
  HistoryStore h;
  // 1 MB in 1 s = 8 Mbit/s.
  h.record_transfer(transfer(PeerId(2), megabytes(1.0), 1.0, true));
  h.record_transfer(transfer(PeerId(2), megabytes(1.0), 4.0, true));  // 2 Mbit/s
  h.record_transfer(transfer(PeerId(2), megabytes(9.0), 1.0, false));  // ignored
  ASSERT_TRUE(h.mean_transfer_rate(PeerId(2)).has_value());
  EXPECT_DOUBLE_EQ(*h.mean_transfer_rate(PeerId(2)), 5.0);
}

TEST(HistoryStore, ResponseTimesAverage) {
  HistoryStore h;
  h.record_response_time(PeerId(3), 0.1);
  h.record_response_time(PeerId(3), 0.3);
  ASSERT_TRUE(h.mean_response_time(PeerId(3)).has_value());
  EXPECT_DOUBLE_EQ(*h.mean_response_time(PeerId(3)), 0.2);
}

TEST(HistoryStore, SuccessRateCountsFailures) {
  HistoryStore h;
  h.record_task(task(PeerId(1), 0.0, 1.0, true));
  h.record_task(task(PeerId(1), 10.0, 1.0, false));
  h.record_task(task(PeerId(1), 20.0, 1.0, false));
  h.record_task(task(PeerId(1), 30.0, 1.0, true));
  EXPECT_DOUBLE_EQ(h.task_success_rate(PeerId(1)), 0.5);
}

TEST(HistoryStore, CapacityEvictsOldestRecords) {
  HistoryStore h(/*per_peer_capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    h.record_task(task(PeerId(1), i * 100.0, static_cast<double>(i + 1), true));
  }
  EXPECT_EQ(h.task_count(PeerId(1)), 4u);
  // Only executions 7..10 remain.
  EXPECT_DOUBLE_EQ(*h.mean_execution_time(PeerId(1), 100), (7.0 + 8.0 + 9.0 + 10.0) / 4.0);
}

TEST(HistoryStore, PeersAreIsolated) {
  HistoryStore h;
  h.record_task(task(PeerId(1), 0.0, 2.0, true));
  h.record_task(task(PeerId(2), 0.0, 20.0, true));
  EXPECT_DOUBLE_EQ(*h.mean_execution_time(PeerId(1)), 2.0);
  EXPECT_DOUBLE_EQ(*h.mean_execution_time(PeerId(2)), 20.0);
}

TEST(HistoryStore, KnownPeersSpansAllRecordKinds) {
  HistoryStore h;
  h.record_task(task(PeerId(3), 0.0, 1.0, true));
  h.record_transfer(transfer(PeerId(1), megabytes(1.0), 1.0, true));
  h.record_response_time(PeerId(2), 0.5);
  const auto peers = h.known_peers();
  ASSERT_EQ(peers.size(), 3u);
  EXPECT_EQ(peers[0], PeerId(1));
  EXPECT_EQ(peers[1], PeerId(2));
  EXPECT_EQ(peers[2], PeerId(3));
}

TEST(HistoryStore, RejectsMalformedRecords) {
  HistoryStore h;
  TaskRecord bad = task(PeerId(1), 10.0, 5.0, true);
  bad.peer = PeerId{};
  EXPECT_THROW(h.record_task(bad), InvariantError);
  TaskRecord backwards = task(PeerId(1), 10.0, -5.0, true);
  EXPECT_THROW(h.record_task(backwards), InvariantError);
  EXPECT_THROW(h.record_response_time(PeerId(1), -1.0), InvariantError);
  EXPECT_THROW(HistoryStore(0), InvariantError);
}

TEST(HistoryStore, RejectsPeerIdsPastTheDenseBound) {
  HistoryStore h;
  const PeerId corrupt(kDensePeerIds);
  EXPECT_THROW(h.record_task(task(corrupt, 10.0, 5.0, true)), InvariantError);
  EXPECT_THROW(h.record_transfer(transfer(corrupt, megabytes(1.0), 1.0, true)), InvariantError);
  EXPECT_THROW(h.record_response_time(corrupt, 0.5), InvariantError);
  // Reads past the table answer as for a peer never recorded.
  EXPECT_FALSE(h.mean_response_time(corrupt).has_value());
  EXPECT_EQ(h.task_count(corrupt), 0u);
  EXPECT_TRUE(h.known_peers().empty());
}

TEST(TransferRecordStruct, AchievedRateMatchesUnits) {
  const auto r = transfer(PeerId(1), megabytes(1.0), 2.0, true);
  EXPECT_DOUBLE_EQ(r.achieved_rate(), 4.0);  // 8 Mbit / 2 s
}

}  // namespace
}  // namespace peerlab::stats
