#include "peerlab/overlay/broker.hpp"

#include <gtest/gtest.h>

#include "overlay_world.hpp"
#include "peerlab/common/check.hpp"
#include "peerlab/core/economic.hpp"

namespace peerlab::overlay {
namespace {

using testing::OverlayWorld;
using testing::WorldOptions;

TEST(Broker, HeartbeatsRegisterClients) {
  OverlayWorld w;
  EXPECT_TRUE(w.broker->registered_clients().empty());
  w.boot();
  const auto registered = w.broker->registered_clients();
  ASSERT_EQ(registered.size(), 3u);
  EXPECT_EQ(registered[0], PeerId(2));
  EXPECT_EQ(registered[2], PeerId(4));
  for (const auto peer : registered) {
    EXPECT_TRUE(w.broker->online(peer));
    const auto* record = w.broker->client(peer);
    ASSERT_NE(record, nullptr);
    EXPECT_EQ(record->node, node_of(peer));
    EXPECT_TRUE(record->idle);
    EXPECT_EQ(record->backlog, 0);
  }
  EXPECT_GE(w.broker->heartbeats_received(), 3u);
}

TEST(Broker, SilentClientGoesOffline) {
  WorldOptions opts;
  opts.client_config.heartbeat_interval = 10.0;
  opts.broker_config.heartbeat_interval = 10.0;
  OverlayWorld w(opts);
  w.boot();
  EXPECT_TRUE(w.broker->online(PeerId(2)));
  w.client(0).stop();
  // 3.5 missed intervals of 10 s -> offline after ~36 s of silence.
  w.sim.run_until(w.sim.now() + 60.0);
  EXPECT_FALSE(w.broker->online(PeerId(2)));
  EXPECT_TRUE(w.broker->online(PeerId(3)));
}

TEST(Broker, RestartedClientComesBackOnline) {
  WorldOptions opts;
  opts.client_config.heartbeat_interval = 10.0;
  opts.broker_config.heartbeat_interval = 10.0;
  OverlayWorld w(opts);
  w.boot();
  w.client(0).stop();
  w.sim.run_until(100.0);
  EXPECT_FALSE(w.broker->online(PeerId(2)));
  w.client(0).start();
  w.sim.run_until(101.0);
  EXPECT_TRUE(w.broker->online(PeerId(2)));
}

TEST(Broker, SnapshotsCarryProfileAndDynamicState) {
  OverlayWorld w;
  w.boot();
  const auto snapshots = w.broker->snapshot_group();
  ASSERT_EQ(snapshots.size(), 3u);
  const auto& first = snapshots.front();
  EXPECT_EQ(first.peer, PeerId(2));
  EXPECT_EQ(w.network->topology().node(first.node).profile().hostname, "sc1.example");
  EXPECT_DOUBLE_EQ(first.cpu_ghz, 1.0);
  EXPECT_TRUE(first.online);
  EXPECT_TRUE(first.idle);
  EXPECT_EQ(first.history, &w.broker->history());
  ASSERT_NE(first.statistics, nullptr);  // heartbeat reports queue samples
}

TEST(Broker, AppliedStatsFlowIntoSnapshots) {
  OverlayWorld w;
  w.boot();
  StatsDelta delta;
  delta.subject = PeerId(2);
  delta.msg_ok = 3;
  delta.msg_fail = 1;
  delta.file_done = 2;
  w.broker->apply_stats(delta);
  const auto& stats = w.broker->statistics_for(PeerId(2));
  EXPECT_DOUBLE_EQ(stats.value(stats::Criterion::kMsgSuccessTotal, w.sim.now()), 75.0);
  EXPECT_DOUBLE_EQ(stats.value(stats::Criterion::kFileSentTotal, w.sim.now()), 100.0);
}

TEST(Broker, StatsReportsTravelOverTheWire) {
  OverlayWorld w;
  w.boot();
  StatsDelta delta;
  delta.subject = PeerId(3);
  delta.msg_ok = 1;
  delta.response_times.push_back(0.25);
  w.client(0).report(delta);
  w.sim.run_until(w.sim.now() + 5.0);
  EXPECT_GT(w.broker->reports_applied(), 0u);
  ASSERT_TRUE(w.broker->history().mean_response_time(PeerId(3)).has_value());
  EXPECT_DOUBLE_EQ(*w.broker->history().mean_response_time(PeerId(3)), 0.25);
}

TEST(Broker, DefaultModelIsBlind) {
  OverlayWorld w;
  EXPECT_EQ(w.broker->selection_model().name(), "blind");
}

TEST(Broker, SelectionModelIsPluggable) {
  OverlayWorld w;
  w.boot();
  w.broker->set_selection_model(std::make_unique<core::EconomicSchedulingModel>());
  EXPECT_EQ(w.broker->selection_model().name(), "economic");
  core::SelectionContext ctx;
  ctx.now = w.sim.now();
  const PeerId chosen = w.broker->select_peer(ctx);
  EXPECT_TRUE(chosen.valid());
}

TEST(Broker, LocalSelectKReturnsDistinctPeers) {
  OverlayWorld w;
  w.boot();
  core::SelectionContext ctx;
  const auto two = w.broker->select_peers(ctx, 2);
  ASSERT_EQ(two.size(), 2u);
  EXPECT_NE(two[0], two[1]);
  const auto all = w.broker->select_peers(ctx, 99);
  EXPECT_EQ(all.size(), 3u);
}

TEST(Broker, WireSelectionReachesClients) {
  OverlayWorld w;
  w.boot();
  std::optional<std::vector<PeerId>> result;
  core::SelectionContext ctx;
  ctx.purpose = core::SelectionContext::Purpose::kFileTransfer;
  ctx.payload_size = megabytes(10.0);
  w.client(0).request_selection(ctx, 2, [&](std::vector<PeerId> peers) {
    result = std::move(peers);
  });
  w.sim.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->size(), 2u);
  EXPECT_EQ(w.broker->selections_served(), 1u);
}

TEST(Broker, WireSelectionFailsCleanlyWithoutBroker) {
  OverlayWorld w;
  w.boot();
  w.broker.reset();
  std::optional<std::vector<PeerId>> result;
  core::SelectionContext ctx;
  w.client(0).request_selection(ctx, 1, [&](std::vector<PeerId> peers) {
    result = std::move(peers);
  });
  w.sim.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->empty());
}

TEST(Broker, BusyClientIsReportedBusyViaHeartbeat) {
  WorldOptions opts;
  opts.client_config.heartbeat_interval = 5.0;
  OverlayWorld w(opts);
  w.boot();
  // Occupy client 0's executor with a long task.
  tasks::Task t;
  t.id = TaskId(999);
  t.owner = PeerId(2);
  t.work = 1000.0;  // ~1000 s at 1 GHz
  w.client(0).executor().submit(t, [](const tasks::ExecutionReport&) {});
  w.sim.run_until(w.sim.now() + 12.0);  // two heartbeats later
  const auto* record = w.broker->client(PeerId(2));
  ASSERT_NE(record, nullptr);
  EXPECT_FALSE(record->idle);
  EXPECT_EQ(record->backlog, 1);
}

TEST(Broker, BeginSessionResetsSessionScopedStats) {
  OverlayWorld w;
  w.boot();
  StatsDelta bad;
  bad.subject = PeerId(2);
  bad.msg_fail = 4;
  w.broker->apply_stats(bad);
  w.broker->begin_session();
  const auto& s = w.broker->statistics_for(PeerId(2));
  EXPECT_DOUBLE_EQ(s.value(stats::Criterion::kMsgSuccessSession, w.sim.now()), 100.0);
  EXPECT_DOUBLE_EQ(s.value(stats::Criterion::kMsgSuccessTotal, w.sim.now()), 0.0);
}

TEST(Broker, ExportAdoptRoundTripsTheRegistry) {
  WorldOptions opts;
  opts.clients = 4;
  OverlayWorld primary(opts);
  primary.boot();
  StatsDelta delta;
  delta.subject = PeerId(3);
  delta.msg_ok = 3;
  delta.msg_fail = 1;
  delta.file_done = 2;
  delta.response_times = {0.25, 0.5};
  primary.broker->apply_stats(delta);
  // A counterparty report about a peer that never heartbeated here:
  // statistics without a client record.
  StatsDelta stranger;
  stranger.subject = PeerId(40);
  stranger.exec_fail = 2;
  primary.broker->apply_stats(stranger);

  // Same topology, no clients booted: all it knows comes from adopt.
  OverlayWorld standby(opts);
  standby.broker->adopt_state(primary.broker->export_state());
  standby.sim.run_until(primary.sim.now());

  ASSERT_EQ(standby.broker->registered_clients(), primary.broker->registered_clients());
  for (const PeerId peer : primary.broker->registered_clients()) {
    const auto* want = primary.broker->client(peer);
    const auto* got = standby.broker->client(peer);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->peer, want->peer);
    EXPECT_EQ(got->node, want->node);
    EXPECT_EQ(got->first_seen, want->first_seen);
    EXPECT_EQ(got->last_seen, want->last_seen);
    EXPECT_EQ(got->backlog, want->backlog);
    EXPECT_EQ(got->idle, want->idle);
    EXPECT_EQ(got->pending_transfers, want->pending_transfers);
  }
  const auto want = primary.broker->snapshot_group();
  const auto got = standby.broker->snapshot_group();
  ASSERT_EQ(got.size(), want.size());
  const Seconds now = primary.sim.now();
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].peer, want[i].peer);
    EXPECT_EQ(got[i].node, want[i].node);
    EXPECT_EQ(got[i].cpu_ghz, want[i].cpu_ghz);
    EXPECT_EQ(got[i].price_per_cpu_second, want[i].price_per_cpu_second);
    EXPECT_EQ(got[i].online, want[i].online);
    EXPECT_EQ(got[i].queued_tasks, want[i].queued_tasks);
    ASSERT_EQ(got[i].statistics == nullptr, want[i].statistics == nullptr);
    if (want[i].statistics == nullptr) continue;
    EXPECT_NE(got[i].statistics, want[i].statistics);  // the standby's own copy
    for (std::size_t c = 0; c < stats::kCriterionCount; ++c) {
      const auto criterion = static_cast<stats::Criterion>(c);
      EXPECT_EQ(got[i].statistics->value(criterion, now),
                want[i].statistics->value(criterion, now))
          << stats::to_string(criterion);
    }
  }
  EXPECT_EQ(standby.broker->client(PeerId(40)), nullptr);
  ASSERT_NE(standby.broker->find_statistics(PeerId(40)), nullptr);
  EXPECT_EQ(standby.broker->find_statistics(PeerId(40))->tasks_exec_total().total(), 2u);
  EXPECT_EQ(standby.broker->history().mean_response_time(PeerId(3)), 0.375);

  // And back: the adopted registry exports what the primary exported.
  const auto first = primary.broker->export_state();
  const auto second = standby.broker->export_state();
  ASSERT_EQ(second.peers.size(), first.peers.size());
  for (std::size_t i = 0; i < first.peers.size(); ++i) {
    EXPECT_EQ(second.peers[i].client.has_value(), first.peers[i].client.has_value()) << i;
    EXPECT_EQ(second.peers[i].statistics.has_value(), first.peers[i].statistics.has_value())
        << i;
  }
  EXPECT_EQ(second.history.known_peers(), first.history.known_peers());
}

TEST(Broker, RejectsPeerIdsPastTheDenseBound) {
  OverlayWorld w;
  w.boot();
  const PeerId corrupt(kDensePeerIds);
  EXPECT_THROW((void)w.broker->statistics_for(corrupt), InvariantError);
  EXPECT_EQ(w.broker->find_statistics(corrupt), nullptr);
  EXPECT_EQ(w.broker->client(corrupt), nullptr);
  EXPECT_FALSE(w.broker->online(corrupt));
}

TEST(Broker, HostsRendezvousAndGroupRegistry) {
  OverlayWorld w;
  w.boot();
  // Client adverts reached the broker's rendezvous via heartbeats.
  jxta::AdvertisementQuery q;
  q.kind = jxta::AdvertisementKind::kPeer;
  EXPECT_EQ(w.broker->rendezvous().query(q).size(), 3u);
  // Group registry serves joins.
  const GroupId g = w.broker->groups().create("campus", w.broker->id());
  std::optional<bool> joined;
  w.client(1).membership().join(g, [&](bool ok, GroupId) { joined = ok; });
  w.sim.run_until(w.sim.now() + 5.0);
  ASSERT_TRUE(joined.has_value());
  EXPECT_TRUE(*joined);
  EXPECT_TRUE(w.broker->groups().is_member(g, PeerId(3)));
}

}  // namespace
}  // namespace peerlab::overlay
