#include <gtest/gtest.h>

#include <set>

#include "overlay_world.hpp"
#include "peerlab/common/check.hpp"
#include "peerlab/core/economic.hpp"
#include "peerlab/net/fault_plan.hpp"
#include "peerlab/overlay/primitives.hpp"

namespace peerlab::overlay {
namespace {

using testing::OverlayWorld;
using testing::WorldOptions;

transport::FileTransferConfig base_cfg() {
  transport::FileTransferConfig cfg;
  cfg.petition_retry.initial_timeout = 5.0;
  return cfg;
}

TEST(Distribution, SpreadsPartsRoundRobinAndConservesBytes) {
  WorldOptions opts;
  opts.clients = 3;
  OverlayWorld w(opts);
  w.boot();
  std::optional<FileService::DistributionResult> result;
  // 8 parts over 3 peers: shares of 3, 3, 2 parts.
  w.client(0).files().distribute(megabytes(8.0), 8, {PeerId(3), PeerId(4)}, base_cfg(),
                                 [&](const FileService::DistributionResult& r) {
                                   result = r;
                                 });
  w.sim.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->complete);
  ASSERT_EQ(result->shares.size(), 2u);
  Bytes total = 0;
  int parts = 0;
  for (const auto& share : result->shares) {
    EXPECT_TRUE(share.complete);
    total += share.bytes;
    parts += share.parts;
  }
  EXPECT_EQ(total, megabytes(8.0));
  EXPECT_EQ(parts, 8);
  EXPECT_EQ(result->shares[0].parts, 4);  // round-robin over 2 peers
  EXPECT_EQ(result->shares[1].parts, 4);
  EXPECT_GT(result->makespan(), 0.0);
}

TEST(Distribution, WideFanOutFailsOverOutsideTheUsedPeers) {
  // 23 parts over ten peers (3..12), two of which (5 and 9) crash for
  // good mid-transfer: twelve peers end up in the distribution's used
  // list, and each failed share must land on one of 13..15, the only
  // peers neither used nor the sender (2).
  WorldOptions opts;
  opts.clients = 14;  // peers 2..15 on nodes 2..15
  OverlayWorld w(opts);
  w.boot();
  net::FaultPlan plan;
  plan.crash_forever(w.sim.now() + 2.0, NodeId(5));
  plan.crash_forever(w.sim.now() + 2.0, NodeId(9));
  net::FaultInjector injector(*w.network, plan);

  std::vector<PeerId> peers;
  for (std::uint64_t id = 3; id <= 12; ++id) peers.push_back(PeerId(id));
  constexpr int kParts = 23;
  const Bytes file_size = megabytes(23.0) + 7;  // 7 bytes of rounding remainder
  const Bytes part_size = file_size / kParts;
  auto cfg = base_cfg();
  cfg.petition_retry.max_attempts = 3;
  cfg.confirm_timeout = 10.0;
  cfg.max_part_attempts = 3;
  DistributionOptions failover;
  failover.max_failovers_per_share = 2;
  failover.backoff_initial = 1.0;
  failover.backoff_cap = 8.0;
  std::optional<FileService::DistributionResult> result;
  w.client(0).files().distribute(
      file_size, kParts, peers, cfg,
      [&](const FileService::DistributionResult& r) { result = r; }, failover);
  w.sim.run();

  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->complete);
  EXPECT_EQ(result->failovers, 2);
  ASSERT_EQ(result->shares.size(), peers.size());
  Bytes total = 0;
  std::set<PeerId> holders;
  for (const auto& share : result->shares) {
    EXPECT_TRUE(share.complete);
    total += share.bytes;
    holders.insert(share.peer);
    // Round-robin in id order: 23 = 10 x 2 + 3, so the three lowest ids
    // (3, 4, 5) carry one part more; the highest id takes the remainder.
    const int expected_parts = share.original.value() <= 5 ? 3 : 2;
    EXPECT_EQ(share.parts, expected_parts) << "share of peer " << share.original.value();
    const Bytes remainder = share.original == PeerId(12) ? file_size - kParts * part_size : 0;
    EXPECT_EQ(share.bytes, static_cast<Bytes>(expected_parts) * part_size + remainder);
    if (share.original == PeerId(5) || share.original == PeerId(9)) {
      EXPECT_EQ(share.failovers, 1);
      EXPECT_GE(share.peer.value(), 13u) << "replacement landed on a used peer";
      EXPECT_LE(share.peer.value(), 15u);
    } else {
      EXPECT_EQ(share.failovers, 0);
      EXPECT_EQ(share.peer, share.original);
    }
  }
  EXPECT_EQ(total, file_size);
  EXPECT_EQ(holders.size(), peers.size());  // the two replacements differ too
}

TEST(Distribution, SinglePeerDegeneratesToPlainTransfer) {
  OverlayWorld w;
  w.boot();
  std::optional<FileService::DistributionResult> result;
  w.client(0).files().distribute(megabytes(2.0), 4, {PeerId(3)}, base_cfg(),
                                 [&](const FileService::DistributionResult& r) {
                                   result = r;
                                 });
  w.sim.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->complete);
  ASSERT_EQ(result->shares.size(), 1u);
  EXPECT_EQ(result->shares[0].parts, 4);
  EXPECT_EQ(result->shares[0].bytes, megabytes(2.0));
}

TEST(Distribution, ParallelSharesBeatSequentialDelivery) {
  // Scattering over two peers must finish faster than pushing the
  // whole file to one of them (distinct downlinks work in parallel).
  OverlayWorld w;
  w.boot();
  Seconds scattered = 0.0, single = 0.0;
  w.client(0).files().distribute(megabytes(4.0), 8, {PeerId(3), PeerId(4)}, base_cfg(),
                                 [&](const FileService::DistributionResult& r) {
                                   ASSERT_TRUE(r.complete);
                                   scattered = r.makespan();
                                 });
  w.sim.run();
  auto cfg = base_cfg();
  cfg.file_size = megabytes(4.0);
  cfg.parts = 8;
  w.client(0).files().send_file(PeerId(3), cfg, [&](const transport::TransferResult& r) {
    ASSERT_TRUE(r.complete);
    single = r.transmission_time();
  });
  w.sim.run();
  EXPECT_LT(scattered, single);
}

TEST(Distribution, PartialFailureIsReportedPerShare) {
  OverlayWorld w;
  w.boot();
  w.clients[1].reset();  // PeerId(3)'s software is gone
  auto cfg = base_cfg();
  cfg.petition_retry.max_attempts = 2;
  std::optional<FileService::DistributionResult> result;
  w.client(0).files().distribute(megabytes(2.0), 4, {PeerId(3), PeerId(4)}, cfg,
                                 [&](const FileService::DistributionResult& r) {
                                   result = r;
                                 });
  w.sim.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->complete);
  ASSERT_EQ(result->shares.size(), 2u);
  EXPECT_FALSE(result->shares[0].complete);  // PeerId(3)
  EXPECT_TRUE(result->shares[1].complete);   // PeerId(4)
}

TEST(Distribution, Validation) {
  OverlayWorld w;
  w.boot();
  auto& files = w.client(0).files();
  EXPECT_THROW(files.distribute(0, 4, {PeerId(3)}, base_cfg(), [](const auto&) {}),
               InvariantError);
  EXPECT_THROW(files.distribute(megabytes(1.0), 4, {}, base_cfg(), [](const auto&) {}),
               InvariantError);
  EXPECT_THROW(files.distribute(megabytes(1.0), 4, {PeerId(3), PeerId(3)}, base_cfg(),
                                [](const auto&) {}),
               InvariantError);
}

TEST(Distribution, PrimitivesDistributeSelectsThenScatters) {
  OverlayWorld w;
  w.boot();
  w.broker->set_selection_model(std::make_unique<core::EconomicSchedulingModel>());
  Primitives api(w.client(0));
  std::optional<FileService::DistributionResult> result;
  api.distribute_file(megabytes(4.0), 4, [&](const FileService::DistributionResult& r) {
    result = r;
  });
  w.sim.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->complete);
  // Never distributes to itself.
  for (const auto& share : result->shares) {
    EXPECT_NE(share.peer, w.client(0).id());
  }
}

TEST(Distribution, PrimitivesDistributeFailsCleanlyWithoutCandidates) {
  WorldOptions opts;
  opts.clients = 1;
  OverlayWorld w(opts);
  w.boot();
  Primitives api(w.client(0));
  std::optional<FileService::DistributionResult> result;
  api.distribute_file(megabytes(1.0), 4, [&](const FileService::DistributionResult& r) {
    result = r;
  });
  w.sim.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->complete);
  EXPECT_TRUE(result->shares.empty());
}

}  // namespace
}  // namespace peerlab::overlay
