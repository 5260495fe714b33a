// The experiment world's lifetime contract: everything the deployment
// records into outlives it, so a world torn down mid-transfer (a
// failed check unwinding through a driver) cancels its flows into live
// instruments, with tracing detached first.

#include "peerlab/experiments/world.hpp"

#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

namespace peerlab::experiments {
namespace {

/// Starts a 50 MB 4-part transfer to SC2 and steps until its first
/// flow is on the wire.
void start_transfer(World& world) {
  transport::FileTransferConfig cfg;
  cfg.file_size = 50 * kMegabyte;
  cfg.parts = 4;
  cfg.trace = world.root();
  world.dep().control().files().send_file(world.dep().sc_peer(2), cfg,
                                          [](const transport::TransferResult&) {});
  while (world.dep().network().flows().active_flows() == 0) {
    ASSERT_EQ(world.sim().step(1), 1u);
  }
}

TEST(World, TeardownWithTransferInFlight) {
  obs::MetricRegistry total;
  RunOptions options;
  options.repetitions = 1;
  options.metrics = &total;
  options.profile = true;
  options.trace_path = ::testing::TempDir() + "/world_teardown.trace";
  std::remove(options.trace_path.c_str());
  Repetition rep;
  {
    World world(options, 7);
    world.observe(rep);
    world.dep().boot();
    start_transfer(world);
  }
  // Never finished: nothing reaches the fold and no dump is written.
  EXPECT_TRUE(rep.staged.empty());
  EXPECT_FALSE(std::ifstream(options.trace_path).good());
}

TEST(World, FinishedWorldTornDownMidTransferStagesALiveRegistry) {
  obs::MetricRegistry total;
  RunOptions options;
  options.repetitions = 1;
  options.metrics = &total;
  options.profile = true;
  Repetition rep;
  const auto relevels = [&rep] {
    return rep.staged.front().first->find_histogram("profile.flows.relevel.wall_s")->count();
  };
  std::uint64_t at_finish = 0;
  {
    World world(options, 7);
    world.observe(rep);
    world.dep().boot();
    start_transfer(world);
    world.finish(".early");
    ASSERT_EQ(rep.staged.size(), 1u);
    at_finish = relevels();
  }
  // The staged registry took the teardown's re-level.
  EXPECT_GT(relevels(), at_finish);
  fold_metrics(options, rep);
  EXPECT_TRUE(rep.staged.empty());
  const obs::Histogram* folded = total.find_histogram("profile.flows.relevel.wall_s.early");
  ASSERT_NE(folded, nullptr);
  EXPECT_GT(folded->count(), at_finish);
}

}  // namespace
}  // namespace peerlab::experiments
