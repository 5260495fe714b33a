#include "peerlab/planetlab/deployment.hpp"

#include <gtest/gtest.h>

#include "peerlab/obs/metrics.hpp"

namespace peerlab::planetlab {
namespace {

TEST(Deployment, ScDeploymentBootsAndRegistersEveryone) {
  sim::Simulator sim(1);
  Deployment dep(sim);
  EXPECT_EQ(dep.client_count(), 8u);
  dep.boot();
  EXPECT_EQ(dep.broker().registered_clients().size(), 8u);
  for (int i = 1; i <= 8; ++i) {
    EXPECT_TRUE(dep.broker().online(dep.sc_peer(i))) << "SC" << i;
  }
}

TEST(Deployment, ScLookupMatchesProfiles) {
  sim::Simulator sim(1);
  Deployment dep(sim);
  const auto& topo = dep.network().topology();
  EXPECT_EQ(topo.node(dep.sc(7).node()).profile().hostname, "planetlab1.itwm.fhg.de");
  EXPECT_EQ(topo.node(dep.sc(1).node()).profile().hostname, "ait05.us.es");
  EXPECT_THROW((void)dep.sc(9), InvariantError);
}

TEST(Deployment, BrokerLivesOnTheClusterNode) {
  sim::Simulator sim(1);
  Deployment dep(sim);
  const auto& profile = dep.network().topology().node(dep.broker().node()).profile();
  EXPECT_EQ(profile.hostname, "nozomi.lsi.upc.edu");
}

TEST(Deployment, FullSliceDeploysTwentyFiveClients) {
  sim::Simulator sim(1);
  DeploymentOptions opts;
  opts.full_slice = true;
  opts.boot_time = 90.0;
  Deployment dep(sim, opts);
  EXPECT_EQ(dep.client_count(), 25u);
  dep.boot();
  EXPECT_EQ(dep.broker().registered_clients().size(), 25u);
  // SC lookups still work inside the full slice.
  EXPECT_EQ(dep.network().topology().node(dep.sc(2).node()).profile().hostname,
            "planetlab1.hiit.fi");
}

TEST(Deployment, DeterministicAcrossSeeds) {
  auto petition_sample = [](std::uint64_t seed) {
    sim::Simulator sim(seed);
    Deployment dep(sim);
    return dep.network().sample_control_delay(dep.broker().node(), dep.sc(7).node());
  };
  EXPECT_DOUBLE_EQ(petition_sample(42), petition_sample(42));
  EXPECT_NE(petition_sample(42), petition_sample(43));
}

TEST(Deployment, Sc7PetitionDelayDwarfsSc2) {
  sim::Simulator sim(5);
  Deployment dep(sim);
  double sc7 = 0.0, sc2 = 0.0;
  for (int i = 0; i < 50; ++i) {
    sc7 += dep.network().sample_control_delay(dep.broker().node(), dep.sc(7).node());
    sc2 += dep.network().sample_control_delay(dep.broker().node(), dep.sc(2).node());
  }
  EXPECT_GT(sc7 / sc2, 50.0);
}

TEST(Deployment, ProfiledTeardownWithFlowInFlight) {
  // The registry outlives the deployment, as attach_metrics requires.
  // Tearing the deployment down mid-transfer cancels the flow, and the
  // re-level that follows opens a profiler span: the deployment's own
  // WallProfiler must still be alive when its clients go.
  obs::MetricRegistry registry;
  sim::Simulator sim(11);
  std::uint64_t relevels_before = 0;
  {
    Deployment dep(sim);
    dep.attach_metrics(registry, /*wall_profiling=*/true);
    dep.boot();
    transport::FileTransferConfig cfg;
    cfg.file_size = 50 * kMegabyte;
    cfg.parts = 4;
    dep.control().files().send_file(dep.sc_peer(2), cfg, [](const transport::TransferResult&) {});
    while (dep.network().flows().active_flows() == 0) ASSERT_EQ(sim.step(1), 1u);
    relevels_before = registry.find_histogram("profile.flows.relevel.wall_s")->count();
  }
  EXPECT_GT(registry.find_histogram("profile.flows.relevel.wall_s")->count(), relevels_before);
}

}  // namespace
}  // namespace peerlab::planetlab
