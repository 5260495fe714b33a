#include "peerlab/obs/exporter.hpp"

#include <gtest/gtest.h>

#include "peerlab/sim/simulator.hpp"

namespace peerlab::obs {
namespace {

TEST(SnapshotExporter, PeriodicRowsAndCsv) {
  sim::Simulator sim;
  MetricRegistry reg;
  Counter& sent = reg.counter("net.datagrams_sent");
  Histogram& lat = reg.histogram("lat", "s");

  SnapshotExporter::Options opts;
  opts.period = 1.0;
  SnapshotExporter exporter(sim, reg, opts);

  sim.schedule(0.5, [&] { sent.add(2); });
  sim.schedule(1.5, [&] {
    sent.add(3);
    lat.record(0.25);
  });
  sim.schedule(3.5, [&] {});  // keep non-daemon work alive past t=3
  sim.run();

  // Snapshots at t=1, 2, 3 (daemon fires while real work remains).
  EXPECT_EQ(exporter.snapshots_taken(), 3u);
  const auto& rows = exporter.rows();
  ASSERT_FALSE(rows.empty());
  // First snapshot sees only the t=0.5 increment.
  EXPECT_EQ(rows[0].metric, "net.datagrams_sent");
  EXPECT_DOUBLE_EQ(rows[0].time, 1.0);
  EXPECT_DOUBLE_EQ(rows[0].value, 2.0);

  const std::string csv = exporter.csv();
  EXPECT_NE(csv.find("time,metric,stat,value\n"), std::string::npos);
  EXPECT_NE(csv.find("1,net.datagrams_sent,value,2"), std::string::npos);
  EXPECT_NE(csv.find("2,net.datagrams_sent,value,5"), std::string::npos);
  EXPECT_NE(csv.find("lat,p50"), std::string::npos);
}

TEST(SnapshotExporter, DestructionCancelsDaemon) {
  sim::Simulator sim;
  MetricRegistry reg;
  reg.counter("c");
  {
    SnapshotExporter exporter(sim, reg);
  }
  // The daemon's closure captured the dead exporter; running must not
  // touch it (the handle was cancelled).
  sim.schedule(30.0, [] {});
  sim.run();
}

TEST(SnapshotExporter, ExporterNeverKeepsSimAlive) {
  sim::Simulator sim;
  MetricRegistry reg;
  reg.counter("c");
  SnapshotExporter exporter(sim, reg);
  // No real work: run() must return immediately with zero snapshots.
  sim.run();
  EXPECT_EQ(exporter.snapshots_taken(), 0u);
}

}  // namespace
}  // namespace peerlab::obs
