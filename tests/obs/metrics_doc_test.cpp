// docs/METRICS.md is the operator-facing instrument catalogue; this
// test keeps it honest. It builds a fully-instrumented deployment
// (network + flow scheduler with wall profiling, primary + standby
// brokers with the replica set, clients, an installed fault injector
// and an installed adversary engine), dumps the registry inventory
// with describe(), and diffs
// it against the doc's tables in both directions: an instrument added
// to the code must be documented, and a documented instrument must
// still exist with the same kind and unit.

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "peerlab/net/fault_plan.hpp"
#include "peerlab/obs/metrics.hpp"
#include "peerlab/obs/trace.hpp"
#include "peerlab/obs/watchdog.hpp"
#include "peerlab/planetlab/deployment.hpp"

namespace peerlab::obs {
namespace {

std::string trim(const std::string& s) {
  const std::size_t b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  const std::size_t e = s.find_last_not_of(" \t");
  return s.substr(b, e - b + 1);
}

/// Parses "name<TAB>kind<TAB>unit" rows out of the doc's markdown
/// tables: every body row leads with a back-ticked instrument name.
std::set<std::string> parse_doc(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::set<std::string> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("| `", 0) != 0) continue;
    std::vector<std::string> cells;
    std::stringstream ss(line.substr(1));  // drop the leading '|'
    std::string cell;
    while (std::getline(ss, cell, '|')) cells.push_back(trim(cell));
    if (cells.size() < 3) {
      ADD_FAILURE() << "malformed catalogue row: " << line;
      continue;
    }
    std::string name = cells[0];
    if (name.size() < 2 || name.front() != '`' || name.back() != '`') {
      ADD_FAILURE() << "instrument name must be back-ticked: " << line;
      continue;
    }
    name = name.substr(1, name.size() - 2);
    rows.insert(name + "\t" + cells[1] + "\t" + cells[2]);
  }
  return rows;
}

TEST(MetricsDoc, CatalogueMatchesRegisteredInstruments) {
  obs::MetricRegistry registry;  // outlives the deployment it observes
  sim::Simulator sim(1);
  planetlab::DeploymentOptions options;
  options.standby_brokers = 1;  // replication instruments included
  planetlab::Deployment dep(sim, options);
  dep.attach_metrics(registry, /*wall_profiling=*/true);
  net::FaultPlan plan;  // a late no-op event: registers the faults.* counters
  plan.crash(1e9, dep.client_nodes().front(), 1.0);
  dep.install_faults(std::move(plan));
  adversary::BehaviorPlan hostile;  // likewise for the adversary.* counters
  hostile.free_rider(dep.sc_peer(1), /*from=*/1e9);
  dep.install_adversaries(std::move(hostile));
  trace::TraceRecorder recorder(sim);  // trace.* + watchdog.* counters
  Watchdog watchdog(recorder);
  recorder.attach_metrics(registry);
  watchdog.attach_metrics(registry);

  std::set<std::string> registered;
  {
    std::stringstream dump(registry.describe());
    std::string line;
    while (std::getline(dump, line)) {
      if (!line.empty()) registered.insert(line);
    }
  }
  ASSERT_FALSE(registered.empty());

  const std::set<std::string> documented =
      parse_doc(std::string(PEERLAB_SOURCE_DIR) + "/docs/METRICS.md");

  for (const std::string& row : registered) {
    EXPECT_TRUE(documented.count(row) > 0)
        << "instrument registered but missing (or kind/unit stale) in "
           "docs/METRICS.md: "
        << row;
  }
  for (const std::string& row : documented) {
    EXPECT_TRUE(registered.count(row) > 0)
        << "docs/METRICS.md documents an instrument the code no longer "
           "registers (or with a stale kind/unit): "
        << row;
  }
}

}  // namespace
}  // namespace peerlab::obs
