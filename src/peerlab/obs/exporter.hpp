#pragma once

// SnapshotExporter: periodic time-series dumps of a MetricRegistry.
//
// A daemon event snapshots every instrument each `period` of virtual
// time (daemon, so exporting never keeps a simulation alive). Rows
// accumulate in memory as `time,metric,stat,value` and can be written
// as CSV at the end; the final JSON summary is the registry's own
// json() (bench_compare-compatible).

#include <string>
#include <string_view>
#include <vector>

#include "peerlab/common/units.hpp"
#include "peerlab/obs/metrics.hpp"
#include "peerlab/sim/simulator.hpp"

namespace peerlab::obs {

class SnapshotExporter {
 public:
  struct Options {
    Seconds period = 10.0;  // virtual seconds between snapshots
  };

  /// Schedules the first snapshot `period` from now. The registry and
  /// simulator must outlive the exporter; the exporter must be
  /// destroyed (or the sim drained) before the registry dies.
  SnapshotExporter(sim::Simulator& sim, const MetricRegistry& registry);
  SnapshotExporter(sim::Simulator& sim, const MetricRegistry& registry, Options options);

  SnapshotExporter(const SnapshotExporter&) = delete;
  SnapshotExporter& operator=(const SnapshotExporter&) = delete;
  ~SnapshotExporter();

  /// Appends one snapshot of every instrument at the current virtual
  /// time (also called by the periodic daemon).
  void snapshot_now();

  struct Row {
    Seconds time;
    std::string metric;
    std::string stat;  // "value" | "count" | "mean" | "p50" | "p90" | "p99" | "min" | "max"
    double value;
  };
  [[nodiscard]] const std::vector<Row>& rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t snapshots_taken() const noexcept { return snapshots_; }

  /// Time-series CSV: header `time,metric,stat,value`, one row per
  /// instrument stat per snapshot. Metric names are RFC-4180 quoted.
  [[nodiscard]] std::string csv() const;
  void write_csv(const std::string& path) const;

  /// Final JSON summary: MetricRegistry::json.
  [[nodiscard]] std::string json(std::string_view label = "") const;
  void write_json(const std::string& path, std::string_view label = "") const;

 private:
  void arm();

  sim::Simulator& sim_;
  const MetricRegistry& registry_;
  Options options_;
  sim::EventHandle timer_;
  std::vector<Row> rows_;
  std::size_t snapshots_ = 0;
};

}  // namespace peerlab::obs
