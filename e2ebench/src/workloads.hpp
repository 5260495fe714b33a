#pragma once

// One round of a workload: build every world, boot it until each
// client is registered, serve the petition schedule open-loop on the
// simulated clock in fixed run_until slices, check the outputs, tear
// down. A round is a deterministic function of its Inputs: the digest
// and the simulated petition latencies repeat bit for bit, traced or
// not.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "inputs.hpp"

namespace e2ebench {

struct RoundOptions {
  /// Attach a MetricRegistry (wall profiling on) to every world, time
  /// the benchmark's own spans on its profiler, and probe the broker's
  /// snapshot_group() / rendezvous size. Detached otherwise.
  bool traced = false;
  /// Tear every world down halfway through its schedule, with
  /// petitions and transfers still in flight (sanitizer self-test).
  bool abandon = false;
  /// Build and boot every world, then tear it down without serving:
  /// extra set-up samples for a steadier setup_s.
  bool setup_only = false;
};

struct RoundResult {
  // Host seconds per phase, summed over worlds.
  double build_s = 0.0;
  double boot_s = 0.0;
  double warmup_s = 0.0;
  double serve_s = 0.0;
  double teardown_s = 0.0;
  double total_s = 0.0;
  /// Per world, in world order: host seconds of build + boot.
  std::vector<double> world_setup_s;

  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  /// Simulated seconds from each completed petition's due time to its
  /// last confirmed part, in petition order.
  std::vector<double> latency_s;
  /// Each petition's selected peers and completion-time bits.
  std::uint64_t digest = 0;

  /// Simulator events executed while serving.
  std::uint64_t events = 0;
  std::size_t pending_peak = 0;
  /// Host seconds per simulated run_until slice, over every world's
  /// serving phase in order.
  std::vector<double> slice_s;

  // Traced rounds only.
  /// Host seconds per snapshot_group() probe.
  std::vector<double> snapshot_s;
  std::size_t rendezvous_peak = 0;
  /// Registry readout: counters and gauges by name; histograms as
  /// <name>.p50 / .p99 / .count.
  std::map<std::string, double> registry;

  std::vector<std::string> violations;

  [[nodiscard]] double value(const std::string& name) const {
    const auto it = registry.find(name);
    return it == registry.end() ? 0.0 : it->second;
  }
};

[[nodiscard]] RoundResult run_round(const Inputs& inputs, const RoundOptions& options);

}  // namespace e2ebench
