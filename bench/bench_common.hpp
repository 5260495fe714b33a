#pragma once

// Shared CLI plumbing for the figure benches: every binary accepts
//   --reps N    repetitions (default 5, like the paper)
//   --seed S    base seed (default 2007)
//   --threads T worker threads (default: hardware)
// and the ones built on experiments::World (figures, scenarios, the
// full slice) also honour
//   --profile   wall-clock span profiling (writes <name>.profile.txt)
//   --trace P   causal tracing: per-repetition JSONL dumps under the
//               path prefix P (see RunOptions::trace_path), with an
//               invariant watchdog online and postmortems armed
// while the others refuse both (refuse_observability). Each prints a
// paper-style table plus shape verdicts. Exit code 0 only if every
// shape check passes.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "peerlab/experiments/figures.hpp"
#include "peerlab/experiments/reporter.hpp"
#include "peerlab/obs/profile.hpp"

namespace peerlab::bench {

inline experiments::RunOptions parse_options(int argc, char** argv) {
  experiments::RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const auto arg = std::string(argv[i]);
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : "";
    };
    if (arg == "--reps") {
      options.repetitions = std::atoi(next());
    } else if (arg == "--seed") {
      options.base_seed = static_cast<std::uint64_t>(std::atoll(next()));
    } else if (arg == "--threads") {
      options.threads = static_cast<unsigned>(std::atoi(next()));
    } else if (arg == "--profile") {
      options.profile = true;
    } else if (arg == "--trace") {
      options.trace_path = next();
      if (options.trace_path.empty()) {  // else tracing would be silently off
        std::fprintf(stderr, "%s: --trace needs a path prefix\n", argv[0]);
        std::exit(2);
      }
    }
  }
  if (options.repetitions <= 0) options.repetitions = 5;
  return options;
}

/// For a binary that observes no world (the ablations, bench_scale):
/// --profile and --trace would have nothing to attach to, so either
/// one exits 2 before anything runs.
inline void refuse_observability(const experiments::RunOptions& options, const char* name) {
  if (!options.profile && options.trace_path.empty()) return;
  std::fprintf(stderr, "%s: --profile and --trace are not supported (no observed world)\n",
               name);
  std::exit(2);
}

/// Names of the SimpleClient peers, SC1..SC8.
inline const char* sc_name(int i) {
  static const char* kNames[8] = {"SC1", "SC2", "SC3", "SC4", "SC5", "SC6", "SC7", "SC8"};
  return kNames[i];
}

/// Scope guard wiring observability into a bench run: attaches a fresh
/// registry to `options` so the experiment drivers record into it, and
/// writes `<name>.metrics.json` (the registry's flat summary, diffable
/// by scripts/bench_compare.py) when main() returns. Under --profile it
/// additionally prints the flat wall-clock span table (self-time
/// ranked; see obs::profile_table) and writes it to <name>.profile.txt.
class BenchMetrics {
 public:
  BenchMetrics(experiments::RunOptions& options, std::string name)
      : profile_(options.profile), name_(std::move(name)) {
    options.metrics = &registry_;
  }
  ~BenchMetrics() {
    registry_.write_json(name_ + ".metrics.json", name_);
    if (!profile_) return;
    const std::string table = obs::profile_table(registry_);
    if (table.empty()) return;
    std::fprintf(stderr, "\n-- wall-clock profile (%s) --\n%s", name_.c_str(),
                 table.c_str());
    std::ofstream out(name_ + ".profile.txt");
    out << table;
  }

  BenchMetrics(const BenchMetrics&) = delete;
  BenchMetrics& operator=(const BenchMetrics&) = delete;

  [[nodiscard]] obs::MetricRegistry& registry() noexcept { return registry_; }

 private:
  obs::MetricRegistry registry_;
  bool profile_;
  std::string name_;
};

}  // namespace peerlab::bench
