#pragma once

// Experiment harness: repetition management with thread-level
// parallelism. The paper repeats each experiment 5 times and averages;
// we do the same (configurable), running independent repetitions —
// each with its own worlds (experiments::World) — on a thread pool.
// Results are collected by repetition index and the worlds' metrics
// fold in (repetition, world) order after the pool joins, so parallel
// and serial execution produce byte-identical statistics and
// byte-identical metrics exports.

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "peerlab/common/check.hpp"
#include "peerlab/obs/metrics.hpp"
#include "peerlab/sim/summary.hpp"

namespace peerlab::experiments {

struct RunOptions {
  int repetitions = 5;
  std::uint64_t base_seed = 2007;  // the paper's year
  /// 0 = one thread per repetition, capped at hardware concurrency.
  unsigned threads = 0;
  /// When set, every observed world (World::observe) records into a
  /// fresh registry, and the registries fold in here (fold_metrics);
  /// instruments aggregate across repetitions. Must outlive the run.
  /// Null = observability off (the default).
  obs::MetricRegistry* metrics = nullptr;
  /// Wall-clock profiling: attach deployments with wall_profiling on,
  /// so the obs::WallProfiler span sites (profile.*) populate. Requires
  /// `metrics`; bench runners expose it as --profile and dump the span
  /// table (see bench_common.hpp).
  bool profile = false;
  /// When non-empty, every observed world attaches a TraceRecorder +
  /// invariant Watchdog, mints workload roots per transfer, and writes
  /// a byte-stable JSONL dump to `<trace_path>[.<tag>][.rep<N>]` (the
  /// rep suffix only when repetitions > 1) with a postmortem armed at
  /// `<dump path>.postmortem.json`. Empty = tracing off (the default;
  /// every emit site then costs one null test and the figures are
  /// byte-identical to a build without tracing).
  std::string trace_path;
};

/// Seed for repetition `rep` under `options`.
[[nodiscard]] std::uint64_t repetition_seed(const RunOptions& options, int rep);

/// One repetition of a run: its index, its seed, and the registries
/// its worlds hand over at World::finish, in finish order, each with
/// the suffix appended to its instrument names when folded.
struct Repetition {
  int index = 0;
  std::uint64_t seed = 0;
  std::vector<std::pair<std::unique_ptr<obs::MetricRegistry>, std::string>> staged;
};

/// Folds `rep`'s staged registries into options.metrics in staging
/// order and releases them. run_repetitions calls it on one thread in
/// repetition order, so every run performs the serial merge sequence.
void fold_metrics(const RunOptions& options, Repetition& rep);

/// Runs `body(rep)` once per repetition across a thread pool and
/// returns the results ordered by repetition index. `Result` must be
/// movable; `body` must be thread-safe with respect to *shared* state
/// (each repetition should build its own worlds).
template <typename Result>
std::vector<Result> run_repetitions(const RunOptions& options,
                                    const std::function<Result(Repetition&)>& body) {
  PEERLAB_CHECK_MSG(options.repetitions > 0, "need at least one repetition");
  const int reps = options.repetitions;
  std::vector<Result> results(static_cast<std::size_t>(reps));
  std::vector<Repetition> slots(static_cast<std::size_t>(reps));
  for (int rep = 0; rep < reps; ++rep) {
    slots[static_cast<std::size_t>(rep)].index = rep;
    slots[static_cast<std::size_t>(rep)].seed = repetition_seed(options, rep);
  }

  unsigned threads = options.threads;
  if (threads == 0) {
    threads = std::min<unsigned>(static_cast<unsigned>(reps),
                                 std::max(1u, std::thread::hardware_concurrency()));
  }
  threads = std::max(1u, std::min<unsigned>(threads, static_cast<unsigned>(reps)));

  if (threads == 1) {
    for (int rep = 0; rep < reps; ++rep) {
      results[static_cast<std::size_t>(rep)] = body(slots[static_cast<std::size_t>(rep)]);
      fold_metrics(options, slots[static_cast<std::size_t>(rep)]);
    }
    return results;
  }

  std::atomic<int> next{0};
  std::vector<std::thread> pool;
  pool.reserve(threads);
  std::vector<std::exception_ptr> errors(threads);
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      try {
        while (true) {
          const int rep = next.fetch_add(1);
          if (rep >= reps) break;
          results[static_cast<std::size_t>(rep)] = body(slots[static_cast<std::size_t>(rep)]);
        }
      } catch (...) {
        errors[t] = std::current_exception();
      }
    });
  }
  for (auto& worker : pool) worker.join();
  for (const auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  for (auto& slot : slots) fold_metrics(options, slot);
  return results;
}

/// Collapses per-repetition samples of one metric into a Summary.
[[nodiscard]] sim::Summary summarize(const std::vector<double>& samples);

}  // namespace peerlab::experiments
