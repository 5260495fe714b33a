#pragma once

// Experiment harness: repetition management with thread-level
// parallelism. The paper repeats each experiment 5 times and averages;
// we do the same (configurable), running independent repetitions —
// each with its own Simulator and deployment — on a thread pool.
// Results are collected by repetition index, so parallel and serial
// execution produce byte-identical statistics.

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "peerlab/common/check.hpp"
#include "peerlab/obs/metrics.hpp"
#include "peerlab/obs/trace.hpp"
#include "peerlab/obs/watchdog.hpp"
#include "peerlab/sim/summary.hpp"

namespace peerlab::planetlab {
class Deployment;
}  // namespace peerlab::planetlab

namespace peerlab::experiments {

struct RunOptions {
  int repetitions = 5;
  std::uint64_t base_seed = 2007;  // the paper's year
  /// 0 = one thread per repetition, capped at hardware concurrency.
  unsigned threads = 0;
  /// When set, each figure driver attaches its per-repetition
  /// deployments to fresh registries and folds them in here (see
  /// merge_metrics); instruments aggregate across repetitions. Must
  /// outlive the run. Null = observability off (the default).
  obs::MetricRegistry* metrics = nullptr;
  /// Wall-clock profiling: attach deployments with wall_profiling on,
  /// so the obs::WallProfiler span sites (profile.*) populate. Requires
  /// `metrics`; bench runners expose it as --profile and dump the span
  /// table (see bench_common.hpp).
  bool profile = false;
  /// When non-empty, each repetition stands up a TraceSession: a
  /// TraceRecorder + invariant Watchdog attached to the deployment,
  /// workload roots minted per transfer, and a byte-stable JSONL dump
  /// written to `<trace_path>[.<tag>][.rep<N>]` (the rep suffix only
  /// when repetitions > 1) with a postmortem armed at `<dump path>
  /// .postmortem.json`. Empty = tracing off (the default; every emit
  /// site then costs one null test and the figures are byte-identical
  /// to a build without tracing).
  std::string trace_path;
};

/// Seed for repetition `rep` under `options`.
[[nodiscard]] std::uint64_t repetition_seed(const RunOptions& options, int rep);

/// Per-repetition causal tracing bundle (see RunOptions::trace_path).
/// Inert — no recorder, no watchdog, no files — when trace_path is
/// empty, so figure drivers construct one unconditionally. Destroy (or
/// finish()) before the deployment: finish() finalizes the watchdog's
/// liveness sweep, writes the JSONL dump, and detaches the recorder.
class TraceSession {
 public:
  /// `tag` disambiguates several traced worlds within one repetition
  /// (e.g. fig6's model x granularity grid); empty for one-world runs.
  TraceSession(const RunOptions& options, sim::Simulator& sim, planetlab::Deployment& dep,
               int rep, const std::string& tag = "");
  ~TraceSession();

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  [[nodiscard]] bool active() const noexcept { return recorder_ != nullptr; }
  [[nodiscard]] obs::trace::TraceRecorder* recorder() noexcept { return recorder_.get(); }
  [[nodiscard]] obs::Watchdog* watchdog() noexcept { return watchdog_.get(); }
  /// Mints a fresh workload root; inactive context while detached.
  [[nodiscard]] obs::trace::TraceContext root();
  /// Registers the trace.* / watchdog.* counters in `registry` and
  /// embeds its snapshot in any postmortem. No-op while detached, so
  /// detached metrics exports stay byte-identical.
  void attach_metrics(obs::MetricRegistry& registry);
  /// Where the dump lands (empty while inactive).
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

  /// Finalizes the watchdog, writes the dump, detaches tracing from
  /// the deployment. Returns the violation count. Idempotent.
  std::uint64_t finish();

 private:
  planetlab::Deployment* dep_ = nullptr;
  std::string path_;
  std::unique_ptr<obs::trace::TraceRecorder> recorder_;
  std::unique_ptr<obs::Watchdog> watchdog_;
  bool finished_ = false;
};

/// Folds one repetition's registry into options.metrics — thread-safe
/// across concurrent repetitions, a no-op when metrics is null. A
/// non-empty `suffix` (e.g. ".economic") is appended to every
/// instrument name, giving per-variant series from per-world
/// registries that all use the generic names.
void merge_metrics(const RunOptions& options, const obs::MetricRegistry& rep_registry,
                   const std::string& suffix = "");

/// Runs `body(seed, rep)` once per repetition across a thread pool and
/// returns the results ordered by repetition index. `Result` must be
/// movable; `body` must be thread-safe with respect to *shared* state
/// (each repetition should build its own world).
template <typename Result>
std::vector<Result> run_repetitions(const RunOptions& options,
                                    const std::function<Result(std::uint64_t, int)>& body) {
  PEERLAB_CHECK_MSG(options.repetitions > 0, "need at least one repetition");
  const int reps = options.repetitions;
  std::vector<Result> results(static_cast<std::size_t>(reps));

  unsigned threads = options.threads;
  if (threads == 0) {
    threads = std::min<unsigned>(static_cast<unsigned>(reps),
                                 std::max(1u, std::thread::hardware_concurrency()));
  }
  threads = std::max(1u, std::min<unsigned>(threads, static_cast<unsigned>(reps)));

  if (threads == 1) {
    for (int rep = 0; rep < reps; ++rep) {
      results[static_cast<std::size_t>(rep)] = body(repetition_seed(options, rep), rep);
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
          results[static_cast<std::size_t>(rep)] = body(repetition_seed(options, rep), rep);
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
  return results;
}

/// Collapses per-repetition samples of one metric into a Summary.
[[nodiscard]] sim::Summary summarize(const std::vector<double>& samples);

}  // namespace peerlab::experiments
