#pragma once

// One experiment world: the protocol every Section 4 driver runs. A
// World owns a simulator, the registry its deployment records into and
// the paper's deployment (SC1..SC8 under one broker, or whatever the
// DeploymentOptions ask for), plus the deployment's tracing once
// observed. The phases the drivers share live here once: observe
// (metrics, profiling, tracing from RunOptions), the warm-up that
// gives the broker its history, model binding, the broker-mediated
// share-holder selection, the profiled run, and finish, which hands
// the registry to the repetition's ordered metrics fold.
//
// Members are declared, and therefore destroyed, so that everything
// the deployment records into outlives it: a world torn down with a
// flow in flight (a failed PEERLAB_CHECK unwinding mid-run) cancels
// the flow into a live registry, with tracing already detached.

#include <memory>
#include <string>
#include <vector>

#include "peerlab/experiments/harness.hpp"
#include "peerlab/obs/trace.hpp"
#include "peerlab/obs/watchdog.hpp"
#include "peerlab/planetlab/deployment.hpp"

namespace peerlab::experiments {

/// The selection models a world can bind at its brokers.
enum class Model : int {
  kEconomic = 0,
  kSamePriority = 1,
  kQuickPeer = 2,
  kHybrid = 3,
  kBlind = 4,
};
/// Names of the paper's three models (Figure 6), the first three
/// enumerators: the rows fig6 and the churn sweep print and the
/// suffixes of their metric series.
inline constexpr const char* kModelNames[3] = {"economic", "same-priority", "quick-peer"};

/// Transfer knobs for the failover workloads (churn, adversarial): a
/// petition gives up after four attempts from a 15 s timeout growing
/// 1.5x (about two minutes), so a dead or refusing peer triggers
/// failover instead of a quarter hour of retries, and a part gets a
/// bounded retransmission budget.
[[nodiscard]] transport::FileTransferConfig failover_transfer();
/// The matching share failover policy: four substitutes per share,
/// 10 s backoff doubling to a 120 s cap.
[[nodiscard]] overlay::DistributionOptions failover_options();

class World {
 public:
  World(const RunOptions& options, std::uint64_t seed,
        planetlab::DeploymentOptions deployment = {});
  /// A world destroyed unfinished (a failed check unwinding) detaches
  /// its tracing and writes no dump: the check has already written the
  /// postmortem that observe() armed.
  ~World();

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  [[nodiscard]] sim::Simulator& sim() noexcept { return sim_; }
  [[nodiscard]] planetlab::Deployment& dep() noexcept { return dep_; }

  /// Attaches what RunOptions asks for from this point on: metrics
  /// (and wall profiling) into the world's registry, and tracing with
  /// its dump at `<trace_path>[.<tag>][.rep<N>]`. Called once; before
  /// boot to cover everything, or later to cover only the measured
  /// window. finish() stages the registry in `rep`.
  void observe(Repetition& rep, const std::string& tag = "");
  /// Mints a workload root; inactive while untraced.
  [[nodiscard]] obs::trace::TraceContext root();

  /// The simulation runs, inside the profiler's "run" span.
  void run();
  void run_until(Seconds horizon);

  /// Gives the broker a record of every SC: 10 s from now, `rounds`
  /// transfers of `cfg` plus a chat to SC1, then SC2, ..., one every
  /// `spacing` seconds, and runs one more `spacing` past the last.
  void warm_up(const transport::FileTransferConfig& cfg, int rounds, Seconds spacing);

  /// Binds `model` at every broker, standbys included. Quick-peer
  /// freezes each broker's own history of SC1..SC8 as it stands now.
  void bind(Model model);

  struct Selection {
    std::vector<PeerId> peers;  // at most k, never empty
    Seconds elapsed = 0.0;      // petition to reply
  };
  /// Asks the broker over the wire for `k` peers (ctx.now is set to
  /// now) and runs `window` seconds; checks the reply arrived.
  Selection select(core::SelectionContext ctx, std::size_t k, Seconds window);

  /// Finalizes the watchdog, writes the trace dump and detaches the
  /// recorder; then hands the registry to the repetition passed to
  /// observe(), its instrument names to carry `suffix` in the fold.
  void finish(const std::string& suffix = "");

 private:
  const RunOptions& options_;
  sim::Simulator sim_;
  std::unique_ptr<obs::MetricRegistry> registry_;
  planetlab::Deployment dep_;
  std::unique_ptr<obs::trace::TraceRecorder> recorder_;
  std::unique_ptr<obs::Watchdog> watchdog_;
  std::string trace_path_;
  Repetition* rep_ = nullptr;
};

}  // namespace peerlab::experiments
