#pragma once

// peerlab::econ — deadline/budget-constrained economic workloads.
//
// The paper's "economic" model is economic in name only: no budget or
// deadline ever binds in the PlanetLab experiments. This subsystem adds
// the missing pressure, after Buyya, Abramson & Giddy's deadline/
// budget-constrained (DBC) scheduling from the Nimrod-G resource
// broker:
//
//   * PriceBook — seeded, deterministic per-peer price schedules. A
//     peer's unit price is a pure function of (pricing seed, peer id,
//     advertised CPU, observed load, reputation), so repeated quotes
//     for an unchanged peer are identical and seeded runs replay
//     bit for bit.
//   * EconEngine — appraises every candidate the selection model
//     ranked (ready/service-time estimators shared with the core
//     economic model, cost from the price book), filters by the
//     petition's deadline and budget, and re-ranks the feasible set by
//     a DBC objective: cost-optimise, time-optimise, cost-time, or a
//     Dubey–Tokekar real-time efficiency score (latency + capability
//     + availability).
//   * Ledger — bench-side accounting of deadline misses and budget
//     violations against actual outcomes.
//
// Layering contract: the engine acts only on petitions that carry an
// economic constraint (SelectionContext::econ_constrained()); every
// other petition takes the pristine selection path bit for bit, and a
// broker with `enabled = false` never consults the engine at all. The
// engine re-orders the model's ranking but never invents candidates
// and never refuses service — when every candidate is infeasible the
// model's own order stands (the paper's broker always answers) and the
// petition is counted as exhausted.

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "peerlab/common/ids.hpp"
#include "peerlab/common/units.hpp"
#include "peerlab/core/economic.hpp"
#include "peerlab/core/snapshot.hpp"
#include "peerlab/obs/metrics.hpp"

namespace peerlab::econ {

struct PricingConfig {
  /// Seed for the per-peer base price draw. Changing it re-rolls every
  /// peer's price; the same seed always yields the same schedule.
  std::uint64_t seed = 0x9e3779b97f4a7c15ULL;
  /// Base unit price (credits per charged second) is drawn uniformly
  /// from [base_min, base_max] per peer.
  double base_min = 0.5;
  double base_max = 2.0;
  /// Fraction of the price that scales with advertised CPU relative to
  /// `reference_cpu_ghz` (fast peers charge more): 0 = flat pricing,
  /// 1 = fully CPU-proportional.
  double cpu_coupling = 0.5;
  GigaHertz reference_cpu_ghz = 1.0;
  /// Congestion surcharge per queued task / inbound transfer: a busy
  /// peer quotes `1 + busy_surcharge * backlog` times its base price.
  double busy_surcharge = 0.1;
  /// Reputation scaling (needs the PR 7 ReputationBook feeding
  /// snapshots): a distrusted peer discounts to stay attractive,
  /// `1 - reputation_discount * (1 - reputation)` of its price. 0 (the
  /// default) ignores reputation exactly.
  double reputation_discount = 0.0;
};

/// Deterministic per-peer price schedule. Stateless — every query is a
/// pure function of the config and the snapshot.
class PriceBook {
 public:
  explicit PriceBook(PricingConfig config = {}) : config_(config) {}

  /// Credits per charged second for this peer right now.
  [[nodiscard]] double unit_price(const core::PeerSnapshot& peer) const noexcept;

  /// The seeded base draw alone (no CPU / load / reputation scaling).
  [[nodiscard]] double base_price(PeerId peer) const noexcept;

  [[nodiscard]] const PricingConfig& config() const noexcept { return config_; }

 private:
  PricingConfig config_;
};

struct EconConfig {
  /// Master toggle. Off (the default) means the broker never consults
  /// the engine: selection is bit-identical to a build without the
  /// subsystem, even for petitions that carry deadlines or budgets.
  bool enabled = false;
  /// Objective applied when the petition says kBrokerDefault.
  core::EconObjective default_objective = core::EconObjective::kCostTime;
  PricingConfig pricing;
  /// Feeds the shared ready/service-time estimators (history depth,
  /// no-history fallbacks, transfer drain).
  core::EconomicConfig estimator;
  /// Dubey–Tokekar efficiency weights: responsiveness (1 / (1 + mean
  /// response time)), capability (CPU normalized over the candidate
  /// set), availability (idle, discounted by backlog).
  double efficiency_latency_weight = 0.4;
  double efficiency_capability_weight = 0.3;
  double efficiency_availability_weight = 0.3;
  /// How long an assignment the broker just handed out keeps counting
  /// as backlog on the assigned peer. Broker snapshots only refresh on
  /// heartbeats, so without this hint a burst of petitions all see the
  /// same stale "idle" peer and pile onto it; with it, each assignment
  /// immediately raises the peer's appraised queue (and price
  /// surcharge) until either the hold expires or the real heartbeat
  /// catches up. 0 disables the hints.
  Seconds assignment_hold = 30.0;
};

/// One candidate's economic appraisal for one petition.
struct Appraisal {
  Seconds ready = 0.0;       ///< queue drain before work can start
  Seconds service = 0.0;     ///< expected execution / transfer time
  Seconds completion = 0.0;  ///< absolute predicted finish (context.now + ready + service)
  double cost = 0.0;         ///< quoted charge for the whole job
  bool meets_deadline = true;
  bool within_budget = true;

  [[nodiscard]] bool feasible() const noexcept { return meets_deadline && within_budget; }
};

class EconEngine {
 public:
  explicit EconEngine(EconConfig config = {});

  /// True only for an enabled engine seeing an economically-constrained
  /// petition — the exact gate the broker keys its econ path on.
  [[nodiscard]] bool applies(const core::SelectionContext& context) const noexcept {
    return config_.enabled && context.econ_constrained();
  }

  /// Appraise one candidate against one petition.
  [[nodiscard]] Appraisal appraise(const core::PeerSnapshot& peer,
                                   const core::SelectionContext& context) const;

  /// Dubey–Tokekar real-time efficiency score in [0, 1]; `max_cpu` is
  /// the fastest advertised CPU in the candidate set (capability is
  /// set-normalized).
  [[nodiscard]] double efficiency_score(const core::PeerSnapshot& peer, GigaHertz max_cpu) const;

  struct Verdict {
    std::size_t appraised = 0;  ///< candidates considered
    std::size_t feasible = 0;   ///< candidates meeting deadline and budget
    /// No candidate was feasible: the model's own order was left
    /// untouched (least-bad service, never a refusal).
    bool exhausted = false;
  };

  /// Re-orders `ranking` (the model's output over `candidates`) in
  /// place: feasible candidates first, sorted by the petition's
  /// objective with the model's order breaking ties, then infeasible
  /// candidates in model order. `ranking` must only contain peers
  /// present in `candidates` (any order; a peer listed twice resolves
  /// to its first snapshot). Allocation-free once warmed: unexpired
  /// hints are counted once per petition, candidates are found by
  /// position, and every intermediate lives in member scratch.
  Verdict admit_and_rank(std::span<const core::PeerSnapshot> candidates,
                         const core::SelectionContext& context,
                         std::vector<PeerId>& ranking);

  /// The effective objective for a petition (kBrokerDefault resolves
  /// to the configured default).
  [[nodiscard]] core::EconObjective objective_for(
      const core::SelectionContext& context) const noexcept;

  /// Records that the broker just assigned work to `peer`. Until
  /// `now + assignment_hold` the peer appraises as one job busier than
  /// its (heartbeat-stale) snapshot claims. Called by the broker after
  /// each econ selection; no-op when `assignment_hold` is 0.
  void note_assignment(PeerId peer, Seconds now);

  /// Unexpired assignment hints against `peer` at `now`.
  [[nodiscard]] int pending_assignments(PeerId peer, Seconds now) const noexcept;

  /// The snapshot the engine actually appraises: the broker's view
  /// plus any unexpired assignment hints folded into the backlog.
  [[nodiscard]] core::PeerSnapshot loaded_view(const core::PeerSnapshot& peer,
                                               Seconds now) const;

  [[nodiscard]] const EconConfig& config() const noexcept { return config_; }
  [[nodiscard]] const PriceBook& prices() const noexcept { return prices_; }

  [[nodiscard]] std::uint64_t petitions() const noexcept { return petitions_; }
  [[nodiscard]] std::uint64_t admitted() const noexcept { return admitted_; }
  [[nodiscard]] std::uint64_t rejected() const noexcept { return rejected_; }
  [[nodiscard]] std::uint64_t exhausted() const noexcept { return exhausted_; }

  /// Registers the engine's instruments (shared by name across brokers
  /// of a deployment). Zero-cost when never called; instruments exist
  /// even for a disabled engine so dashboards read zeros, not holes.
  void attach_metrics(obs::MetricRegistry& registry);

 private:
  /// `peer` with `pending` (> 0) assignment hints folded in.
  [[nodiscard]] static core::PeerSnapshot with_hints(const core::PeerSnapshot& peer,
                                                     int pending);
  /// appraise() of a snapshot whose hints are already folded in.
  [[nodiscard]] Appraisal appraise_view(const core::PeerSnapshot& view,
                                        const core::SelectionContext& context) const;
  /// Position of `peer` in the span index_candidates() last indexed.
  [[nodiscard]] std::size_t position_of(PeerId peer) const;
  void index_candidates(std::span<const core::PeerSnapshot> candidates);

  struct Metrics {
    obs::Counter* petitions = nullptr;
    obs::Counter* admitted = nullptr;
    obs::Counter* rejected = nullptr;
    obs::Counter* exhausted = nullptr;
    obs::Histogram* quoted_cost = nullptr;
    obs::Histogram* predicted_completion = nullptr;
  };

  EconConfig config_;
  PriceBook prices_;
  /// Ready/service-time estimators shared with the paper's economic
  /// model — never used for ranking, only for appraisal.
  core::EconomicSchedulingModel estimators_;
  Metrics m_;
  std::uint64_t petitions_ = 0;
  std::uint64_t admitted_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t exhausted_ = 0;

  /// Scratch reused across petitions (single-threaded broker).
  struct Entry {
    PeerId peer;
    std::size_t model_rank = 0;
    std::size_t position = 0;  ///< index into the candidate span
    Appraisal appraisal;
    double efficiency = 0.0;
  };
  std::vector<Entry> entries_;
  std::vector<Entry> infeasible_;  ///< stable-partition spill
  /// (peer, position) over the petition's candidates, sorted.
  std::vector<std::pair<PeerId, std::size_t>> positions_;
  /// Unexpired hints per candidate position.
  std::vector<int> pending_;

  /// Outstanding assignment hints, pruned lazily on each note.
  struct Hint {
    PeerId peer;
    Seconds expires = 0.0;
  };
  std::vector<Hint> hints_;
};

/// Bench-side accounting of actual outcomes against the contract each
/// petition carried. Pure arithmetic — unit-testable without a
/// deployment.
class Ledger {
 public:
  struct Job {
    Seconds deadline = 0.0;  ///< absolute; 0 = unconstrained
    double budget = 0.0;     ///< 0 = unconstrained
    Seconds finished = 0.0;  ///< absolute completion time (if completed)
    double cost = 0.0;       ///< what was actually charged
    bool completed = false;
  };

  void record(const Job& job);

  [[nodiscard]] std::size_t jobs() const noexcept { return jobs_; }
  [[nodiscard]] std::size_t completions() const noexcept { return completions_; }
  [[nodiscard]] std::size_t deadline_jobs() const noexcept { return deadline_jobs_; }
  [[nodiscard]] std::size_t deadline_misses() const noexcept { return deadline_misses_; }
  [[nodiscard]] std::size_t budget_jobs() const noexcept { return budget_jobs_; }
  [[nodiscard]] std::size_t budget_violations() const noexcept { return budget_violations_; }
  [[nodiscard]] double total_cost() const noexcept { return total_cost_; }

  /// Misses over deadline-carrying jobs (an incomplete job with a
  /// deadline is a miss); 0 when no job carried a deadline.
  [[nodiscard]] double deadline_miss_rate() const noexcept;
  /// Violations over budget-carrying jobs; 0 when no job carried one.
  [[nodiscard]] double budget_violation_rate() const noexcept;
  [[nodiscard]] double completion_rate() const noexcept;
  [[nodiscard]] double mean_cost() const noexcept;

  void merge(const Ledger& other);

 private:
  std::size_t jobs_ = 0;
  std::size_t completions_ = 0;
  std::size_t deadline_jobs_ = 0;
  std::size_t deadline_misses_ = 0;
  std::size_t budget_jobs_ = 0;
  std::size_t budget_violations_ = 0;
  double total_cost_ = 0.0;
};

}  // namespace peerlab::econ
