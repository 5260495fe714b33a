#pragma once

// ReputationBook — broker-side observed-outcome reputation.
//
// The five selection models trust what peers advertise; a free-rider
// that accepts shares and never confirms them, or a client that
// heartbeats "idle, empty queues" while saturated, games every one of
// them. The book defends with signals the broker can *verify*:
// attributed share failures (failovers, aborted transfers, unanswered
// petitions), attributed successes, measured-vs-track-record transfer
// throughput from sender-verified TransferRecords, and protocol
// violations in the reporting path (a peer praising itself with
// history fields only counterparties may report).
//
// Scores live in [0, 1] (1 = spotless) and decay exponentially toward
// neutral between observations, so a slandered or recovered peer earns
// its way back. A score crossing `quarantine_below` quarantines the
// peer for `quarantine_duration`; expiry lifts the score to a
// probation value rather than full trust. Everything is a
// deterministic function of the observation sequence — no RNG — so
// seeded runs replay bit-for-bit.

#include <functional>
#include <vector>

#include "peerlab/common/ids.hpp"
#include "peerlab/common/units.hpp"
#include "peerlab/obs/metrics.hpp"
#include "peerlab/stats/history.hpp"

namespace peerlab::overlay {

struct ReputationConfig {
  /// Master defense toggle. Off (the default) means the book is never
  /// updated or consulted: selection, statistics and history behave
  /// bit-identically to a build without the subsystem.
  bool enabled = false;
  /// Score of a never-observed peer.
  double initial = 1.0;
  /// Subtracted on an attributed failure (failed share, failed
  /// message, failed execution).
  double failure_penalty = 0.25;
  /// Added back on an attributed success (completed share/execution).
  double success_reward = 0.05;
  /// Subtracted when a reporter praises itself with counterparty-only
  /// history fields (transfer records, response times, completions).
  double lie_penalty = 0.4;
  /// A completed transfer whose measured rate falls below
  /// `shortfall_threshold` x the peer's own rate track record counts
  /// as a throttle; `shortfall_penalty` is subtracted.
  double shortfall_threshold = 0.5;
  double shortfall_penalty = 0.15;
  /// Quarantine trigger and duration; expiry lifts the score to
  /// `probation_score` (not full trust).
  double quarantine_below = 0.3;
  Seconds quarantine_duration = 900.0;
  double probation_score = 0.5;
  /// Half-life of the decay toward neutral (1.0) between observations;
  /// 0 disables decay.
  Seconds decay_half_life = 3600.0;
  /// The SelectionContext::reputation_weight a defended broker applies
  /// when ranking (see core/snapshot.hpp).
  double rank_penalty_weight = 2.0;
};

class ReputationBook {
 public:
  explicit ReputationBook(ReputationConfig config = {}) : config_(config) {}

  // ---- observation feed ----
  // Each rejects a peer id at or past kDensePeerIds with a check.
  void record_success(PeerId peer, Seconds now);
  void record_failure(PeerId peer, Seconds now);
  /// Protocol violation in the reporting path (self-praise).
  void record_lie(PeerId peer, Seconds now);
  /// Sender-verified transfer outcome: failures penalize, completions
  /// reward — unless the measured rate falls far below the peer's own
  /// track record, which counts as a throttle.
  void record_transfer(PeerId peer, const stats::TransferRecord& record, Seconds now);

  // ---- queries ----
  /// Decayed score at `now`; `initial` for unknown peers.
  [[nodiscard]] double score(PeerId peer, Seconds now) const;
  [[nodiscard]] bool quarantined(PeerId peer, Seconds now) const;
  /// Appends every currently-quarantined peer to `out`, in ascending id
  /// order.
  void append_quarantined(Seconds now, std::vector<PeerId>& out) const;

  [[nodiscard]] const ReputationConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::uint64_t failures_recorded() const noexcept { return failures_; }
  [[nodiscard]] std::uint64_t successes_recorded() const noexcept { return successes_; }
  [[nodiscard]] std::uint64_t lies_recorded() const noexcept { return lies_; }
  [[nodiscard]] std::uint64_t shortfalls_recorded() const noexcept { return shortfalls_; }
  [[nodiscard]] std::uint64_t quarantines_imposed() const noexcept { return quarantines_; }

  /// Registers the book's counters in `registry` (shared by name across
  /// brokers of a deployment). Zero-cost when never called.
  void attach_metrics(obs::MetricRegistry& registry);

  /// Observer fired the instant a quarantine is imposed (peer, expiry).
  /// The broker's trace attachment uses this to put the decision on
  /// record and trigger the flight recorder; nullptr detaches.
  using QuarantineObserver = std::function<void(PeerId peer, Seconds until)>;
  void set_quarantine_observer(QuarantineObserver observer) {
    quarantine_observer_ = std::move(observer);
  }

 private:
  struct Entry {
    double value = 1.0;
    Seconds stamp = 0.0;
    /// 0 = never quarantined.
    Seconds quarantine_until = 0.0;
    /// EWMA of measured transfer rates; <= 0 = no observation yet.
    MbitPerSec rate_ewma = 0.0;
    /// False until the peer's first observation: its score is `initial`.
    bool observed = false;
  };

  /// Cached instrument handles; all null while detached.
  struct Metrics {
    obs::Counter* failures = nullptr;
    obs::Counter* successes = nullptr;
    obs::Counter* lies = nullptr;
    obs::Counter* shortfalls = nullptr;
    obs::Counter* quarantines = nullptr;
  };

  /// The entry's score projected to `now`: probation lift on
  /// quarantine expiry, then exponential decay toward neutral.
  [[nodiscard]] double projected(const Entry& entry, Seconds now) const;
  /// Decays the entry to `now`, applies `delta`, arms quarantine when
  /// the result crosses the threshold.
  void adjust(PeerId peer, Seconds now, double delta);
  /// The peer's entry if it was ever observed.
  [[nodiscard]] const Entry* find(PeerId peer) const noexcept {
    const Entry* entry = dense_find(entries_, peer);
    return entry != nullptr && entry->observed ? entry : nullptr;
  }

  ReputationConfig config_;
  Metrics m_;
  QuarantineObserver quarantine_observer_;
  std::vector<Entry> entries_;  // index = peer id
  std::uint64_t failures_ = 0;
  std::uint64_t successes_ = 0;
  std::uint64_t lies_ = 0;
  std::uint64_t shortfalls_ = 0;
  std::uint64_t quarantines_ = 0;
};

}  // namespace peerlab::overlay
