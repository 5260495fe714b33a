#pragma once

// Scheduling-based (economic) selection model — Section 2.1 of the
// paper, after Ernemann, Hamscher & Yahyapour, "Economic scheduling in
// grid computing" (JSSPP 2002).
//
// The broker provisions *idle* peers for incoming work. For each
// candidate it estimates, from the peergroup's history:
//
//   ready time   — when the peer can start (queue backlog x mean
//                  execution time of its recent tasks),
//   service time — expected execution (work / historical effective
//                  speed, falling back to advertised CPU) and, for
//                  transfers, payload / historical achieved rate,
//   cost         — the peer's advertised price x expected CPU time.
//
// Candidates violating the request's deadline or budget are filtered
// (unless every candidate violates them, in which case the least-bad
// is still offered — the paper's broker never refuses service). The
// surviving candidates are ranked by a weighted utility of normalized
// completion time and normalized cost; CPU speed breaks ties, matching
// the paper's "some additional data and criteria such as CPU speed".

#include "peerlab/core/selection_model.hpp"

namespace peerlab::core {

struct EconomicConfig {
  /// Utility weights (need not sum to 1; normalized internally).
  double time_weight = 0.7;
  double cost_weight = 0.3;
  /// How many recent history records feed the estimators.
  std::size_t history_depth = 16;
  /// Fallbacks when the peergroup has no history for a peer.
  Seconds default_execution_estimate = 60.0;
  MbitPerSec default_rate_estimate = 2.0;
  /// Ready-time penalty per transfer currently inbound to the peer
  /// (a peer mid-download cannot start receiving ours at full rate).
  Seconds transfer_drain_estimate = 120.0;
  /// When true, busy peers are excluded outright if any idle peer
  /// exists ("find/provision as many as possible available idle peers").
  bool prefer_idle = true;
};

class EconomicSchedulingModel final : public SelectionModel {
 public:
  explicit EconomicSchedulingModel(EconomicConfig config = {});

  [[nodiscard]] std::string name() const override { return "economic"; }

  void score_into(std::span<const PeerSnapshot> candidates, const SelectionContext& context,
                  std::vector<ScoredPeer>& scored) override;

  /// Exposed estimators (used by ablation benches and tests).
  [[nodiscard]] Seconds estimate_ready_time(const PeerSnapshot& peer) const;
  [[nodiscard]] Seconds estimate_service_time(const PeerSnapshot& peer,
                                              const SelectionContext& context) const;
  [[nodiscard]] double estimate_cost(const PeerSnapshot& peer,
                                     const SelectionContext& context) const;

  [[nodiscard]] const EconomicConfig& config() const noexcept { return config_; }

 private:
  /// estimate_cost() given the candidate's already-estimated service
  /// time (only read when the petition carries no compute work).
  [[nodiscard]] double cost_for(const PeerSnapshot& peer, const SelectionContext& context,
                                Seconds service) const;

  /// One eligible candidate's estimates and its deadline/budget verdict.
  struct Offer {
    const PeerSnapshot* peer = nullptr;
    Seconds completion = 0.0;
    double cost = 0.0;
    bool feasible = true;
  };

  EconomicConfig config_;
  std::vector<Offer> offers_;  // score_into() scratch, cleared and refilled per call
};

}  // namespace peerlab::core
