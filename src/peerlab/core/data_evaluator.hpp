#pragma once

// Data evaluator selection model — Section 2.2 of the paper (after Yu
// et al., "A framework for price-based resource allocation on the
// grid"). A cost is assigned to each peer from weighted historical and
// statistical criteria; the best-cost peer wins.
//
// Each criterion is normalized to a goodness in [0, 1]:
//   * percentage criteria map linearly (value / 100), inverted when
//     lower is better (cancellation percentages);
//   * unbounded count criteria (queue lengths, pending transfers) map
//     through 1 / (1 + value), so 0 pending = 1.0 goodness and goodness
//     decays smoothly with load.
// The peer's cost is 1 - weighted-average goodness; weights of zero
// drop a criterion ("some are negligible, of zero weight"), and the
// paper's *same priority mode* weights every criterion equally.

#include <array>

#include "peerlab/core/selection_model.hpp"

namespace peerlab::core {

struct CriterionWeight {
  stats::Criterion criterion = stats::Criterion::kMsgSuccessTotal;
  double weight = 1.0;
};

class DataEvaluatorModel final : public SelectionModel {
 public:
  /// Custom weights (user defined, per the paper). Negative weights
  /// are rejected; all-zero weight vectors are rejected.
  explicit DataEvaluatorModel(std::vector<CriterionWeight> weights);

  /// The paper's "same priority mode": every catalogued criterion with
  /// weight 1.
  [[nodiscard]] static DataEvaluatorModel same_priority();

  [[nodiscard]] std::string name() const override { return "data-evaluator"; }

  void score_into(std::span<const PeerSnapshot> candidates, const SelectionContext& context,
                  std::vector<ScoredPeer>& scored) override;

  /// Cost of one peer (lower is better) — exposed for tests/ablations.
  [[nodiscard]] double cost(const PeerSnapshot& peer, const SelectionContext& context) const;

  /// Goodness in [0,1] of one criterion value.
  [[nodiscard]] static double goodness(stats::Criterion criterion, double value);

  [[nodiscard]] const std::vector<CriterionWeight>& weights() const noexcept { return weights_; }

 private:
  std::vector<CriterionWeight> weights_;
  double weight_sum_ = 0.0;
};

}  // namespace peerlab::core
