#pragma once

// Hybrid selection model — peerlab extension beyond the paper.
//
// The paper's conclusion is that the right model depends on the
// application; a natural follow-up (in the spirit of its future work)
// is to *blend* the two informed models: the economic scheduler's
// forward-looking completion/cost estimate with the data evaluator's
// backward-looking reliability record. The hybrid cost is
//
//     cost = alpha * economic_utility + (1 - alpha) * evaluator_cost
//
// with both terms normalized to [0, 1] over the candidate set. At
// alpha = 1 it degenerates to the economic model's ordering; at
// alpha = 0 to the data evaluator's.

#include "peerlab/core/data_evaluator.hpp"
#include "peerlab/core/economic.hpp"

namespace peerlab::core {

struct HybridConfig {
  /// Blend factor in [0, 1]: weight of the economic term.
  double alpha = 0.5;
  EconomicConfig economic{};
  /// Weights for the evaluator term (defaults to same-priority).
  std::vector<CriterionWeight> evaluator_weights{};
};

class HybridModel final : public SelectionModel {
 public:
  explicit HybridModel(HybridConfig config = {});

  [[nodiscard]] std::string name() const override { return "hybrid"; }

  void score_into(std::span<const PeerSnapshot> candidates, const SelectionContext& context,
                  std::vector<ScoredPeer>& scored) override;

  [[nodiscard]] double alpha() const noexcept { return alpha_; }

  /// The blended term models — read-only; the candidate index calls
  /// their estimators so its fast path reproduces this model's exact
  /// arithmetic.
  [[nodiscard]] const EconomicSchedulingModel& economic_term() const noexcept {
    return economic_;
  }
  [[nodiscard]] const DataEvaluatorModel& evaluator_term() const noexcept { return evaluator_; }

 private:
  /// One eligible candidate's two terms, raw and then normalized.
  struct Term {
    const PeerSnapshot* peer = nullptr;
    double economic = 0.0;
    double evaluator = 0.0;
  };

  double alpha_;
  EconomicSchedulingModel economic_;
  DataEvaluatorModel evaluator_;
  std::vector<Term> terms_;  // score_into() scratch, cleared and refilled per call
};

}  // namespace peerlab::core
