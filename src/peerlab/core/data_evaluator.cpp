#include "peerlab/core/data_evaluator.hpp"

#include <algorithm>

#include "peerlab/common/check.hpp"

namespace peerlab::core {

DataEvaluatorModel::DataEvaluatorModel(std::vector<CriterionWeight> weights)
    : weights_(std::move(weights)) {
  PEERLAB_CHECK_MSG(!weights_.empty(), "data evaluator needs at least one criterion");
  for (const auto& w : weights_) {
    PEERLAB_CHECK_MSG(w.weight >= 0.0, "criterion weights must be non-negative");
    weight_sum_ += w.weight;
  }
  PEERLAB_CHECK_MSG(weight_sum_ > 0.0, "criterion weights must not all be zero");
}

DataEvaluatorModel DataEvaluatorModel::same_priority() {
  std::vector<CriterionWeight> weights;
  weights.reserve(stats::kCriterionCount);
  for (std::size_t i = 0; i < stats::kCriterionCount; ++i) {
    weights.push_back(CriterionWeight{static_cast<stats::Criterion>(i), 1.0});
  }
  return DataEvaluatorModel(std::move(weights));
}

double DataEvaluatorModel::goodness(stats::Criterion criterion, double value) {
  switch (criterion) {
    case stats::Criterion::kOutboxNow:
    case stats::Criterion::kOutboxAvg:
    case stats::Criterion::kInboxNow:
    case stats::Criterion::kInboxAvg:
    case stats::Criterion::kPendingTransfers:
      // Unbounded counts, lower is better.
      return 1.0 / (1.0 + std::max(0.0, value));
    default: {
      const double fraction = std::clamp(value / 100.0, 0.0, 1.0);
      return stats::higher_is_better(criterion) ? fraction : 1.0 - fraction;
    }
  }
}

double DataEvaluatorModel::cost(const PeerSnapshot& peer,
                                const SelectionContext& context) const {
  if (peer.statistics == nullptr) {
    return 0.5;  // unknown peer: neutral cost
  }
  double weighted = 0.0;
  for (const auto& w : weights_) {
    if (w.weight == 0.0) continue;
    const double value = peer.statistics->value(w.criterion, context.now);
    weighted += w.weight * goodness(w.criterion, value);
  }
  return 1.0 - weighted / weight_sum_;
}

void DataEvaluatorModel::score_into(std::span<const PeerSnapshot> candidates,
                                    const SelectionContext& context,
                                    std::vector<ScoredPeer>& scored) {
  scored.clear();
  scored.reserve(candidates.size());
  const bool has_excludes = !context.exclude.empty();
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const PeerSnapshot& c = candidates[i];
    if (!c.online || (has_excludes && context.excluded(c.peer))) continue;
    scored.push_back(ScoredPeer{c.peer, cost(c, context) + context.reputation_penalty(c),
                                static_cast<std::uint32_t>(i)});
  }
}

}  // namespace peerlab::core
