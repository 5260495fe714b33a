#include "peerlab/core/hybrid.hpp"

#include <algorithm>
#include <limits>

#include "peerlab/common/check.hpp"

namespace peerlab::core {

namespace {
std::vector<CriterionWeight> weights_or_default(std::vector<CriterionWeight> weights) {
  if (!weights.empty()) return weights;
  return DataEvaluatorModel::same_priority().weights();
}
}  // namespace

HybridModel::HybridModel(HybridConfig config)
    : alpha_(config.alpha),
      economic_(config.economic),
      evaluator_(weights_or_default(std::move(config.evaluator_weights))) {
  PEERLAB_CHECK_MSG(alpha_ >= 0.0 && alpha_ <= 1.0, "alpha must be in [0, 1]");
}

void HybridModel::score_into(std::span<const PeerSnapshot> candidates,
                             const SelectionContext& context, std::vector<ScoredPeer>& scored) {
  scored.clear();
  terms_.clear();
  terms_.reserve(candidates.size());
  // Economic term: completion + cost estimate, min-max normalized.
  const bool has_excludes = !context.exclude.empty();
  for (const auto& c : candidates) {
    if (!c.online || (has_excludes && context.excluded(c.peer))) continue;
    Term t;
    t.peer = &c;
    t.economic = economic_.estimate_ready_time(c) + economic_.estimate_service_time(c, context) +
                 economic_.estimate_cost(c, context);
    t.evaluator = evaluator_.cost(c, context);
    terms_.push_back(t);
  }
  if (terms_.empty()) return;

  auto normalize = [this](auto get, auto set) {
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
    for (const auto& t : terms_) {
      lo = std::min(lo, get(t));
      hi = std::max(hi, get(t));
    }
    for (auto& t : terms_) {
      set(t, hi > lo ? (get(t) - lo) / (hi - lo) : 0.0);
    }
  };
  normalize([](const Term& t) { return t.economic; },
            [](Term& t, double v) { t.economic = v; });
  normalize([](const Term& t) { return t.evaluator; },
            [](Term& t, double v) { t.evaluator = v; });

  scored.reserve(terms_.size());
  for (const auto& t : terms_) {
    scored.push_back(ScoredPeer{t.peer->peer,
                                alpha_ * t.economic + (1.0 - alpha_) * t.evaluator +
                                    context.reputation_penalty(*t.peer),
                                static_cast<std::uint32_t>(t.peer - candidates.data())});
  }
}

}  // namespace peerlab::core
