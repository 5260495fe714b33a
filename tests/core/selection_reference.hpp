#pragma once

// Scan-based reference rankers for the selection-equivalence harness
// (tests/net/waterfill_reference.hpp style).
//
// These are verbatim extractions of the five models' rank_into()
// bodies as of the introduction of the candidate index — the full
// O(n) snapshot walk, unchanged arithmetic, model scratch replaced by
// plain vectors (the values and comparison order are identical). The
// differential tests pin CandidateIndex::try_select() bit-identical to
// these, so any drift in either implementation fails loudly.
//
// Keep this file frozen: when a model's ranking logic changes on
// purpose, the reference must be updated in the same commit and the
// equivalence suite re-run.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "peerlab/core/blind.hpp"
#include "peerlab/core/data_evaluator.hpp"
#include "peerlab/core/economic.hpp"
#include "peerlab/core/hybrid.hpp"
#include "peerlab/core/snapshot.hpp"
#include "peerlab/core/user_preference.hpp"

namespace peerlab::testing {

using core::PeerSnapshot;
using core::SelectionContext;

/// append_ranked twin: sort by (cost, peer id), append.
struct RefScored {
  PeerId peer;
  double cost = 0.0;
};

inline void ref_append_ranked(std::vector<RefScored>& scored, std::vector<PeerId>& out) {
  std::sort(scored.begin(), scored.end(), [](const RefScored& a, const RefScored& b) {
    if (a.cost != b.cost) return a.cost < b.cost;
    return a.peer < b.peer;
  });
  for (const auto& s : scored) out.push_back(s.peer);
}

/// BlindModel twin. Holds its own round-robin cursor; the differential
/// driver must call it in lockstep with the production model.
class ReferenceBlind {
 public:
  explicit ReferenceBlind(core::BlindModel::Mode mode = core::BlindModel::Mode::kRoundRobin)
      : mode_(mode) {}

  void rank_into(std::span<const PeerSnapshot> candidates, const SelectionContext& context,
                 std::vector<PeerId>& out) {
    out.clear();
    out.reserve(candidates.size());
    if (context.exclude.empty()) {
      for (const auto& c : candidates) {
        if (c.online) out.push_back(c.peer);
      }
    } else {
      for (const auto& c : candidates) {
        if (c.online && !context.excluded(c.peer)) out.push_back(c.peer);
      }
    }
    if (out.empty()) return;
    std::sort(out.begin(), out.end());
    if (context.reputation_weight != 0.0) {
      auto penalty_of = [&](PeerId peer) {
        for (const auto& c : candidates) {
          if (c.peer == peer) return context.reputation_penalty(c);
        }
        return 0.0;
      };
      std::stable_sort(out.begin(), out.end(), [&](PeerId a, PeerId b) {
        return penalty_of(a) < penalty_of(b);
      });
      auto group_end = out.begin();
      const double best = penalty_of(out.front());
      while (group_end != out.end() && penalty_of(*group_end) == best) ++group_end;
      if (mode_ == core::BlindModel::Mode::kRoundRobin) {
        const auto group = static_cast<std::size_t>(group_end - out.begin());
        const std::size_t start = static_cast<std::size_t>(next_++ % group);
        std::rotate(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(start), group_end);
      }
      return;
    }
    if (mode_ == core::BlindModel::Mode::kRoundRobin) {
      const std::size_t start = static_cast<std::size_t>(next_++ % out.size());
      std::rotate(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(start), out.end());
    }
  }

 private:
  core::BlindModel::Mode mode_;
  std::uint64_t next_ = 0;
};

/// EconomicSchedulingModel twin, estimators included.
class ReferenceEconomic {
 public:
  explicit ReferenceEconomic(core::EconomicConfig config = {}) : config_(config) {}

  [[nodiscard]] Seconds estimate_ready_time(const PeerSnapshot& peer) const {
    Seconds ready = static_cast<double>(peer.active_transfers) * config_.transfer_drain_estimate;
    if (peer.idle && peer.queued_tasks == 0) return ready;
    Seconds per_task = config_.default_execution_estimate;
    if (peer.history != nullptr) {
      if (const auto mean = peer.history->mean_execution_time(peer.peer, config_.history_depth)) {
        per_task = *mean;
      }
    }
    const double backlog = static_cast<double>(peer.queued_tasks) + (peer.idle ? 0.0 : 0.5);
    return ready + backlog * per_task;
  }

  [[nodiscard]] Seconds estimate_service_time(const PeerSnapshot& peer,
                                              const SelectionContext& context) const {
    Seconds service = 0.0;
    if (context.work > 0.0) {
      GigaHertz speed = peer.cpu_ghz;
      if (peer.history != nullptr) {
        if (const auto hist =
                peer.history->mean_effective_speed(peer.peer, config_.history_depth)) {
          speed = *hist;
        }
      }
      service += context.work / std::max(speed, 1e-6);
    }
    if (context.payload_size > 0) {
      MbitPerSec rate = config_.default_rate_estimate;
      if (peer.history != nullptr) {
        if (const auto hist = peer.history->mean_transfer_rate(peer.peer, config_.history_depth)) {
          rate = *hist;
        }
      }
      service += wire_time(context.payload_size, rate);
    }
    if (peer.history != nullptr) {
      if (const auto response =
              peer.history->mean_response_time(peer.peer, config_.history_depth)) {
        service += *response;
      }
    }
    return service;
  }

  [[nodiscard]] double estimate_cost(const PeerSnapshot& peer,
                                     const SelectionContext& context) const {
    GigaHertz speed = peer.cpu_ghz;
    const Seconds cpu_time = context.work > 0.0 ? context.work / std::max(speed, 1e-6)
                                                : estimate_service_time(peer, context);
    return peer.price_per_cpu_second * cpu_time;
  }

  void rank_into(std::span<const PeerSnapshot> candidates, const SelectionContext& context,
                 std::vector<PeerId>& out) const {
    out.clear();
    struct Offer {
      const PeerSnapshot* peer = nullptr;
      Seconds completion = 0.0;
      double cost = 0.0;
      bool feasible = true;
    };
    std::vector<Offer> offers;
    offers.reserve(candidates.size());

    const bool has_excludes = !context.exclude.empty();
    bool any_idle = false;
    for (const auto& c : candidates) {
      if (c.online && c.idle && !(has_excludes && context.excluded(c.peer))) {
        any_idle = true;
        break;
      }
    }

    for (const auto& c : candidates) {
      if (!c.online || (has_excludes && context.excluded(c.peer))) continue;
      if (config_.prefer_idle && any_idle && !c.idle) continue;
      Offer offer;
      offer.peer = &c;
      offer.completion = estimate_ready_time(c) + estimate_service_time(c, context);
      offer.cost = estimate_cost(c, context);
      if (context.deadline > 0.0 && context.now + offer.completion > context.deadline) {
        offer.feasible = false;
      }
      if (context.budget > 0.0 && offer.cost > context.budget) {
        offer.feasible = false;
      }
      offers.push_back(offer);
    }
    if (offers.empty()) return;

    const bool any_feasible =
        std::any_of(offers.begin(), offers.end(), [](const Offer& o) { return o.feasible; });
    if (any_feasible) {
      offers.erase(std::remove_if(offers.begin(), offers.end(),
                                  [](const Offer& o) { return !o.feasible; }),
                   offers.end());
    }

    auto span_of = [&offers](auto extract) {
      double lo = std::numeric_limits<double>::infinity();
      double hi = -std::numeric_limits<double>::infinity();
      for (const auto& o : offers) {
        lo = std::min(lo, extract(o));
        hi = std::max(hi, extract(o));
      }
      return std::pair<double, double>(lo, hi);
    };
    const auto [tlo, thi] = span_of([](const Offer& o) { return o.completion; });
    const auto [clo, chi] = span_of([](const Offer& o) { return o.cost; });
    const double wsum = config_.time_weight + config_.cost_weight;

    std::vector<RefScored> scored;
    scored.reserve(offers.size());
    for (const auto& o : offers) {
      const double tnorm = thi > tlo ? (o.completion - tlo) / (thi - tlo) : 0.0;
      const double cnorm = chi > clo ? (o.cost - clo) / (chi - clo) : 0.0;
      double utility = (config_.time_weight * tnorm + config_.cost_weight * cnorm) / wsum;
      utility -= 1e-9 * o.peer->cpu_ghz;
      utility += context.reputation_penalty(*o.peer);
      scored.push_back(RefScored{o.peer->peer, utility});
    }
    out.reserve(scored.size());
    ref_append_ranked(scored, out);
  }

 private:
  core::EconomicConfig config_;
};

/// DataEvaluatorModel twin.
class ReferenceEvaluator {
 public:
  explicit ReferenceEvaluator(std::vector<core::CriterionWeight> weights)
      : weights_(std::move(weights)) {
    for (const auto& w : weights_) weight_sum_ += w.weight;
  }

  static ReferenceEvaluator same_priority() {
    std::vector<core::CriterionWeight> weights;
    weights.reserve(stats::kCriterionCount);
    for (std::size_t i = 0; i < stats::kCriterionCount; ++i) {
      weights.push_back(core::CriterionWeight{static_cast<stats::Criterion>(i), 1.0});
    }
    return ReferenceEvaluator(std::move(weights));
  }

  [[nodiscard]] static double goodness(stats::Criterion criterion, double value) {
    switch (criterion) {
      case stats::Criterion::kOutboxNow:
      case stats::Criterion::kOutboxAvg:
      case stats::Criterion::kInboxNow:
      case stats::Criterion::kInboxAvg:
      case stats::Criterion::kPendingTransfers:
        return 1.0 / (1.0 + std::max(0.0, value));
      default: {
        const double fraction = std::clamp(value / 100.0, 0.0, 1.0);
        return stats::higher_is_better(criterion) ? fraction : 1.0 - fraction;
      }
    }
  }

  [[nodiscard]] double cost(const PeerSnapshot& peer, const SelectionContext& context) const {
    if (peer.statistics == nullptr) {
      return 0.5;
    }
    double weighted = 0.0;
    for (const auto& w : weights_) {
      if (w.weight == 0.0) continue;
      const double value = peer.statistics->value(w.criterion, context.now);
      weighted += w.weight * goodness(w.criterion, value);
    }
    return 1.0 - weighted / weight_sum_;
  }

  void rank_into(std::span<const PeerSnapshot> candidates, const SelectionContext& context,
                 std::vector<PeerId>& out) const {
    out.clear();
    std::vector<RefScored> scored;
    scored.reserve(candidates.size());
    const bool has_excludes = !context.exclude.empty();
    for (const auto& c : candidates) {
      if (!c.online || (has_excludes && context.excluded(c.peer))) continue;
      scored.push_back(RefScored{c.peer, cost(c, context) + context.reputation_penalty(c)});
    }
    out.reserve(scored.size());
    ref_append_ranked(scored, out);
  }

 private:
  std::vector<core::CriterionWeight> weights_;
  double weight_sum_ = 0.0;
};

/// UserPreferenceModel twin (explicit-order mode).
class ReferenceUserPreference {
 public:
  explicit ReferenceUserPreference(std::vector<PeerId> preference_order)
      : preference_(std::move(preference_order)) {
    position_.reserve(preference_.size());
    for (std::size_t i = 0; i < preference_.size(); ++i) {
      position_.emplace_back(preference_[i], i);
    }
    std::sort(position_.begin(), position_.end());
    position_.erase(std::unique(position_.begin(), position_.end(),
                                [](const auto& a, const auto& b) { return a.first == b.first; }),
                    position_.end());
  }

  [[nodiscard]] double base_cost(PeerId peer) const {
    const auto it = std::lower_bound(position_.begin(), position_.end(), peer,
                                     [](const auto& entry, PeerId p) { return entry.first < p; });
    return it != position_.end() && it->first == peer
               ? static_cast<double>(it->second)
               : static_cast<double>(preference_.size()) + static_cast<double>(peer.value());
  }

  void rank_into(std::span<const PeerSnapshot> candidates, const SelectionContext& context,
                 std::vector<PeerId>& out) const {
    out.clear();
    std::vector<RefScored> scored;
    scored.reserve(candidates.size());
    const bool has_excludes = !context.exclude.empty();
    for (const auto& c : candidates) {
      if (!c.online || (has_excludes && context.excluded(c.peer))) continue;
      double cost = base_cost(c.peer);
      cost += context.reputation_penalty(c) * static_cast<double>(candidates.size());
      scored.push_back(RefScored{c.peer, cost});
    }
    out.reserve(scored.size());
    ref_append_ranked(scored, out);
  }

 private:
  std::vector<PeerId> preference_;
  std::vector<std::pair<PeerId, std::size_t>> position_;
};

/// HybridModel twin.
class ReferenceHybrid {
 public:
  explicit ReferenceHybrid(core::HybridConfig config = {})
      : alpha_(config.alpha),
        economic_(config.economic),
        evaluator_(config.evaluator_weights.empty()
                       ? ReferenceEvaluator::same_priority()
                       : ReferenceEvaluator(std::move(config.evaluator_weights))) {}

  void rank_into(std::span<const PeerSnapshot> candidates, const SelectionContext& context,
                 std::vector<PeerId>& out) const {
    out.clear();
    struct Term {
      const PeerSnapshot* peer = nullptr;
      double economic = 0.0;
      double evaluator = 0.0;
    };
    std::vector<Term> terms;
    terms.reserve(candidates.size());
    const bool has_excludes = !context.exclude.empty();
    for (const auto& c : candidates) {
      if (!c.online || (has_excludes && context.excluded(c.peer))) continue;
      Term t;
      t.peer = &c;
      t.economic = economic_.estimate_ready_time(c) +
                   economic_.estimate_service_time(c, context) +
                   economic_.estimate_cost(c, context);
      t.evaluator = evaluator_.cost(c, context);
      terms.push_back(t);
    }
    if (terms.empty()) return;

    auto normalize = [&terms](auto get, auto set) {
      double lo = std::numeric_limits<double>::infinity();
      double hi = -std::numeric_limits<double>::infinity();
      for (const auto& t : terms) {
        lo = std::min(lo, get(t));
        hi = std::max(hi, get(t));
      }
      for (auto& t : terms) {
        set(t, hi > lo ? (get(t) - lo) / (hi - lo) : 0.0);
      }
    };
    normalize([](const Term& t) { return t.economic; },
              [](Term& t, double v) { t.economic = v; });
    normalize([](const Term& t) { return t.evaluator; },
              [](Term& t, double v) { t.evaluator = v; });

    std::vector<RefScored> scored;
    scored.reserve(terms.size());
    for (const auto& t : terms) {
      scored.push_back(RefScored{t.peer->peer, alpha_ * t.economic +
                                                   (1.0 - alpha_) * t.evaluator +
                                                   context.reputation_penalty(*t.peer)});
    }
    out.reserve(scored.size());
    ref_append_ranked(scored, out);
  }

 private:
  double alpha_;
  ReferenceEconomic economic_;
  ReferenceEvaluator evaluator_;
};

/// select_k twin over any of the references.
template <typename Ranker>
std::vector<PeerId> ref_select_k(Ranker& ranker, std::span<const PeerSnapshot> candidates,
                                 const SelectionContext& context, std::size_t k) {
  std::vector<PeerId> ranking;
  ranker.rank_into(candidates, context, ranking);
  const std::size_t n = std::min(k, ranking.size());
  ranking.resize(n);
  return ranking;
}

}  // namespace peerlab::testing
