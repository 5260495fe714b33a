#pragma once

// Frozen reference for EconEngine admission (tests/core/
// selection_reference.hpp style).
//
// A verbatim extraction of EconEngine::admit_and_rank() and the
// appraisal it depends on, as they stood before the engine moved to
// positional candidate lookup, once-per-petition hint counting and
// member scratch: a per-petition hash map from peer to snapshot, a
// full hint scan per candidate, a snapshot copy per appraisal and
// std::stable_partition. Prices come from the production PriceBook
// (stateless, unchanged); the ready/service estimators are the frozen
// ReferenceEconomic twins. The differential tests pin the engine (and
// the broker's econ path) bit-identical to this.
//
// Keep this file frozen: when admission changes on purpose, update the
// reference in the same commit and re-run the differential suites.

#include <algorithm>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/selection_reference.hpp"
#include "peerlab/econ/economy.hpp"

namespace peerlab::testing {

class ReferenceEconEngine {
 public:
  explicit ReferenceEconEngine(econ::EconConfig config = {})
      : config_(config), prices_(config.pricing), estimators_(config.estimator) {}

  struct Verdict {
    std::size_t appraised = 0;
    std::size_t feasible = 0;
    bool exhausted = false;

    friend bool operator==(const Verdict&, const Verdict&) = default;
  };

  [[nodiscard]] core::EconObjective objective_for(const SelectionContext& context) const {
    return context.objective == core::EconObjective::kBrokerDefault ? config_.default_objective
                                                                    : context.objective;
  }

  void note_assignment(PeerId peer, Seconds now) {
    if (config_.assignment_hold <= 0.0) return;
    hints_.erase(std::remove_if(hints_.begin(), hints_.end(),
                                [now](const Hint& h) { return h.expires <= now; }),
                 hints_.end());
    hints_.push_back({peer, now + config_.assignment_hold});
  }

  [[nodiscard]] int pending_assignments(PeerId peer, Seconds now) const {
    int pending = 0;
    for (const Hint& hint : hints_) {
      if (hint.peer == peer && hint.expires > now) ++pending;
    }
    return pending;
  }

  [[nodiscard]] PeerSnapshot loaded_view(const PeerSnapshot& peer, Seconds now) const {
    const int pending = pending_assignments(peer.peer, now);
    if (pending == 0) return peer;
    PeerSnapshot view = peer;
    view.idle = false;
    view.queued_tasks += pending;
    view.active_transfers += pending;
    return view;
  }

  [[nodiscard]] econ::Appraisal appraise(const PeerSnapshot& peer,
                                         const SelectionContext& context) const {
    const PeerSnapshot view = loaded_view(peer, context.now);
    econ::Appraisal a;
    a.ready = estimators_.estimate_ready_time(view);
    a.service = estimators_.estimate_service_time(view, context);
    a.completion = context.now + a.ready + a.service;
    a.cost = prices_.unit_price(view) * a.service;
    a.meets_deadline = context.deadline <= 0.0 || a.completion <= context.deadline;
    a.within_budget = context.budget <= 0.0 || a.cost <= context.budget;
    return a;
  }

  [[nodiscard]] double efficiency_score(const PeerSnapshot& peer, GigaHertz max_cpu) const {
    double responsiveness = 0.5;
    if (peer.history != nullptr) {
      if (const auto mean = peer.history->mean_response_time(peer.peer,
                                                             config_.estimator.history_depth)) {
        responsiveness = 1.0 / (1.0 + std::max(0.0, *mean));
      }
    }
    const double capability = max_cpu > 0.0 ? peer.cpu_ghz / max_cpu : 1.0;
    const int backlog = std::max(0, peer.queued_tasks) + std::max(0, peer.active_transfers);
    const double availability =
        peer.idle && backlog == 0 ? 1.0 : 1.0 / (1.0 + static_cast<double>(backlog));
    const double total = config_.efficiency_latency_weight +
                         config_.efficiency_capability_weight +
                         config_.efficiency_availability_weight;
    if (total <= 0.0) return 0.0;
    return (config_.efficiency_latency_weight * responsiveness +
            config_.efficiency_capability_weight * capability +
            config_.efficiency_availability_weight * availability) /
           total;
  }

  Verdict admit_and_rank(std::span<const PeerSnapshot> candidates,
                         const SelectionContext& context, std::vector<PeerId>& ranking) {
    Verdict verdict;
    if (ranking.empty()) {
      verdict.exhausted = true;
      return verdict;
    }

    std::unordered_map<PeerId, const PeerSnapshot*> by_peer;
    by_peer.reserve(candidates.size());
    for (const auto& snap : candidates) by_peer.emplace(snap.peer, &snap);

    const core::EconObjective objective = objective_for(context);
    GigaHertz max_cpu = 0.0;

    struct Entry {
      PeerId peer;
      std::size_t model_rank = 0;
      econ::Appraisal appraisal;
      double efficiency = 0.0;
    };
    std::vector<Entry> entries;
    entries.reserve(ranking.size());
    for (std::size_t rank = 0; rank < ranking.size(); ++rank) {
      const auto it = by_peer.find(ranking[rank]);
      Entry entry;
      entry.peer = ranking[rank];
      entry.model_rank = rank;
      entry.appraisal = appraise(*it->second, context);
      entries.push_back(entry);
      max_cpu = std::max(max_cpu, it->second->cpu_ghz);
    }
    if (objective == core::EconObjective::kEfficiency) {
      for (Entry& entry : entries) {
        entry.efficiency =
            efficiency_score(loaded_view(*by_peer.at(entry.peer), context.now), max_cpu);
      }
    }

    const auto mid = std::stable_partition(entries.begin(), entries.end(),
                                           [](const Entry& e) { return e.appraisal.feasible(); });
    verdict.appraised = entries.size();
    verdict.feasible = static_cast<std::size_t>(mid - entries.begin());
    if (verdict.feasible == 0) {
      verdict.exhausted = true;
      return verdict;
    }

    std::sort(entries.begin(), mid, [objective](const Entry& a, const Entry& b) {
      const econ::Appraisal& aa = a.appraisal;
      const econ::Appraisal& ab = b.appraisal;
      switch (objective) {
        case core::EconObjective::kCostOptimise:
          if (aa.cost != ab.cost) return aa.cost < ab.cost;
          break;
        case core::EconObjective::kTimeOptimise:
          if (aa.completion != ab.completion) return aa.completion < ab.completion;
          break;
        case core::EconObjective::kEfficiency:
          if (a.efficiency != b.efficiency) return a.efficiency > b.efficiency;
          break;
        case core::EconObjective::kCostTime:
        case core::EconObjective::kBrokerDefault:
          if (aa.cost != ab.cost) return aa.cost < ab.cost;
          if (aa.completion != ab.completion) return aa.completion < ab.completion;
          break;
      }
      return a.model_rank < b.model_rank;
    });

    ranking.clear();
    for (const Entry& entry : entries) ranking.push_back(entry.peer);
    return verdict;
  }

 private:
  struct Hint {
    PeerId peer;
    Seconds expires = 0.0;
  };

  econ::EconConfig config_;
  econ::PriceBook prices_;
  ReferenceEconomic estimators_;
  std::vector<Hint> hints_;
};

}  // namespace peerlab::testing
