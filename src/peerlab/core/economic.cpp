#include "peerlab/core/economic.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "peerlab/common/check.hpp"

namespace peerlab::core {

EconomicSchedulingModel::EconomicSchedulingModel(EconomicConfig config) : config_(config) {
  PEERLAB_CHECK_MSG(config_.time_weight >= 0.0 && config_.cost_weight >= 0.0 &&
                        config_.time_weight + config_.cost_weight > 0.0,
                    "economic weights must be non-negative and not all zero");
  PEERLAB_CHECK_MSG(config_.history_depth > 0, "history depth must be positive");
  PEERLAB_CHECK_MSG(config_.default_execution_estimate > 0.0 &&
                        config_.default_rate_estimate > 0.0,
                    "fallback estimates must be positive");
}

Seconds EconomicSchedulingModel::estimate_ready_time(const PeerSnapshot& peer) const {
  Seconds ready = static_cast<double>(peer.active_transfers) * config_.transfer_drain_estimate;
  if (peer.idle && peer.queued_tasks == 0) return ready;
  Seconds per_task = config_.default_execution_estimate;
  if (peer.history != nullptr) {
    if (const auto mean = peer.history->mean_execution_time(peer.peer, config_.history_depth)) {
      per_task = *mean;
    }
  }
  // Backlog plus, when busy, half a task for the one in flight.
  const double backlog = static_cast<double>(peer.queued_tasks) + (peer.idle ? 0.0 : 0.5);
  return ready + backlog * per_task;
}

Seconds EconomicSchedulingModel::estimate_service_time(const PeerSnapshot& peer,
                                                       const SelectionContext& context) const {
  Seconds service = 0.0;
  if (context.work > 0.0) {
    GigaHertz speed = peer.cpu_ghz;
    if (peer.history != nullptr) {
      if (const auto hist = peer.history->mean_effective_speed(peer.peer, config_.history_depth)) {
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
    if (const auto response = peer.history->mean_response_time(peer.peer, config_.history_depth)) {
      service += *response;  // control-plane handshakes are part of it
    }
  }
  return service;
}

double EconomicSchedulingModel::estimate_cost(const PeerSnapshot& peer,
                                              const SelectionContext& context) const {
  return cost_for(peer, context, estimate_service_time(peer, context));
}

double EconomicSchedulingModel::cost_for(const PeerSnapshot& peer,
                                         const SelectionContext& context,
                                         Seconds service) const {
  const Seconds cpu_time =
      context.work > 0.0 ? context.work / std::max(peer.cpu_ghz, 1e-6) : service;
  return peer.price_per_cpu_second * cpu_time;
}

void EconomicSchedulingModel::score_into(std::span<const PeerSnapshot> candidates,
                                         const SelectionContext& context,
                                         std::vector<ScoredPeer>& scored) {
  scored.clear();
  offers_.clear();
  offers_.reserve(candidates.size());

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
    const Seconds service = estimate_service_time(c, context);
    offer.completion = estimate_ready_time(c) + service;
    offer.cost = cost_for(c, context, service);
    if (context.deadline > 0.0 && context.now + offer.completion > context.deadline) {
      offer.feasible = false;
    }
    if (context.budget > 0.0 && offer.cost > context.budget) {
      offer.feasible = false;
    }
    offers_.push_back(offer);
  }
  if (offers_.empty()) return;

  const bool any_feasible =
      std::any_of(offers_.begin(), offers_.end(), [](const Offer& o) { return o.feasible; });
  if (any_feasible) {
    offers_.erase(std::remove_if(offers_.begin(), offers_.end(),
                                 [](const Offer& o) { return !o.feasible; }),
                  offers_.end());
  }

  // Min-max normalize completion and cost over the surviving offers so
  // the utility weights are scale-free.
  auto span_of = [this](auto extract) {
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
    for (const auto& o : offers_) {
      lo = std::min(lo, extract(o));
      hi = std::max(hi, extract(o));
    }
    return std::pair<double, double>(lo, hi);
  };
  const auto [tlo, thi] = span_of([](const Offer& o) { return o.completion; });
  const auto [clo, chi] = span_of([](const Offer& o) { return o.cost; });
  const double wsum = config_.time_weight + config_.cost_weight;

  scored.reserve(offers_.size());
  for (const auto& o : offers_) {
    const double tnorm = thi > tlo ? (o.completion - tlo) / (thi - tlo) : 0.0;
    const double cnorm = chi > clo ? (o.cost - clo) / (chi - clo) : 0.0;
    double utility = (config_.time_weight * tnorm + config_.cost_weight * cnorm) / wsum;
    // CPU-speed tiebreak: nudge faster peers ahead within equal utility.
    utility -= 1e-9 * o.peer->cpu_ghz;
    // Reputation defense: exact zero when the context carries no weight.
    utility += context.reputation_penalty(*o.peer);
    scored.push_back(ScoredPeer{o.peer->peer, utility,
                                static_cast<std::uint32_t>(o.peer - candidates.data())});
  }
}

}  // namespace peerlab::core
