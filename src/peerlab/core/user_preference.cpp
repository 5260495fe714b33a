#include "peerlab/core/user_preference.hpp"

#include <algorithm>
#include <limits>

#include "peerlab/common/check.hpp"

namespace peerlab::core {

UserPreferenceModel::UserPreferenceModel(std::vector<PeerId> preference_order)
    : preference_(std::move(preference_order)) {
  for (const auto id : preference_) {
    PEERLAB_CHECK_MSG(id.valid(), "preference order contains an invalid peer");
  }
  // Freeze the peer → rank index now: the preference list never changes
  // after construction, so score_into() can binary-search instead of
  // rebuilding a hash map per petition. Sorting by (peer, rank) and
  // keeping the first entry per peer preserves the old emplace()
  // semantics — the earliest occurrence of a duplicated peer wins.
  position_.reserve(preference_.size());
  for (std::size_t i = 0; i < preference_.size(); ++i) {
    position_.emplace_back(preference_[i], i);
  }
  std::sort(position_.begin(), position_.end());
  position_.erase(std::unique(position_.begin(), position_.end(),
                              [](const auto& a, const auto& b) { return a.first == b.first; }),
                  position_.end());
}

UserPreferenceModel UserPreferenceModel::quick_peer(const stats::HistoryStore& history,
                                                    const std::vector<PeerId>& known_peers) {
  // The user's impression of "quick": historical petition response
  // time, refined by achieved transfer rate when available.
  struct Impression {
    PeerId peer;
    double quickness = std::numeric_limits<double>::infinity();
  };
  std::vector<Impression> impressions;
  impressions.reserve(known_peers.size());
  for (const auto peer : known_peers) {
    Impression imp;
    imp.peer = peer;
    const auto response = history.mean_response_time(peer);
    const auto rate = history.mean_transfer_rate(peer);
    if (response || rate) {
      const double response_s = response.value_or(1.0);
      // Express rate as seconds-per-megabyte so both terms are "time".
      const double rate_cost = rate ? wire_time(kMegabyte, *rate) : 0.0;
      imp.quickness = response_s + rate_cost;
    }
    impressions.push_back(imp);
  }
  std::stable_sort(impressions.begin(), impressions.end(),
                   [](const Impression& a, const Impression& b) {
                     if (a.quickness != b.quickness) return a.quickness < b.quickness;
                     return a.peer < b.peer;
                   });
  std::vector<PeerId> order;
  order.reserve(impressions.size());
  for (const auto& imp : impressions) order.push_back(imp.peer);
  return UserPreferenceModel(std::move(order));
}

double UserPreferenceModel::base_cost(PeerId peer) const {
  const auto it =
      std::lower_bound(position_.begin(), position_.end(), peer,
                       [](const auto& entry, PeerId p) { return entry.first < p; });
  return it != position_.end() && it->first == peer
             ? static_cast<double>(it->second)
             : static_cast<double>(preference_.size()) + static_cast<double>(peer.value());
}

void UserPreferenceModel::score_into(std::span<const PeerSnapshot> candidates,
                                     const SelectionContext& context,
                                     std::vector<ScoredPeer>& scored) {
  scored.clear();
  scored.reserve(candidates.size());
  const bool has_excludes = !context.exclude.empty();
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const PeerSnapshot& c = candidates[i];
    if (!c.online || (has_excludes && context.excluded(c.peer))) continue;
    double cost = base_cost(c.peer);
    // Costs here are rank indices, so the reputation term is scaled by
    // the candidate count: a fully distrusted peer (reputation 0) at
    // weight 1 drops below every trusted candidate. Exact zero at
    // weight 0.
    cost += context.reputation_penalty(c) * static_cast<double>(candidates.size());
    scored.push_back(ScoredPeer{c.peer, cost, static_cast<std::uint32_t>(i)});
  }
}

}  // namespace peerlab::core
