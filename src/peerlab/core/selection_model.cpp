#include "peerlab/core/selection_model.hpp"

namespace peerlab::core {

void append_best(std::span<ScoredPeer> scored, std::size_t k, std::vector<PeerId>& out) {
  const auto end = order_best(scored.begin(), scored.end(), k, ranks_before);
  out.reserve(out.size() + static_cast<std::size_t>(end - scored.begin()));
  for (auto it = scored.begin(); it != end; ++it) out.push_back(it->peer);
}

void SelectionModel::rank_into(std::span<const PeerSnapshot> candidates,
                               const SelectionContext& context, std::vector<PeerId>& out) {
  score_into(candidates, context, scored_);
  out.clear();
  append_best(scored_, scored_.size(), out);
}

PeerId SelectionModel::select(std::span<const PeerSnapshot> candidates,
                              const SelectionContext& context) {
  score_into(candidates, context, scored_);
  const auto end = order_best(scored_.begin(), scored_.end(), 1, ranks_before);
  return end == scored_.begin() ? PeerId{} : scored_.front().peer;
}

std::vector<PeerId> SelectionModel::select_k(std::span<const PeerSnapshot> candidates,
                                             const SelectionContext& context, std::size_t k) {
  score_into(candidates, context, scored_);
  std::vector<PeerId> out;
  append_best(scored_, k, out);
  return out;
}

std::vector<PeerId> ranked_by_cost(std::vector<ScoredPeer> scored) {
  std::vector<PeerId> out;
  append_best(scored, scored.size(), out);
  return out;
}

}  // namespace peerlab::core
