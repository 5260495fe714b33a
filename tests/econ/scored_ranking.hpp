#pragma once

// Scores that reproduce a given model ranking, for driving
// EconEngine::admit from the rankings the admission tests build: each
// peer's cost is its index in the ranking, so the (cost, peer) order is
// that ranking, and its position is its (first) snapshot's index in the
// candidate span.

#include <algorithm>
#include <span>
#include <vector>

#include "peerlab/core/selection_model.hpp"

namespace peerlab::testing {

inline std::vector<core::ScoredPeer> scored_by_rank(std::span<const core::PeerSnapshot> candidates,
                                                    std::span<const PeerId> ranking) {
  std::vector<core::ScoredPeer> scored;
  scored.reserve(ranking.size());
  for (std::size_t rank = 0; rank < ranking.size(); ++rank) {
    const auto it = std::find_if(candidates.begin(), candidates.end(),
                                 [&](const core::PeerSnapshot& c) { return c.peer == ranking[rank]; });
    scored.push_back(core::ScoredPeer{ranking[rank], static_cast<double>(rank),
                                      static_cast<std::uint32_t>(it - candidates.begin())});
  }
  return scored;
}

}  // namespace peerlab::testing
