#include "peerlab/core/blind.hpp"

#include <algorithm>

namespace peerlab::core {

void BlindModel::score_into(std::span<const PeerSnapshot> candidates,
                            const SelectionContext& context, std::vector<ScoredPeer>& scored) {
  scored.clear();
  scored.reserve(candidates.size());
  // Two loops so the common fault-free (no-exclude) path stays as tight
  // as before exclusion existed.
  const auto emit = [&](std::size_t i) {
    scored.push_back(ScoredPeer{candidates[i].peer, 0.0, static_cast<std::uint32_t>(i)});
  };
  if (context.exclude.empty()) {
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (candidates[i].online) emit(i);
    }
  } else {
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (candidates[i].online && !context.excluded(candidates[i].peer)) emit(i);
    }
  }
  if (scored.empty()) return;
  // Peer order, rotated by the round-robin cursor. Blind stays blind to
  // statistics, but a reputation-defended broker still sinks distrusted
  // peers: there the order is by ascending penalty, peer id within equal
  // penalties, and rotation is confined to the leading minimal-penalty
  // group. With every cost still 0, ranks_before is plain peer order;
  // the broker's snapshots arrive in it, so that sort is a no-op check.
  std::size_t group = scored.size();
  if (context.reputation_weight != 0.0) {
    for (ScoredPeer& s : scored) s.cost = context.reputation_penalty(candidates[s.position]);
    std::sort(scored.begin(), scored.end(), ranks_before);
    group = 1;
    while (group < scored.size() && scored[group].cost == scored.front().cost) ++group;
  } else if (!std::is_sorted(scored.begin(), scored.end(), ranks_before)) {
    std::sort(scored.begin(), scored.end(), ranks_before);
  }
  const std::size_t start = mode_ == Mode::kRoundRobin ? take_turn(group) : 0;
  // The cost is the entry's index in the rotated order.
  for (std::size_t i = 0; i < scored.size(); ++i) {
    std::size_t rank = i;
    if (i < group) rank = i >= start ? i - start : i + group - start;
    scored[i].cost = static_cast<double>(rank);
  }
}

}  // namespace peerlab::core
