#pragma once

// User's preference selection model — Section 2.3 of the paper.
//
// The peer is selected "by the user according to his preferences and
// experience in using the peer nodes". The ranking is *static*: it is
// fixed when the model is built (from an explicit order, or from the
// user's past experience in quick-peer mode) and deliberately ignores
// the current state of the peers and the network — the paper names
// exactly that as the model's main drawback. Selection cost is O(n),
// "very low computational cost".

#include "peerlab/core/selection_model.hpp"

namespace peerlab::core {

class UserPreferenceModel final : public SelectionModel {
 public:
  /// Explicit preference order, most-preferred first. Peers absent
  /// from the list are ranked after listed ones (by id).
  explicit UserPreferenceModel(std::vector<PeerId> preference_order);

  /// "Quick peer" mode: freeze a ranking from the user's experience so
  /// far — peers ordered by their historical response/transfer
  /// quickness as recorded in `history` at this moment. The snapshot
  /// never updates afterwards.
  [[nodiscard]] static UserPreferenceModel quick_peer(const stats::HistoryStore& history,
                                                      const std::vector<PeerId>& known_peers);

  [[nodiscard]] std::string name() const override { return "user-preference"; }

  void score_into(std::span<const PeerSnapshot> candidates, const SelectionContext& context,
                  std::vector<ScoredPeer>& scored) override;

  [[nodiscard]] const std::vector<PeerId>& preference_order() const noexcept {
    return preference_;
  }

  /// The static per-peer cost before the reputation term: the frozen
  /// preference rank, or `preference_order().size() + peer.value()`
  /// for unlisted peers. Exposed so the candidate index can key its
  /// order-statistics tree with the exact ranking expression.
  [[nodiscard]] double base_cost(PeerId peer) const;

 private:
  std::vector<PeerId> preference_;
  /// Peer → preference rank, sorted by peer for binary search. Built
  /// once at construction (first occurrence wins on duplicates); the
  /// ranking is static, so score_into() must not rebuild a lookup table
  /// per petition.
  std::vector<std::pair<PeerId, std::size_t>> position_;
};

}  // namespace peerlab::core
