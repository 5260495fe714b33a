#pragma once

// Blind selection — the paper's baseline: "all peers were equally
// considered, that is no peer selection is done". Two flavours:
// round-robin (spread work uniformly) and first-available (what a
// naive application does). Both ignore every signal about the peers,
// which is exactly what makes SC7-class stragglers dominate the
// figures' tails.

#include "peerlab/core/selection_model.hpp"

namespace peerlab::core {

class BlindModel final : public SelectionModel {
 public:
  enum class Mode : std::uint8_t { kRoundRobin, kFirstAvailable };

  explicit BlindModel(Mode mode = Mode::kRoundRobin) : mode_(mode) {}

  [[nodiscard]] std::string name() const override { return "blind"; }

  /// Scores each eligible candidate with its index in the blind order
  /// (peer order, rotated by the round-robin cursor), so the ranking is
  /// that order.
  void score_into(std::span<const PeerSnapshot> candidates, const SelectionContext& context,
                  std::vector<ScoredPeer>& scored) override;

  [[nodiscard]] Mode mode() const noexcept { return mode_; }

  /// Advances the round-robin cursor exactly as one score_into() call
  /// over a `group`-sized eligible list would, returning the rotation
  /// start. The broker's candidate index uses this so the fast path
  /// and the scan share one cursor — interleaving them stays
  /// bit-identical to an all-scan run.
  [[nodiscard]] std::size_t take_turn(std::size_t group) noexcept {
    return static_cast<std::size_t>(next_++ % group);
  }

 private:
  Mode mode_;
  std::uint64_t next_ = 0;  // round-robin cursor
};

}  // namespace peerlab::core
