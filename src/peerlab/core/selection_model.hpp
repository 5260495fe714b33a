#pragma once

// SelectionModel: the interface the paper's three peer-selection models
// implement (plus the blind baseline). A model scores candidate peers;
// the ranking orders them by ascending (cost, peer), and select() returns
// the winner. Models must be deterministic functions of (candidates,
// context) and their own configuration — all stochastic behaviour lives
// in the network, never in the policy.
//
// The one model hook is score_into(): implementations emit every
// eligible candidate, unsorted, as a ScoredPeer into a caller-provided
// vector and keep every other intermediate in a member vector that each
// call clears and refills, so a warmed model answers petitions with
// zero steady-state heap allocations — the petition path is the
// simulator's hottest selection loop (DESIGN.md §13). Ranking is
// bounded: a caller that wants k peers orders only the best k
// (order_best), never all n. rank_into()/rank()/select()/select_k()
// are non-virtual conveniences on top.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "peerlab/core/snapshot.hpp"

namespace peerlab::core {

/// One eligible candidate as a model scored it. `position` is the
/// candidate's index in the span the model scored, so consumers reach
/// its snapshot without a search.
struct ScoredPeer {
  PeerId peer;
  double cost = 0.0;
  std::uint32_t position = 0;
};

/// The ranking order: ascending cost, peer id breaking ties. A total
/// order whenever the peers are distinct, which they are per petition.
/// A function object, so the sorts below inline it.
struct RanksBefore {
  [[nodiscard]] bool operator()(const ScoredPeer& a, const ScoredPeer& b) const noexcept {
    if (a.cost != b.cost) return a.cost < b.cost;
    return a.peer < b.peer;
  }
};
inline constexpr RanksBefore ranks_before{};

/// Moves the best min(k, n) elements of [first, last) under `less` to
/// the front, in order, and returns the end of that prefix; the rest is
/// left in unspecified order. A partial selection bounds the work by
/// the prefix, and only k >= n sorts everything. `less` must be a strict
/// total order over the range, so the prefix is the same whichever
/// algorithm produced it.
template <typename It, typename Less>
It order_best(It first, It last, std::size_t k, Less less) {
  const auto n = static_cast<std::size_t>(last - first);
  if (k >= n) {
    std::sort(first, last, less);
    return last;
  }
  const It mid = first + static_cast<std::ptrdiff_t>(k);
  if (k == 0) return mid;
  if (k == 1) {  // select() and failover petitions: one pass
    std::iter_swap(first, std::min_element(first, last, less));
    return mid;
  }
  // A k-heap costs about one comparison per element while k is small
  // next to n (up to about n/32 for ScoredPeer slabs of 64 to 10,000
  // entries); past that, a linear-time selection plus a sort of the
  // prefix does less work.
  if (k <= n / 32) {
    std::partial_sort(first, mid, last, less);
  } else {
    std::nth_element(first, mid, last, less);
    std::sort(first, mid, less);
  }
  return mid;
}

/// Appends the peers of the best min(k, n) entries of `scored`, in
/// ranking order, to `out` (reordering `scored`).
void append_best(std::span<ScoredPeer> scored, std::size_t k, std::vector<PeerId>& out);

class SelectionModel {
 public:
  SelectionModel() = default;
  // Movable (factory helpers return models by value); scratch moves
  // with the model, copies make no sense for stateful policies.
  SelectionModel(SelectionModel&&) = default;
  SelectionModel& operator=(SelectionModel&&) = default;
  virtual ~SelectionModel() = default;

  /// Human-readable model name ("economic", "data-evaluator", ...).
  [[nodiscard]] virtual std::string name() const = 0;

  /// Scores every eligible candidate into `scored` (cleared first), in
  /// no particular order; ranks_before over the entries is the model's
  /// ranking. Offline and excluded peers are never emitted; an empty
  /// result means no eligible candidate. Implementations keep every
  /// other intermediate in member vectors they clear and refill, so a
  /// warmed call does not touch the heap.
  virtual void score_into(std::span<const PeerSnapshot> candidates,
                          const SelectionContext& context, std::vector<ScoredPeer>& scored) = 0;

  /// The full ranking, best-first, into `out` (cleared first). Scores
  /// into a reused member buffer: allocation-free once warmed.
  void rank_into(std::span<const PeerSnapshot> candidates, const SelectionContext& context,
                 std::vector<PeerId>& out);

  /// Convenience wrapper allocating a fresh result vector.
  [[nodiscard]] std::vector<PeerId> rank(std::span<const PeerSnapshot> candidates,
                                         const SelectionContext& context) {
    std::vector<PeerId> out;
    rank_into(candidates, context, out);
    return out;
  }

  /// The best candidate, or an invalid id when none is eligible.
  [[nodiscard]] PeerId select(std::span<const PeerSnapshot> candidates,
                              const SelectionContext& context);

  /// The best min(k, eligible) candidates, best-first — the first k of
  /// rank(), found without ordering the rest.
  [[nodiscard]] std::vector<PeerId> select_k(std::span<const PeerSnapshot> candidates,
                                             const SelectionContext& context, std::size_t k);

 private:
  std::vector<ScoredPeer> scored_;  // reused by rank_into()/select()/select_k()
};

/// Allocating ranking of ready-made scores, kept for tests and one-off
/// callers.
[[nodiscard]] std::vector<PeerId> ranked_by_cost(std::vector<ScoredPeer> scored);

}  // namespace peerlab::core
