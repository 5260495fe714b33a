#pragma once

// CandidateIndex — incrementally-maintained top-k candidate indexes
// for the five selection models (DESIGN.md §15).
//
// The broker's scan path materializes every registered client into a
// PeerSnapshot and lets the model rank the lot: O(n) per petition.
// This index keeps, per bound model, the order statistics that model
// ranks by — a peer-id tree for blind, the frozen preference rank for
// user-preference, the evaluator cost, and the six economic attributes
// (ready time, effective speed, transfer rate, response time, price,
// CPU) — updated on every heartbeat / stats delta / history record,
// and answers try_select() in O((k + pulls) log n) with a Fagin-style
// threshold walk.
//
// The contract is *bit-identical selections*: try_select() either
// returns exactly what the scan would have returned (same peers, same
// order, down to floating-point ties) or refuses (returns false) and
// the caller runs the scan. Exactness without epsilon margins works
// because IEEE round-to-nearest +, -, ×, / are weakly monotone in each
// operand: the threshold bounds mimic the scan's expression shapes
// with per-attribute frontier values, so every unseen peer's true
// score provably cannot beat the bound, and the walk stops only when
// the k-th kept score is *strictly* better than the bound (ties force
// further pulls; a fully-tied registry degrades to a full walk).
//
// Refusal (fallback) conditions — see DESIGN.md §15:
//   * no model bound / unknown model subclass;
//   * context.reputation_weight != 0 (defended rankings re-order by
//     penalties the index does not track);
//   * more than Config::max_inline_excludes excluded peers;
//   * blind with a non-empty exclude list (the rotation modulus would
//     change under the index's feet);
//   * any economically-constrained context — deadline, budget, or an
//     explicit EconObjective (the broker's econ engine needs the full
//     model ranking for admission, and for kEconomic the feasibility
//     filter changes the normalization span in ways cursors cannot
//     bound; see DESIGN.md §17).
//
// Time must be non-decreasing across try_select() calls (simulated
// time is), because windowed statistics evict destructively on read.

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "peerlab/common/ids.hpp"
#include "peerlab/common/units.hpp"
#include "peerlab/core/ranked_tree.hpp"
#include "peerlab/core/snapshot.hpp"
#include "peerlab/obs/metrics.hpp"

namespace peerlab::core {

class SelectionModel;
class BlindModel;
class EconomicSchedulingModel;
class DataEvaluatorModel;
class UserPreferenceModel;
class HybridModel;

class CandidateIndex {
 public:
  struct Config {
    /// Liveness parameters — must match the owning broker's so the
    /// index agrees with BrokerPeer::online() bit for bit.
    Seconds heartbeat_interval = 30.0;
    double offline_after_missed = 3.5;
    /// Exclude lists longer than this fall back to the scan (each
    /// excluded peer costs an O(1) lookup plus skipped pulls).
    std::size_t max_inline_excludes = 64;
  };

  CandidateIndex() : CandidateIndex(Config{}) {}
  explicit CandidateIndex(Config config);

  /// Binds the model whose ranking the index mirrors. Recognizes the
  /// five concrete models; anything else leaves the index in
  /// fallback-only mode. Drops the trees and the walk backoff; re-keys
  /// lazily on the next try_select().
  void bind_model(SelectionModel* model);

  /// The history store feeding the economic estimators (the broker's;
  /// one per index). May be null (models degrade gracefully).
  void set_history(const stats::HistoryStore* history);

  /// Registers or refreshes a peer from a heartbeat / adopted record.
  void upsert_peer(PeerId peer, NodeId node, GigaHertz cpu_ghz, double price_per_cpu_second,
                   const stats::PeerStatistics* statistics, Seconds last_seen, bool idle,
                   int queued_tasks, int active_transfers);

  /// Points the peer at its (possibly newly-created) statistics record
  /// and schedules a re-key — the broker calls this from
  /// statistics_for(), the funnel for every stats mutation.
  void note_statistics(PeerId peer, const stats::PeerStatistics* statistics);

  /// Schedules a re-key of one peer / of everyone (model rebind,
  /// session reset, adopted state). O(1); work happens lazily inside
  /// the next try_select().
  void mark_dirty(PeerId peer);
  void mark_all_dirty();

  /// Drops every peer and the walk backoff (adopt_state rebuilds from
  /// the new registry).
  void clear();

  /// Fast-path selection: fills `out` with exactly what the bound
  /// model's select_k over the broker's snapshots would return, or
  /// returns false (out untouched) when a fallback condition holds.
  /// `sim_now` drives liveness, `context.now` the windowed statistics.
  bool try_select(const SelectionContext& context, Seconds sim_now, std::size_t k,
                  std::vector<PeerId>& out);

  /// Registers the selection.index.* counters (shared by name across
  /// brokers). Zero-cost when never called.
  void attach_metrics(obs::MetricRegistry& registry);

  [[nodiscard]] std::uint64_t fast_path_selections() const noexcept { return fast_path_; }
  [[nodiscard]] std::uint64_t scan_fallbacks() const noexcept { return fallbacks_; }
  [[nodiscard]] std::uint64_t rekeys() const noexcept { return rekeys_; }
  [[nodiscard]] std::uint64_t bound_pulls() const noexcept { return pulls_; }
  [[nodiscard]] std::uint64_t dense_sweeps() const noexcept { return dense_sweeps_; }
  [[nodiscard]] std::uint64_t rebuilds() const noexcept { return rebuilds_; }
  [[nodiscard]] std::size_t tracked_peers() const noexcept { return slots_.size(); }
  [[nodiscard]] std::size_t online_peers() const noexcept { return ids_.size(); }

 private:
  enum class ModelKind : std::uint8_t {
    kNone,
    kBlind,
    kEconomic,
    kEvaluator,
    kUserPreference,
    kHybrid,
  };

  struct Slot {
    PeerSnapshot snap;
    Seconds last_seen = 0.0;
    bool in_trees = false;
    bool indexed_idle = false;  // snap.idle at insertion time
    bool dirty = false;
    std::uint32_t live_stamp = 0;  // current liveness heap generation
    std::uint32_t exp_stamp = 0;   // current window-expiry generation
    std::uint64_t visited = 0;     // threshold-walk epoch marker
    std::uint64_t excluded = 0;    // per-select exclude marker
    // Cached tree keys (meaningful only while in_trees).
    double key_static = 0.0;
    double key_eval = 0.0;
    double key_base = 0.0;
    double key_speed = 0.0;
    double key_rate = 0.0;
    double key_resp = 0.0;
    double key_price = 0.0;
    double key_cpu = 0.0;
  };

  struct HeapEntry {
    double key = 0.0;
    std::uint32_t slot = 0;
    std::uint32_t stamp = 0;
  };

  /// A tree a bound model files each online slot in, with the cached
  /// key it files under (`ids_` is implicit: every kind files there).
  struct Filing {
    RankedTree CandidateIndex::*tree;
    double Slot::*key;
  };
  /// Hybrid's filings: the evaluator tree plus the six economic ones.
  static constexpr std::size_t kMaxFilings = 7;

  /// Walk backoff for one walk shape (DESIGN.md §15): after a probe's
  /// walk blows its pull budget, the next `skip` selects of that shape
  /// go straight to the dense sweep. The probe period doubles with
  /// each consecutive blown probe and drops back to 1 when one
  /// converges, so probes land on selects 1, 3, 7, 15, … of a shape
  /// whose walks always blow.
  struct Backoff {
    std::uint64_t period = 1;
    std::uint64_t skip = 0;
    /// True when this select walks; false when it is backed off.
    bool probe() {
      if (skip == 0) return true;
      --skip;
      return false;
    }
    void settle(bool blown) {
      period = blown ? 2 * period : 1;
      skip = period - 1;
    }
  };

  struct Scored {
    std::uint32_t slot = 0;
    double value = 0.0;
    PeerId peer;
  };

  /// Cached instrument handles; all null while detached.
  struct Metrics {
    obs::Counter* fast_path = nullptr;
    obs::Counter* fallbacks = nullptr;
    obs::Counter* rekeys = nullptr;
    obs::Counter* pulls = nullptr;
    obs::Counter* dense_sweeps = nullptr;
    obs::Counter* rebuilds = nullptr;
  };

  /// One directional walk over a tree: kth(i) ascending or descending.
  struct Cursor {
    const RankedTree* tree = nullptr;
    bool desc = false;
    std::size_t i = 0;
    double frontier = 0.0;
    [[nodiscard]] bool exhausted() const { return i >= tree->size(); }
    RankedTree::Entry step() {
      const auto e = desc ? tree->kth(tree->size() - 1 - i) : tree->kth(i);
      ++i;
      frontier = e.key;
      return e;
    }
  };

  [[nodiscard]] bool slot_online(const Slot& slot, Seconds sim_now) const noexcept {
    const Seconds silence = sim_now - slot.last_seen;
    return silence <= config_.heartbeat_interval * config_.offline_after_missed;
  }

  [[nodiscard]] Slot* find_slot(PeerId peer);
  bool refuse();

  // ---- maintenance (all lazy, driven from try_select) ----
  void drain_liveness(Seconds sim_now);
  void drain_expiry(Seconds now);
  void flush_dirty(const SelectionContext& context, Seconds sim_now);
  void refresh_slot(std::uint32_t slot_index, const SelectionContext& context, Seconds sim_now);
  void compute_keys(Slot& slot, std::uint32_t slot_index, const SelectionContext& context);
  /// The trees the bound model files slots in, besides `ids_`.
  [[nodiscard]] std::span<const Filing> filings() const;
  void insert_into_trees(Slot& slot);
  void remove_from_trees(Slot& slot);
  /// Clears every tree at once and marks every slot unfiled.
  void drop_trees();
  /// The backoff of the walk shape a petition's bounds read.
  [[nodiscard]] Backoff& backoff_for(const SelectionContext& context) {
    return backoff_[(context.work > 0.0 ? 1U : 0U) | (context.payload_size > 0 ? 2U : 0U)];
  }
  void push_live(std::uint32_t slot_index, double key);
  void push_expiry(std::uint32_t slot_index, double key);

  // ---- per-model fast paths ----
  void select_blind(const SelectionContext& context, std::size_t k, std::vector<PeerId>& out);
  void select_static_tree(const RankedTree& tree, const SelectionContext& context, std::size_t k,
                          std::vector<PeerId>& out);
  void select_economic(const SelectionContext& context, std::size_t k, std::vector<PeerId>& out);
  void select_hybrid(const SelectionContext& context, std::size_t k, std::vector<PeerId>& out);

  // ---- threshold-walk plumbing ----
  void mark_excludes(const SelectionContext& context);
  [[nodiscard]] bool eligible(const Slot& slot, bool idle_gate) const noexcept;
  /// Exact min (or max) of `value_of` over eligible indexed peers,
  /// using `cursors` and the matching monotone `bound_of`. Sets
  /// `blown` and returns early once the walk pulls more than `budget`
  /// entries — a degenerate (tie-heavy / uncorrelated) key
  /// distribution where the threshold bound cannot converge; the
  /// caller finishes with a dense sweep over the cached keys.
  template <typename ValueOf, typename BoundOf>
  double extremum(std::vector<Cursor>& cursors, bool want_max, bool idle_gate, ValueOf value_of,
                  BoundOf bound_of, std::size_t budget, bool& blown);
  /// Pulls until the k-th best exact (value, peer) pair is strictly
  /// better than `bound_of`'s frontier bound; leaves every evaluated
  /// peer in scored_. Same budget/blown contract as extremum().
  template <typename ValueOf, typename BoundOf>
  void top_k(std::vector<Cursor>& cursors, std::size_t k, bool idle_gate, ValueOf value_of,
             BoundOf bound_of, std::size_t budget, bool& blown);
  /// Blown or backed-off completion: evaluates every eligible indexed
  /// peer in slot order (no cursors, no bounds) into a k-capped heap.
  /// O(n) with a small constant — chains over flush-cached keys, no
  /// estimator or snapshot work — and exact by exhaustion.
  template <typename ValueOf>
  void dense_top_k(std::size_t k, bool idle_gate, ValueOf value_of);
  void emit_scored(std::size_t k, std::vector<PeerId>& out);
  /// Per-walk pull budget before a walk abandons threshold bounds.
  [[nodiscard]] std::size_t pull_budget(std::size_t n_eligible) const noexcept {
    return 64 + n_eligible / 16;
  }

  Config config_;
  Metrics m_;
  const stats::HistoryStore* history_ = nullptr;

  SelectionModel* model_ = nullptr;
  ModelKind kind_ = ModelKind::kNone;
  BlindModel* blind_ = nullptr;
  EconomicSchedulingModel* economic_ = nullptr;
  DataEvaluatorModel* evaluator_ = nullptr;
  UserPreferenceModel* preference_ = nullptr;
  HybridModel* hybrid_ = nullptr;
  /// The evaluator whose cost keys t_eval_ (the evaluator model
  /// itself, or the hybrid's term); null when neither is bound.
  const DataEvaluatorModel* eval_term_ = nullptr;
  /// True when the bound evaluator weights the sliding message window
  /// (the only time-varying criterion) — arms the expiry heap.
  bool window_sensitive_ = false;

  std::vector<Slot> slots_;
  std::unordered_map<PeerId, std::uint32_t> slot_of_;
  std::vector<std::uint32_t> dirty_;
  bool all_dirty_ = false;

  // Order-statistics trees (distinct salts decorrelate treap shapes).
  RankedTree ids_{1};        // all online peers, keyed 0.0 → ordered by id
  RankedTree t_static_{2};   // user-preference base cost
  RankedTree t_eval_{3};     // data-evaluator cost
  RankedTree t_base_{4};     // economic ready time
  RankedTree t_speed_{5};    // historical effective speed (or cpu)
  RankedTree t_rate_{6};     // historical transfer rate (or default)
  RankedTree t_resp_{7};     // mean response time (or 0)
  RankedTree t_price_{8};    // advertised price
  RankedTree t_cpu_{9};      // advertised cpu
  std::size_t online_idle_ = 0;

  /// One backoff per walk shape: bit 0 = petition carries work, bit 1
  /// = it carries payload.
  std::array<Backoff, 4> backoff_{};

  std::vector<HeapEntry> live_heap_;
  std::vector<HeapEntry> expiry_heap_;

  // Scratch (reused across selects).
  std::vector<Scored> scored_;
  std::vector<Scored> best_heap_;
  std::vector<Cursor> cursors_;
  std::uint64_t walk_epoch_ = 0;
  std::uint64_t select_epoch_ = 0;
  std::size_t excl_online_ = 0;  // excluded ∩ online, set by mark_excludes
  std::size_t excl_idle_ = 0;    // excluded ∩ online ∩ idle

  std::uint64_t fast_path_ = 0;
  std::uint64_t fallbacks_ = 0;
  std::uint64_t rekeys_ = 0;
  std::uint64_t pulls_ = 0;
  std::uint64_t dense_sweeps_ = 0;
  std::uint64_t rebuilds_ = 0;
};

}  // namespace peerlab::core
