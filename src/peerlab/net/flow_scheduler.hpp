#pragma once

// Fluid-flow bandwidth model with progressive max-min fair sharing.
//
// Every bulk transfer is a "flow" with a remaining byte count. Flow
// rates are the max-min fair allocation subject to (a) each node's
// uplink/downlink capacity and (b) an optional per-flow rate cap (the
// JXTA large-message degradation). Whenever the flow set changes, all
// flows are advanced to the current instant at their old rates, rates
// are recomputed by water-filling, and the next completion event is
// rescheduled. This is the classic fluid approximation used by
// simulators like SimGrid: it captures the first-order effect that
// matters for peer selection — concurrent transfers share a peer's
// access link — without packet-level cost.
//
// Performance layout (see DESIGN.md §13 "Memory & layout"): per-flow
// state is structure-of-arrays. Each scan touches only the slabs it
// reads — advance streams remaining+rate, reschedule streams
// rate+remaining, the water-fill streams its own pending slabs — so
// the hot-loop stride is 8 bytes per field instead of one fat record.
// Slots are recycled through a free list and looked up through a small
// open-addressed SlotIndex; `active_` lists occupied slots in FlowId
// order so water-filling iteration (and therefore floating-point
// accumulation order) is deterministic and matches the retained
// reference implementation bit for bit. Node-link capacities and user
// counts are dense arrays indexed by node-id × direction, per-node
// upload/download counts are maintained incrementally (O(1) queries),
// and every water-filling round runs over scratch slabs owned by the
// scheduler — steady-state recomputation performs zero heap
// allocations.
//
// Re-levelling is *incremental*: max-min fairness decomposes by the
// connected components of the flow/resource sharing graph (flows are
// adjacent when they share an uplink or downlink), so a transition —
// start, finish, cancel, abort, brownout — only perturbs the component
// of the flows it touches. Every flow sits on two intrusive lists (one
// per endpoint resource); transitions mark their resources dirty, and
// settle() flood-fills from the dirty set to collect exactly the
// affected component(s), water-filling those flows in FlowId order
// while every untouched component keeps its rates byte-for-byte (see
// DESIGN.md for the equivalence argument). Batches coalesce dirty
// resources across all deferred transitions and re-level once at the
// outermost guard close.

#include <cstdint>
#include <functional>
#include <vector>

#include "peerlab/common/ids.hpp"
#include "peerlab/common/slot_index.hpp"
#include "peerlab/common/units.hpp"
#include "peerlab/net/topology.hpp"
#include "peerlab/obs/metrics.hpp"
#include "peerlab/obs/profile.hpp"
#include "peerlab/sim/simulator.hpp"

namespace peerlab::obs::trace {
class TraceRecorder;
}  // namespace peerlab::obs::trace

namespace peerlab::net {

struct FlowSpec {
  NodeId src;
  NodeId dst;
  Bytes size = 0;
  /// Per-flow rate ceiling (degradation cap); <= 0 means uncapped.
  MbitPerSec rate_cap = 0.0;
  /// Invoked at completion with the flow's total duration.
  std::function<void(Seconds duration)> on_complete;
  /// Invoked (with the flow's elapsed time) when the flow is torn down
  /// by a fault — abort_touching()/abort_between() — as opposed to
  /// cancel(), which stays silent. Optional.
  std::function<void(Seconds elapsed)> on_abort;
};

struct FlowSchedulerConfig {
  /// Fraction of nominal access capacity available to the overlay
  /// (the rest is other slivers' cross traffic).
  double capacity_scale = 1.0;
};

class FlowScheduler {
 public:
  FlowScheduler(sim::Simulator& sim, const Topology& topo, FlowSchedulerConfig config = {});

  FlowScheduler(const FlowScheduler&) = delete;
  FlowScheduler& operator=(const FlowScheduler&) = delete;

  /// Starts a flow; completion fires through the simulator. The spec's
  /// size must be positive and both endpoints must exist.
  FlowId start(FlowSpec spec);

  /// Cancels a flow; its on_complete is never invoked. No-op if the
  /// flow already completed.
  void cancel(FlowId id);

  /// Scoped batch: while at least one Batch is alive, start()/cancel()/
  /// abort_*() defer the rate recomputation and the completion-timer
  /// reschedule; a single recompute runs when the last Batch closes.
  /// No virtual time passes inside a batch (a Batch lives within one
  /// simulator event), so the resulting rates are identical to the
  /// one-recompute-per-change sequence.
  class Batch {
   public:
    explicit Batch(FlowScheduler& scheduler) : scheduler_(scheduler) {
      ++scheduler_.batch_depth_;
    }
    ~Batch() { scheduler_.end_batch(); }
    Batch(const Batch&) = delete;
    Batch& operator=(const Batch&) = delete;

   private:
    FlowScheduler& scheduler_;
  };
  [[nodiscard]] Batch start_batch() { return Batch(*this); }

  /// Aborts every active flow with an endpoint at `node` (a node
  /// crash). All removals share one recomputation; each aborted flow's
  /// on_abort then fires with its elapsed time, after the scheduler is
  /// consistent again. Returns the number of flows aborted.
  std::size_t abort_touching(NodeId node);

  /// Aborts active flows between `a` and `b`, either direction (a link
  /// partition). Same batching and callback semantics as above.
  std::size_t abort_between(NodeId a, NodeId b);

  /// Scales `node`'s uplink+downlink capacity by `factor` in (0, 1] —
  /// the bandwidth-brownout fault. Factor 1 restores the profile's
  /// nominal capacity; active flows re-level immediately.
  void set_capacity_factor(NodeId node, double factor);
  [[nodiscard]] double capacity_factor(NodeId node) const noexcept;

  [[nodiscard]] bool active(FlowId id) const noexcept {
    return index_.find(id.value()) != nullptr;
  }
  [[nodiscard]] std::size_t active_flows() const noexcept { return active_.size(); }

  /// Current fair-share rate of a flow (0 if unknown).
  [[nodiscard]] MbitPerSec current_rate(FlowId id) const noexcept;

  /// Remaining bytes of a flow (0 if unknown).
  [[nodiscard]] Bytes remaining_bytes(FlowId id) const noexcept;

  /// Number of active uploads leaving `node` (outbox pressure signal).
  /// Incrementally maintained: O(1).
  [[nodiscard]] int uploads_at(NodeId node) const noexcept;
  /// Number of active downloads entering `node` (inbox pressure signal).
  /// Incrementally maintained: O(1).
  [[nodiscard]] int downloads_at(NodeId node) const noexcept;

  /// Registers this scheduler's instruments in `registry` and starts
  /// recording into them; zero-cost when never called (every record
  /// site is one null test). A non-null `profiler` also opens nested
  /// self/total wall-clock spans (`flows.relevel` with child
  /// `flows.waterfill`) per pass — re-levels run within one sim
  /// instant, so only wall time can profile them.
  void attach_metrics(obs::MetricRegistry& registry, obs::WallProfiler* profiler = nullptr);
  void detach_metrics() noexcept { m_ = Metrics(); }

  /// Attaches (or detaches with nullptr) the causal-trace recorder;
  /// every re-level pass then records an ambient kRelevel event
  /// (a = components releveled, b = flows releveled). One null test
  /// per pass when detached.
  void set_trace(obs::trace::TraceRecorder* recorder) noexcept { trace_ = recorder; }

 private:
  /// Intrusive membership in the two per-resource flow lists (dir 0 =
  /// the source's uplink, dir 1 = the destination's downlink). Kept out
  /// of the hot scan slabs: only settle-time flood fill walks these.
  /// `key` caches the flow's two resource keys and `mark` carries the
  /// flood-fill epoch stamp, so discovering a flow touches exactly one
  /// 32-byte record (two per cache line, never straddling) instead of
  /// the flow's scan slabs plus side arrays. The keys double as the
  /// flow's endpoints (node id = key >> 1), so no separate src/dst
  /// array exists at all.
  struct Links {
    std::uint32_t next[2] = {kNilSlot, kNilSlot};
    std::uint32_t prev[2] = {kNilSlot, kNilSlot};
    std::uint32_t key[2] = {0, 0};
    std::uint64_t mark = 0;
  };
  static_assert(sizeof(Links) == 32, "Links must stay two-per-cache-line");
  static_assert(alignof(Links) == 8);
  /// Cold per-slot state, touched only at start/finish/abort.
  struct Callbacks {
    std::function<void(Seconds)> on_complete;
    std::function<void(Seconds)> on_abort;
  };
  struct Completion {
    Seconds duration = 0.0;
    std::function<void(Seconds)> callback;
  };

  static constexpr std::uint32_t kNilSlot = 0xffffffffu;

  void advance_to_now();
  /// Flood-fills the connected component(s) reachable from the dirty
  /// resource set and water-fills exactly those flows (in FlowId
  /// order); every other flow's rate is left untouched.
  void relevel_dirty();
  /// Water-fills `flows` (slot indices, FlowId-ascending). The rates of
  /// flows outside the set — and the capacities they consume — never
  /// enter the computation: max-min is component-local.
  void waterfill(const std::vector<std::uint32_t>& flows);
  void reschedule();
  void on_timer();
  /// relevel_dirty() + reschedule(), unless a batch is open (then the
  /// work is deferred to the last Batch's close).
  void settle();
  void end_batch();
  template <typename Pred>
  std::size_t abort_where(Pred pred);

  void mark_dirty(std::uint32_t key);
  void link_into(std::uint32_t slot, int dir, std::uint32_t key);
  void unlink_from(std::uint32_t slot, int dir, std::uint32_t key) noexcept;

  std::uint32_t acquire_slot();
  /// Pre-sizes every per-flow slab and water-fill scratch buffer for
  /// `flows` concurrent flows in one pass, so a cold scheduler's first
  /// transitions do not pay one geometric-growth allocation per slab.
  void reserve_flows(std::size_t flows);
  /// Unlinks the flow in `slot` (index, active list, resource lists,
  /// per-node counts), marks its resources dirty and recycles the slot.
  /// `active_pos` is its position in `active_`.
  void remove_flow(std::size_t active_pos);
  /// Position of `slot` in `active_` via binary search on flow id.
  [[nodiscard]] std::size_t active_position(std::uint32_t slot) const noexcept;
  void ensure_node_arrays();

  /// Source / destination node id of the flow in `slot`, decoded from
  /// its cached resource keys (valid while the flow is linked).
  [[nodiscard]] std::uint64_t src_of(std::uint32_t slot) const noexcept {
    return links_[slot].key[0] >> 1;
  }
  [[nodiscard]] std::uint64_t dst_of(std::uint32_t slot) const noexcept {
    return links_[slot].key[1] >> 1;
  }

  sim::Simulator& sim_;
  const Topology& topo_;
  FlowSchedulerConfig config_;

  // ---- per-flow SoA slabs, parallel by slot ----
  // Hot scans touch exactly the slabs they read: advance streams
  // f_remaining_+f_rate_, reschedule the same two, the water-fill seed
  // reads f_cap_ and writes f_rate_, sorting and lookup read f_id_.
  std::vector<double> f_remaining_;       // bits left
  std::vector<double> f_rate_;            // current fair share, Mbit/s
  std::vector<double> f_cap_;             // per-flow ceiling, +inf = uncapped
  std::vector<double> f_started_;         // start instant, s
  std::vector<std::uint64_t> f_id_;       // flow id, 0 = slot free
  std::vector<Callbacks> callbacks_;      // cold, parallel to the slabs
  std::vector<Links> links_;              // parallel to the slabs
  std::vector<std::uint32_t> free_slots_;  // capacity kept >= slot count
  std::vector<std::uint32_t> active_;      // occupied slots, FlowId-ascending
  SlotIndex index_;                        // flow id -> slot

  // Component tracking. `res_head_`/`res_tail_` bound the intrusive
  // flow list of each resource key; flows are appended at the tail, so
  // each list stays in ascending-FlowId order (ids are monotonic) and
  // the flood fill usually emits components already sorted.
  // `dirty_res_` accumulates the resources touched since the last
  // re-level (duplicates allowed, deduped by the epoch stamps during
  // the flood fill). `comp_flows_` / `res_stack_` are the flood-fill
  // scratch, reused across settles.
  std::vector<std::uint32_t> res_head_;
  std::vector<std::uint32_t> res_tail_;
  std::vector<std::uint32_t> dirty_res_;
  std::vector<std::uint64_t> res_mark_;  // per resource key
  std::vector<std::uint32_t> comp_flows_;
  std::vector<std::uint32_t> res_stack_;
  std::uint64_t epoch_ = 0;
  // True while the active flows are known to form a single connected
  // component (every start since attached to existing structure, no
  // removals since the last full fill). Lets relevel_dirty() water-fill
  // `active_` directly, skipping discovery — dense single-bottleneck
  // workloads hit this on every transition. Cleared conservatively on
  // any removal (the component may have split) and re-derived whenever
  // a flood fill finds one component spanning all active flows.
  bool mono_ = false;

  // Dense per-node incremental counters (index = node id).
  std::vector<int> uploads_;
  std::vector<int> downloads_;

  // Scaled per-link capacity by resource key, filled once per node when
  // the topology grows (profiles are immutable after add_node) and
  // re-derived for a node when its brownout factor changes.
  std::vector<double> link_capacity_;
  // Brownout factor per node id (1.0 = nominal).
  std::vector<double> capacity_factor_;
  // Water-filling scratch, reused across recomputations. Resource key =
  // node id * 2 + (0 = uplink, 1 = downlink).
  std::vector<double> wf_capacity_;
  std::vector<int> wf_users_;
  // Per-round cache of each resource's fair share. A shared resource is
  // consulted once per flow touching it; the cached divide is the same
  // expression evaluated once, so results are bit-identical. The round
  // stamp (`wf_round_`, monotonic) invalidates lazily.
  std::vector<double> wf_fair_;
  std::vector<std::uint64_t> wf_fair_round_;
  // Stamp that folds the per-round user-count zeroing into the counting
  // pass itself: a resource's first touch under a fresh stamp resets
  // its count instead of a separate zeroing sweep.
  std::vector<std::uint64_t> wf_user_round_;
  std::uint64_t wf_round_ = 0;
  // Pending-flow SoA slabs for the water-fill (parallel by pending
  // index): the not-yet-frozen set is compacted in place each round,
  // frozen entries are staged into the fr_* slabs in discovery order.
  // `wf_level_` caches each pending's min(fair(up), fair(down)) for the
  // round so the freeze partition re-reads a dense double slab instead
  // of chasing the per-resource cache again.
  std::vector<std::uint32_t> wf_slot_;
  std::vector<std::uint32_t> wf_up_;
  std::vector<std::uint32_t> wf_down_;
  std::vector<double> wf_flow_cap_;
  std::vector<double> wf_level_;
  std::vector<std::uint32_t> fr_slot_;
  std::vector<std::uint32_t> fr_up_;
  std::vector<std::uint32_t> fr_down_;
  std::vector<double> fr_cap_;
  std::vector<Completion> done_;  // completion staging, reused

  /// Cached instrument handles; all null while detached.
  struct Metrics {
    obs::Counter* flows_started = nullptr;
    obs::Counter* flows_completed = nullptr;
    obs::Counter* flows_aborted = nullptr;
    obs::Counter* flows_cancelled = nullptr;
    obs::Counter* relevels = nullptr;
    obs::Counter* components_releveled = nullptr;
    obs::Counter* flows_releveled = nullptr;
    obs::WallProfiler* profiler = nullptr;
    obs::WallProfiler::Site* relevel_site = nullptr;
    obs::WallProfiler::Site* waterfill_site = nullptr;
  };
  Metrics m_;
  obs::trace::TraceRecorder* trace_ = nullptr;

  IdAllocator<FlowId> ids_;
  sim::EventHandle timer_;
  Seconds last_advance_ = 0.0;
  int batch_depth_ = 0;
  bool batch_dirty_ = false;
};

}  // namespace peerlab::net
