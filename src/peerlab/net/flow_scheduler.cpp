#include "peerlab/net/flow_scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "peerlab/common/check.hpp"
#include "peerlab/obs/trace.hpp"

namespace peerlab::net {

namespace {
constexpr double kEpsBits = 1.0;        // flows within 1 bit are done
constexpr double kEpsRate = 1e-12;      // Mbit/s comparison slack
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

FlowScheduler::FlowScheduler(sim::Simulator& sim, const Topology& topo,
                             FlowSchedulerConfig config)
    : sim_(sim), topo_(topo), config_(config) {
  PEERLAB_CHECK_MSG(config_.capacity_scale > 0.0 && config_.capacity_scale <= 1.0,
                    "capacity_scale must be in (0, 1]");
  // Size the per-node arrays to the topology as it stands; nodes added
  // later are picked up lazily. Doing it here keeps the first start()
  // on the same allocation-free path as every later one.
  ensure_node_arrays();
  // The SoA layout splits what used to be one slot vector across many
  // parallel slabs; seed them together so a cold scheduler's first
  // flows don't pay one growth allocation per slab per doubling.
  reserve_flows(64);
}

void FlowScheduler::reserve_flows(std::size_t flows) {
  f_remaining_.reserve(flows);
  f_rate_.reserve(flows);
  f_cap_.reserve(flows);
  f_started_.reserve(flows);
  f_id_.reserve(flows);
  callbacks_.reserve(flows);
  links_.reserve(flows);
  free_slots_.reserve(flows);
  active_.reserve(flows);
  comp_flows_.reserve(flows);
  res_stack_.reserve(flows * 2);
  dirty_res_.reserve(flows * 2);
  wf_slot_.reserve(flows);
  wf_up_.reserve(flows);
  wf_down_.reserve(flows);
  wf_flow_cap_.reserve(flows);
  wf_level_.reserve(flows);
  fr_slot_.reserve(flows);
  fr_up_.reserve(flows);
  fr_down_.reserve(flows);
  fr_cap_.reserve(flows);
  done_.reserve(flows);
}

void FlowScheduler::attach_metrics(obs::MetricRegistry& registry, obs::WallProfiler* profiler) {
  m_.flows_started = &registry.counter("net.flows.started", "flows");
  m_.flows_completed = &registry.counter("net.flows.completed", "flows");
  m_.flows_aborted = &registry.counter("net.flows.aborted", "flows");
  m_.flows_cancelled = &registry.counter("net.flows.cancelled", "flows");
  m_.relevels = &registry.counter("net.flows.relevels", "transitions");
  m_.components_releveled = &registry.counter("net.flows.components_releveled", "components");
  m_.flows_releveled = &registry.counter("net.flows.flows_releveled", "flows");
  m_.profiler = profiler;
  if (profiler != nullptr) {
    m_.relevel_site = &profiler->site("flows.relevel");
    m_.waterfill_site = &profiler->site("flows.waterfill");
  } else {
    m_.relevel_site = nullptr;
    m_.waterfill_site = nullptr;
  }
}

FlowId FlowScheduler::start(FlowSpec spec) {
  PEERLAB_CHECK_MSG(spec.size > 0, "flow size must be positive");
  PEERLAB_CHECK_MSG(topo_.contains(spec.src) && topo_.contains(spec.dst),
                    "flow endpoints must exist");
  advance_to_now();
  const FlowId id = ids_.next();
  const std::uint32_t slot = acquire_slot();
  f_remaining_[slot] = static_cast<double>(spec.size) * 8.0;
  f_rate_[slot] = 0.0;
  // Canonicalise "uncapped" to +inf here so the water-fill compares the
  // stored value directly instead of re-testing the sentinel per round.
  f_cap_[slot] = spec.rate_cap > 0.0 ? spec.rate_cap : kInf;
  f_started_[slot] = sim_.now();
  f_id_[slot] = id.value();
  callbacks_[slot].on_complete = std::move(spec.on_complete);
  callbacks_[slot].on_abort = std::move(spec.on_abort);

  ensure_node_arrays();
  ++uploads_[spec.src.value()];
  ++downloads_[spec.dst.value()];
  // Fresh ids are strictly increasing, so appending keeps `active_`
  // FlowId-sorted (removal is order-preserving).
  active_.push_back(slot);
  index_.insert(id.value(), slot);
  const auto up_key = static_cast<std::uint32_t>(spec.src.value() * 2);
  const auto down_key = static_cast<std::uint32_t>(spec.dst.value() * 2 + 1);
  const bool attaches =
      res_head_[up_key] != kNilSlot || res_head_[down_key] != kNilSlot;
  link_into(slot, 0, up_key);
  link_into(slot, 1, down_key);
  mark_dirty(up_key);
  mark_dirty(down_key);
  // A sole flow is trivially one component; a flow touching existing
  // structure can only merge components, so single stays single. Only
  // an isolated new pair can break the invariant.
  if (active_.size() == 1) {
    mono_ = true;
  } else if (!attaches) {
    mono_ = false;
  }

  if (m_.flows_started != nullptr) m_.flows_started->add(1);
  settle();
  return id;
}

void FlowScheduler::cancel(FlowId id) {
  const std::uint32_t* slot = index_.find(id.value());
  if (slot == nullptr) return;
  advance_to_now();
  remove_flow(active_position(*slot));
  if (m_.flows_cancelled != nullptr) m_.flows_cancelled->add(1);
  settle();
}

void FlowScheduler::settle() {
  if (batch_depth_ > 0) {
    batch_dirty_ = true;
    return;
  }
  relevel_dirty();
  reschedule();
}

void FlowScheduler::end_batch() {
  if (--batch_depth_ > 0) return;
  if (!batch_dirty_) return;
  batch_dirty_ = false;
  advance_to_now();
  relevel_dirty();
  reschedule();
}

template <typename Pred>
std::size_t FlowScheduler::abort_where(Pred pred) {
  advance_to_now();
  // Collect the victims' callbacks first: an on_abort may start new
  // flows (failover), so the scheduler must be consistent — removals
  // done, survivors re-levelled — before any callback runs. The local
  // staging vector (not a reused member) keeps re-entrant aborts safe.
  std::vector<Completion> aborted;
  for (std::size_t i = 0; i < active_.size();) {
    const std::uint32_t slot = active_[i];
    if (pred(slot)) {
      aborted.push_back(Completion{sim_.now() - f_started_[slot],
                                   std::move(callbacks_[slot].on_abort)});
      remove_flow(i);
    } else {
      ++i;
    }
  }
  if (!aborted.empty()) {
    if (m_.flows_aborted != nullptr) m_.flows_aborted->add(aborted.size());
    settle();
  }
  for (Completion& c : aborted) {
    if (c.callback) c.callback(c.duration);
  }
  return aborted.size();
}

std::size_t FlowScheduler::abort_touching(NodeId node) {
  const std::uint64_t id = node.value();
  return abort_where(
      [this, id](std::uint32_t slot) { return src_of(slot) == id || dst_of(slot) == id; });
}

std::size_t FlowScheduler::abort_between(NodeId a, NodeId b) {
  const std::uint64_t ia = a.value();
  const std::uint64_t ib = b.value();
  return abort_where([this, ia, ib](std::uint32_t slot) {
    const std::uint64_t src = src_of(slot);
    const std::uint64_t dst = dst_of(slot);
    return (src == ia && dst == ib) || (src == ib && dst == ia);
  });
}

void FlowScheduler::set_capacity_factor(NodeId node, double factor) {
  PEERLAB_CHECK_MSG(topo_.contains(node), "brownout target must exist");
  PEERLAB_CHECK_MSG(factor > 0.0 && factor <= 1.0, "capacity factor must be in (0, 1]");
  advance_to_now();
  ensure_node_arrays();
  const std::size_t id = node.value();
  capacity_factor_[id] = factor;
  const auto& profile = topo_.node(node).profile();
  link_capacity_[id * 2] = profile.uplink_mbps * config_.capacity_scale * factor;
  link_capacity_[id * 2 + 1] = profile.downlink_mbps * config_.capacity_scale * factor;
  // The node's uplink users and downlink users may sit in two different
  // components; both re-level.
  mark_dirty(static_cast<std::uint32_t>(id * 2));
  mark_dirty(static_cast<std::uint32_t>(id * 2 + 1));
  settle();
}

double FlowScheduler::capacity_factor(NodeId node) const noexcept {
  const std::uint64_t i = node.value();
  return i < capacity_factor_.size() ? capacity_factor_[i] : 1.0;
}

MbitPerSec FlowScheduler::current_rate(FlowId id) const noexcept {
  const std::uint32_t* slot = index_.find(id.value());
  return slot == nullptr ? 0.0 : f_rate_[*slot];
}

Bytes FlowScheduler::remaining_bytes(FlowId id) const noexcept {
  const std::uint32_t* slot = index_.find(id.value());
  return slot == nullptr ? 0 : static_cast<Bytes>(f_remaining_[*slot] / 8.0);
}

int FlowScheduler::uploads_at(NodeId node) const noexcept {
  const std::uint64_t i = node.value();
  return i < uploads_.size() ? uploads_[i] : 0;
}

int FlowScheduler::downloads_at(NodeId node) const noexcept {
  const std::uint64_t i = node.value();
  return i < downloads_.size() ? downloads_[i] : 0;
}

void FlowScheduler::advance_to_now() {
  const Seconds now = sim_.now();
  const Seconds dt = now - last_advance_;
  last_advance_ = now;
  if (dt <= 0.0) return;
  // Streams exactly two double slabs (16 bytes per flow); the cold
  // callback/link state never enters the cache here. The sweep is
  // dense over the whole slab rather than gathered through `active_`:
  // free slots hold rate 0 / remaining 0 (zeroed on release), so they
  // fold to max(0, 0) and the contiguous loop vectorizes. Each live
  // flow sees exactly the arithmetic the gathered loop did, and the
  // expression must stay (rate * 1e6) * dt — hoisting 1e6 * dt changes
  // the rounding and breaks bit-identity with the reference oracle.
  const std::size_t n = f_remaining_.size();
  double* const remaining = f_remaining_.data();
  const double* const rate = f_rate_.data();
  for (std::size_t i = 0; i < n; ++i) {
    remaining[i] = std::max(0.0, remaining[i] - rate[i] * 1e6 * dt);
  }
}

void FlowScheduler::mark_dirty(std::uint32_t key) { dirty_res_.push_back(key); }

void FlowScheduler::link_into(std::uint32_t slot, int dir, std::uint32_t key) {
  // Append at the tail: FlowIds are allocated monotonically, so the
  // list stays in ascending-id order, which lets relevel_dirty() skip
  // the component sort in the common case.
  Links& l = links_[slot];
  l.key[dir] = key;
  l.next[dir] = kNilSlot;
  l.prev[dir] = res_tail_[key];
  if (res_tail_[key] != kNilSlot) {
    links_[res_tail_[key]].next[dir] = slot;
  } else {
    res_head_[key] = slot;
  }
  res_tail_[key] = slot;
}

void FlowScheduler::unlink_from(std::uint32_t slot, int dir, std::uint32_t key) noexcept {
  Links& l = links_[slot];
  if (l.prev[dir] != kNilSlot) {
    links_[l.prev[dir]].next[dir] = l.next[dir];
  } else {
    res_head_[key] = l.next[dir];
  }
  if (l.next[dir] != kNilSlot) {
    links_[l.next[dir]].prev[dir] = l.prev[dir];
  } else {
    res_tail_[key] = l.prev[dir];
  }
  l.next[dir] = kNilSlot;
  l.prev[dir] = kNilSlot;
}

void FlowScheduler::relevel_dirty() {
  if (dirty_res_.empty()) return;
  ensure_node_arrays();
  const obs::WallProfiler::Span span(m_.profiler, m_.relevel_site);
  if (m_.relevels != nullptr) m_.relevels->add(1);
  // Single known component: it necessarily contains every dirty
  // resource that has flows at all, so the flood fill below would just
  // rediscover `active_`. Fill it directly.
  if (mono_) {
    if (m_.components_releveled != nullptr) {
      m_.components_releveled->add(1);
      m_.flows_releveled->add(active_.size());
    }
    if (trace_ != nullptr) {
      trace_->emit_ambient(NodeId(), obs::trace::TraceKind::kRelevel, 1, active_.size());
    }
    waterfill(active_);
    dirty_res_.clear();
    return;
  }
  // Flood fill outward from each dirty resource: a resource reaches the
  // flows on its list, a flow reaches its other resource. The wavefront
  // stops exactly at the boundary of the affected connected component;
  // everything outside keeps its current rate. Each component is
  // water-filled on its own — never the union of the dirty components —
  // because the freeze tolerance (kEpsRate) would otherwise couple
  // near-tied levels of *independent* components, making rates depend
  // on which components happen to re-level together.
  ++epoch_;
  std::size_t comps = 0;
  std::size_t flows_touched = 0;
  bool spans_all = false;
  for (std::size_t d = 0; d < dirty_res_.size(); ++d) {
    const std::uint32_t seed = dirty_res_[d];
    if (res_mark_[seed] == epoch_) continue;  // already in a levelled component
    res_mark_[seed] = epoch_;
    comp_flows_.clear();
    res_stack_.clear();
    res_stack_.push_back(seed);
    while (!res_stack_.empty()) {
      const std::uint32_t key = res_stack_.back();
      res_stack_.pop_back();
      const int dir = static_cast<int>(key & 1u);
      for (std::uint32_t slot = res_head_[key]; slot != kNilSlot;
           slot = links_[slot].next[dir]) {
        Links& l = links_[slot];
        if (l.mark == epoch_) continue;
        l.mark = epoch_;
        comp_flows_.push_back(slot);
        const int odir = 1 - dir;
        const std::uint32_t other = l.key[odir];
        if (l.next[odir] == kNilSlot && l.prev[odir] == kNilSlot) {
          // This flow is alone on its other resource: nothing new is
          // reachable through it. Mark it settled (so a dirty seed for
          // it doesn't re-level this component) but skip the visit.
          res_mark_[other] = epoch_;
        } else if (res_mark_[other] != epoch_) {
          res_mark_[other] = epoch_;
          res_stack_.push_back(other);
        }
      }
    }
    if (comp_flows_.empty()) continue;
    ++comps;
    flows_touched += comp_flows_.size();
    if (m_.components_releveled != nullptr) {
      m_.components_releveled->add(1);
      m_.flows_releveled->add(comp_flows_.size());
    }
    // Water-filling must accumulate floating point in FlowId order to
    // stay bit-identical to the reference; the flood fill discovers
    // flows in adjacency order. When the component spans every active
    // flow, `active_` (kept FlowId-ascending) IS the sorted component.
    // Otherwise the per-resource lists' id-ascending order means the
    // fill usually arrives sorted — check before paying for the sort
    // (in place — no allocation).
    if (comp_flows_.size() == active_.size()) {
      spans_all = true;
      waterfill(active_);
      continue;
    }
    const auto id_less = [this](std::uint32_t a, std::uint32_t b) {
      return f_id_[a] < f_id_[b];
    };
    if (!std::is_sorted(comp_flows_.begin(), comp_flows_.end(), id_less)) {
      std::sort(comp_flows_.begin(), comp_flows_.end(), id_less);
    }
    waterfill(comp_flows_);
  }
  if (trace_ != nullptr && comps != 0) {
    trace_->emit_ambient(NodeId(), obs::trace::TraceKind::kRelevel, comps, flows_touched);
  }
  // The fill just proved single-component-ness (or not) for the dirty
  // region; remember it so the next relevel can skip discovery.
  mono_ = comps == 1 && spans_all;
  dirty_res_.clear();
}

void FlowScheduler::waterfill(const std::vector<std::uint32_t>& flows) {
  const obs::WallProfiler::Span span(m_.profiler, m_.waterfill_site);
  // Seed per-resource capacities and the pending set into the SoA
  // slabs. Iteration is in FlowId order throughout, so every
  // floating-point accumulation below happens in the same order as the
  // reference implementation.
  wf_slot_.clear();
  wf_up_.clear();
  wf_down_.clear();
  wf_flow_cap_.clear();
  // Stamp-reset counting folds the zero-then-increment pair into one
  // pass: a resource's first touch under the current stamp resets its
  // count to 1, later touches increment. Counts are integers, so the
  // fold cannot perturb any floating-point result.
  const auto count_user = [&](std::uint32_t key, std::uint64_t stamp) {
    if (wf_user_round_[key] != stamp) {
      wf_user_round_[key] = stamp;
      wf_users_[key] = 1;
    } else {
      ++wf_users_[key];
    }
  };
  const std::uint64_t seed_stamp = ++wf_round_;
  for (const std::uint32_t slot : flows) {
    const std::uint32_t up_key = links_[slot].key[0];
    const std::uint32_t down_key = links_[slot].key[1];
    wf_capacity_[up_key] = link_capacity_[up_key];
    wf_capacity_[down_key] = link_capacity_[down_key];
    count_user(up_key, seed_stamp);
    count_user(down_key, seed_stamp);
    wf_slot_.push_back(slot);
    wf_up_.push_back(up_key);
    wf_down_.push_back(down_key);
    wf_flow_cap_.push_back(f_cap_[slot]);
  }
  wf_level_.resize(wf_slot_.size());

  // Progressive water-filling: each round freezes at least one flow,
  // either at its own cap or at a bottleneck resource's fair share.
  // The freeze set is decided entirely from the round-start snapshot;
  // capacities are only reduced afterwards — mutating them mid-round
  // would freeze flows against stale user counts and strand capacity.
  std::size_t n = wf_slot_.size();
  bool counted = true;  // seeding already counted users for round 1
  while (n > 0) {
    if (!counted) {
      const std::uint64_t stamp = ++wf_round_;
      for (std::size_t i = 0; i < n; ++i) {
        count_user(wf_up_[i], stamp);
        count_user(wf_down_[i], stamp);
      }
    }
    counted = false;
    // Capacities are stable for the whole round (deductions happen only
    // after the freeze set is fixed), so each resource's fair share is
    // computed once and reused — the same divide, evaluated once, keeps
    // every consumer bit-identical to recomputing it. The per-flow
    // minimum of its two shares is cached in `wf_level_` so the freeze
    // partition below re-reads one dense double slab.
    ++wf_round_;
    const auto fair = [&](std::uint32_t key) {
      if (wf_fair_round_[key] != wf_round_) {
        wf_fair_round_[key] = wf_round_;
        wf_fair_[key] =
            std::max(0.0, wf_capacity_[key]) / static_cast<double>(wf_users_[key]);
      }
      return wf_fair_[key];
    };
    double share = kInf;
    double min_cap = kInf;
    for (std::size_t i = 0; i < n; ++i) {
      const double bound = std::min(fair(wf_up_[i]), fair(wf_down_[i]));
      wf_level_[i] = bound;
      share = std::min(share, bound);
      min_cap = std::min(min_cap, wf_flow_cap_[i]);
    }
    const double level = std::min(share, min_cap);

    // Fast path: a single-bottleneck component (the dominant churn
    // shape — one shared uplink fanning out) freezes *every* pending
    // flow in this round. Probe for that with a prefix scan that
    // assigns final rates as it goes; the rates are the same
    // min(level, cap) the staged path would assign, and the capacity
    // deductions it skips are only ever read by later rounds, which
    // don't happen. Bails to the staged partition on the first
    // still-pending entry (the prefix's assignments are then
    // re-assigned identically by the staged pass).
    std::size_t probe = 0;
    for (; probe < n; ++probe) {
      if (wf_flow_cap_[probe] > level + kEpsRate && wf_level_[probe] > level + kEpsRate) {
        break;
      }
      f_rate_[wf_slot_[probe]] = std::min(level, wf_flow_cap_[probe]);
    }
    if (probe == n) break;

    // Partition in place: still-pending entries compact to the slab
    // prefix, frozen ones stage into fr_*. Both keep FlowId-ascending
    // order, so the capacity deductions below run in reference order.
    // A flow freezes at its own cap or at a bottleneck resource; the
    // cached `wf_level_` is min(fair_up, fair_down), and min <= x
    // exactly when either share is <= x (fair values are never NaN:
    // max(0, cap) / users with users >= 1).
    fr_slot_.clear();
    fr_up_.clear();
    fr_down_.clear();
    fr_cap_.clear();
    std::size_t kept = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (wf_flow_cap_[i] <= level + kEpsRate || wf_level_[i] <= level + kEpsRate) {
        fr_slot_.push_back(wf_slot_[i]);
        fr_up_.push_back(wf_up_[i]);
        fr_down_.push_back(wf_down_[i]);
        fr_cap_.push_back(wf_flow_cap_[i]);
      } else {
        wf_slot_[kept] = wf_slot_[i];
        wf_up_[kept] = wf_up_[i];
        wf_down_[kept] = wf_down_[i];
        wf_flow_cap_[kept] = wf_flow_cap_[i];
        ++kept;
      }
    }
    PEERLAB_CHECK_MSG(!fr_slot_.empty(), "water-filling failed to make progress");
    for (std::size_t k = 0; k < fr_slot_.size(); ++k) {
      const double rate = std::min(level, fr_cap_[k]);
      f_rate_[fr_slot_[k]] = rate;
      wf_capacity_[fr_up_[k]] -= rate;
      wf_capacity_[fr_down_[k]] -= rate;
    }
    n = kept;
  }
}

void FlowScheduler::reschedule() {
  if (active_.empty()) {
    timer_.cancel();
    return;
  }
  // Dense sweep over the whole slab, mirroring advance_to_now(): free
  // and stalled slots carry rate == 0, fold to kInf and drop out of the
  // min. A live slot's divide has exactly the operands the old gathered
  // loop used, and min is order-independent, so eta is bit-identical to
  // the gathered version. (A two-pass divide-then-blend formulation
  // does vectorize under -fno-trapping-math, but its scratch traffic
  // measured slower than this branchy single pass on the target.)
  const std::size_t n = f_remaining_.size();
  const double* __restrict const remaining = f_remaining_.data();
  const double* __restrict const rate = f_rate_.data();
  double eta = kInf;
  for (std::size_t i = 0; i < n; ++i) {
    const double denom = rate[i] > kEpsRate ? rate[i] * 1e6 : 1.0;
    const double q = remaining[i] / denom;
    eta = std::min(eta, rate[i] > kEpsRate ? q : kInf);
  }
  PEERLAB_CHECK_MSG(std::isfinite(eta), "active flows but no finite completion time");
  if (timer_.pending()) {
    // Settling re-arms the standing timer in place: same slot and
    // action, fresh sequence number, so firing order is exactly what
    // cancel + schedule would give — minus the slot recycling and
    // closure churn (see EventQueue::rearm).
    sim_.reschedule(timer_, std::max(0.0, eta));
  } else {
    timer_ = sim_.schedule(std::max(0.0, eta), [this] { on_timer(); });
  }
}

void FlowScheduler::on_timer() {
  advance_to_now();

  // Collect completions first; callbacks may start new flows, so the
  // scheduler must be consistent before any callback runs.
  done_.clear();
  for (std::size_t i = 0; i < active_.size();) {
    const std::uint32_t slot = active_[i];
    if (f_remaining_[slot] <= kEpsBits) {
      done_.push_back(Completion{sim_.now() - f_started_[slot],
                                 std::move(callbacks_[slot].on_complete)});
      remove_flow(i);
    } else {
      ++i;
    }
  }
  if (m_.flows_completed != nullptr) m_.flows_completed->add(done_.size());
  relevel_dirty();
  reschedule();
  for (Completion& c : done_) {
    if (c.callback) c.callback(c.duration);
  }
}

std::uint32_t FlowScheduler::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  const auto slot = static_cast<std::uint32_t>(f_id_.size());
  f_remaining_.push_back(0.0);
  f_rate_.push_back(0.0);
  f_cap_.push_back(kInf);
  f_started_.push_back(0.0);
  f_id_.push_back(0);
  callbacks_.emplace_back();
  links_.emplace_back();
  // Keep the free list's capacity ahead of the slot count so releasing
  // a slot on the noexcept removal path never allocates. Track the slot
  // vector's *capacity*, not its size, so growth stays amortized.
  if (free_slots_.capacity() < f_id_.size()) {
    free_slots_.reserve(f_id_.capacity());
  }
  return slot;
}

void FlowScheduler::remove_flow(std::size_t active_pos) {
  const std::uint32_t slot = active_[active_pos];
  --uploads_[src_of(slot)];
  --downloads_[dst_of(slot)];
  const std::uint32_t up_key = links_[slot].key[0];
  const std::uint32_t down_key = links_[slot].key[1];
  unlink_from(slot, 0, up_key);
  unlink_from(slot, 1, down_key);
  // The departure may have split the component; rediscover at the next
  // flood fill rather than tracking splits exactly.
  mono_ = false;
  // The departed flow's capacity redistributes over whatever is still
  // connected to its resources (the component may have split; the fill
  // reaches every part from these two seeds).
  mark_dirty(up_key);
  mark_dirty(down_key);
  index_.erase(f_id_[slot]);
  active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(active_pos));
  callbacks_[slot].on_complete = nullptr;  // release captured resources
  callbacks_[slot].on_abort = nullptr;
  f_id_[slot] = 0;
  // Dense slab sweeps (advance_to_now, reschedule) visit free slots;
  // zeroed rate/remaining make those visits identity operations.
  f_rate_[slot] = 0.0;
  f_remaining_[slot] = 0.0;
  free_slots_.push_back(slot);
}

std::size_t FlowScheduler::active_position(std::uint32_t slot) const noexcept {
  const std::uint64_t id = f_id_[slot];
  const auto it = std::lower_bound(
      active_.begin(), active_.end(), id,
      [this](std::uint32_t s, std::uint64_t key) { return f_id_[s] < key; });
  return static_cast<std::size_t>(it - active_.begin());
}

void FlowScheduler::ensure_node_arrays() {
  const std::size_t nodes = topo_.size() + 1;  // ids are dense, starting at 1
  if (uploads_.size() < nodes) {
    uploads_.resize(nodes, 0);
    downloads_.resize(nodes, 0);
  }
  if (capacity_factor_.size() < nodes) {
    capacity_factor_.resize(nodes, 1.0);
  }
  if (wf_capacity_.size() < nodes * 2) {
    const std::size_t first_new = link_capacity_.size() / 2;
    wf_capacity_.resize(nodes * 2, 0.0);
    wf_users_.resize(nodes * 2, 0);
    link_capacity_.resize(nodes * 2, 0.0);
    res_head_.resize(nodes * 2, kNilSlot);
    res_tail_.resize(nodes * 2, kNilSlot);
    res_mark_.resize(nodes * 2, 0);
    wf_fair_.resize(nodes * 2, 0.0);
    wf_fair_round_.resize(nodes * 2, 0);
    wf_user_round_.resize(nodes * 2, 0);
    // Profiles are immutable once added, so the scaled link capacities
    // can be computed once per node instead of per recomputation (and
    // re-derived only when a brownout factor changes).
    for (std::size_t id = std::max<std::size_t>(first_new, 1); id < nodes; ++id) {
      const auto& profile = topo_.node(NodeId(id)).profile();
      link_capacity_[id * 2] =
          profile.uplink_mbps * config_.capacity_scale * capacity_factor_[id];
      link_capacity_[id * 2 + 1] =
          profile.downlink_mbps * config_.capacity_scale * capacity_factor_[id];
    }
  }
}

}  // namespace peerlab::net
