#include "peerlab/core/candidate_index.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "peerlab/core/blind.hpp"
#include "peerlab/core/data_evaluator.hpp"
#include "peerlab/core/economic.hpp"
#include "peerlab/core/hybrid.hpp"
#include "peerlab/core/user_preference.hpp"

namespace peerlab::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Smallest t with `front <= t - span` — the exact first moment
/// OutcomeWindow::evict() would drop the event stamped `front`. The
/// naive `front + span` can round past the true threshold in either
/// direction, so probe the window's own comparison and walk by ulps
/// (at most a couple of steps).
double window_expiry_time(double front, double span) {
  double t = front + span;
  if (front <= t - span) {
    for (;;) {
      const double p = std::nextafter(t, -kInf);
      if (front <= p - span) {
        t = p;
      } else {
        break;
      }
    }
  } else {
    while (!(front <= t - span)) t = std::nextafter(t, kInf);
  }
  return t;
}

/// Smallest t with `t - last_seen > thr` — the exact first moment
/// BrokerPeer::online() flips false. Same ulp probing as above.
double offline_time(double last_seen, double thr) {
  double t = last_seen + thr;
  while (t - last_seen <= thr) t = std::nextafter(t, kInf);
  for (;;) {
    const double p = std::nextafter(t, -kInf);
    if (p - last_seen > thr) {
      t = p;
    } else {
      break;
    }
  }
  return t;
}

/// Min-heap ordering for the lazy heaps.
bool heap_cmp(double a, double b) { return a > b; }

/// Bitwise key identity: an unchanged (key, peer) entry is the same
/// tree entry, down to the sign of zero a frontier would report.
bool same_key(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

}  // namespace

CandidateIndex::CandidateIndex(Config config) : config_(config) {}

void CandidateIndex::set_history(const stats::HistoryStore* history) {
  history_ = history;
  mark_all_dirty();
}

void CandidateIndex::bind_model(SelectionModel* model) {
  // The next flush re-keys every slot anyway, so drop the trees whole
  // rather than erasing slot by slot.
  drop_trees();
  backoff_ = {};
  model_ = model;
  blind_ = dynamic_cast<BlindModel*>(model);
  economic_ = dynamic_cast<EconomicSchedulingModel*>(model);
  evaluator_ = dynamic_cast<DataEvaluatorModel*>(model);
  preference_ = dynamic_cast<UserPreferenceModel*>(model);
  hybrid_ = dynamic_cast<HybridModel*>(model);
  if (blind_ != nullptr) {
    kind_ = ModelKind::kBlind;
  } else if (economic_ != nullptr) {
    kind_ = ModelKind::kEconomic;
  } else if (evaluator_ != nullptr) {
    kind_ = ModelKind::kEvaluator;
  } else if (preference_ != nullptr) {
    kind_ = ModelKind::kUserPreference;
  } else if (hybrid_ != nullptr) {
    kind_ = ModelKind::kHybrid;
  } else {
    kind_ = ModelKind::kNone;
  }
  eval_term_ = evaluator_ != nullptr
                   ? evaluator_
                   : (hybrid_ != nullptr ? &hybrid_->evaluator_term() : nullptr);
  window_sensitive_ = false;
  if (eval_term_ != nullptr) {
    for (const auto& w : eval_term_->weights()) {
      if (w.criterion == stats::Criterion::kMsgSuccessWindow && w.weight > 0.0) {
        window_sensitive_ = true;
      }
    }
  }
  mark_all_dirty();
}

CandidateIndex::Slot* CandidateIndex::find_slot(PeerId peer) {
  const auto it = slot_of_.find(peer);
  return it == slot_of_.end() ? nullptr : &slots_[it->second];
}

void CandidateIndex::upsert_peer(PeerId peer, NodeId node, GigaHertz cpu_ghz,
                                 double price_per_cpu_second,
                                 const stats::PeerStatistics* statistics, Seconds last_seen,
                                 bool idle, int queued_tasks, int active_transfers) {
  const auto [it, inserted] = slot_of_.try_emplace(peer, static_cast<std::uint32_t>(slots_.size()));
  if (inserted) slots_.emplace_back();
  const std::uint32_t index = it->second;
  Slot& slot = slots_[index];
  if (inserted) {
    slot.snap.peer = peer;
    slot.snap.node = node;
  }
  slot.snap.history = history_;
  slot.snap.cpu_ghz = cpu_ghz;
  slot.snap.price_per_cpu_second = price_per_cpu_second;
  slot.snap.statistics = statistics;
  slot.snap.idle = idle;
  slot.snap.queued_tasks = queued_tasks;
  slot.snap.active_transfers = active_transfers;
  slot.last_seen = last_seen;
  push_live(index, offline_time(last_seen, config_.heartbeat_interval * config_.offline_after_missed));
  mark_dirty(peer);
}

void CandidateIndex::note_statistics(PeerId peer, const stats::PeerStatistics* statistics) {
  const auto it = slot_of_.find(peer);
  if (it == slot_of_.end()) return;
  slots_[it->second].snap.statistics = statistics;
  mark_dirty(peer);
}

void CandidateIndex::mark_dirty(PeerId peer) {
  const auto it = slot_of_.find(peer);
  if (it == slot_of_.end()) return;
  Slot& slot = slots_[it->second];
  if (slot.dirty || all_dirty_) {
    slot.dirty = true;
    return;
  }
  slot.dirty = true;
  dirty_.push_back(it->second);
}

void CandidateIndex::mark_all_dirty() { all_dirty_ = true; }

void CandidateIndex::clear() {
  slots_.clear();
  slot_of_.clear();
  dirty_.clear();
  all_dirty_ = false;
  drop_trees();
  backoff_ = {};
  live_heap_.clear();
  expiry_heap_.clear();
}

void CandidateIndex::attach_metrics(obs::MetricRegistry& registry) {
  m_.fast_path = &registry.counter("selection.index.fast_path", "selections");
  m_.fallbacks = &registry.counter("selection.index.fallbacks", "selections");
  m_.rekeys = &registry.counter("selection.index.rekeys", "peers");
  m_.pulls = &registry.counter("selection.index.pulls", "entries");
  m_.dense_sweeps = &registry.counter("selection.index.dense_sweeps", "selections");
  m_.rebuilds = &registry.counter("selection.index.rebuilds", "rebuilds");
  m_.fast_path->add(fast_path_);
  m_.fallbacks->add(fallbacks_);
  m_.rekeys->add(rekeys_);
  m_.pulls->add(pulls_);
  m_.dense_sweeps->add(dense_sweeps_);
  m_.rebuilds->add(rebuilds_);
}

bool CandidateIndex::refuse() {
  ++fallbacks_;
  if (m_.fallbacks != nullptr) m_.fallbacks->add(1);
  return false;
}

// ---- lazy maintenance -------------------------------------------------

void CandidateIndex::push_live(std::uint32_t slot_index, double key) {
  Slot& slot = slots_[slot_index];
  ++slot.live_stamp;
  live_heap_.push_back(HeapEntry{key, slot_index, slot.live_stamp});
  std::push_heap(live_heap_.begin(), live_heap_.end(),
                 [](const HeapEntry& a, const HeapEntry& b) { return heap_cmp(a.key, b.key); });
}

void CandidateIndex::push_expiry(std::uint32_t slot_index, double key) {
  Slot& slot = slots_[slot_index];
  ++slot.exp_stamp;
  expiry_heap_.push_back(HeapEntry{key, slot_index, slot.exp_stamp});
  std::push_heap(expiry_heap_.begin(), expiry_heap_.end(),
                 [](const HeapEntry& a, const HeapEntry& b) { return heap_cmp(a.key, b.key); });
}

void CandidateIndex::drain_liveness(Seconds sim_now) {
  const auto cmp = [](const HeapEntry& a, const HeapEntry& b) { return heap_cmp(a.key, b.key); };
  while (!live_heap_.empty() && live_heap_.front().key <= sim_now) {
    std::pop_heap(live_heap_.begin(), live_heap_.end(), cmp);
    const HeapEntry entry = live_heap_.back();
    live_heap_.pop_back();
    Slot& slot = slots_[entry.slot];
    if (entry.stamp != slot.live_stamp) continue;
    mark_dirty(slot.snap.peer);
  }
}

void CandidateIndex::drain_expiry(Seconds now) {
  const auto cmp = [](const HeapEntry& a, const HeapEntry& b) { return heap_cmp(a.key, b.key); };
  while (!expiry_heap_.empty() && expiry_heap_.front().key <= now) {
    std::pop_heap(expiry_heap_.begin(), expiry_heap_.end(), cmp);
    const HeapEntry entry = expiry_heap_.back();
    expiry_heap_.pop_back();
    Slot& slot = slots_[entry.slot];
    if (entry.stamp != slot.exp_stamp) continue;
    mark_dirty(slot.snap.peer);
  }
}

void CandidateIndex::flush_dirty(const SelectionContext& context, Seconds sim_now) {
  if (all_dirty_) {
    for (std::uint32_t i = 0; i < slots_.size(); ++i) {
      refresh_slot(i, context, sim_now);
    }
    dirty_.clear();
    all_dirty_ = false;
    ++rebuilds_;
    if (m_.rebuilds != nullptr) m_.rebuilds->add(1);
    return;
  }
  for (const std::uint32_t i : dirty_) refresh_slot(i, context, sim_now);
  dirty_.clear();
}

void CandidateIndex::refresh_slot(std::uint32_t slot_index, const SelectionContext& context,
                                  Seconds sim_now) {
  Slot& slot = slots_[slot_index];
  slot.dirty = false;
  if (!slot_online(slot, sim_now)) {
    if (slot.in_trees) remove_from_trees(slot);
    return;
  }
  if (!slot.in_trees) {
    compute_keys(slot, slot_index, context);
    insert_into_trees(slot);
  } else {
    // Re-file only what moved: a treap's shape is a function of its
    // contents, so leaving an unchanged entry in place yields the very
    // tree an erase + re-insert would.
    const auto filed = filings();
    std::array<double, kMaxFilings> before{};
    for (std::size_t i = 0; i < filed.size(); ++i) before[i] = slot.*filed[i].key;
    compute_keys(slot, slot_index, context);
    for (std::size_t i = 0; i < filed.size(); ++i) {
      const double after = slot.*filed[i].key;
      if (same_key(before[i], after)) continue;
      RankedTree& tree = this->*filed[i].tree;
      tree.erase(before[i], slot.snap.peer);
      tree.insert(after, slot.snap.peer);
    }
    if (slot.snap.idle != slot.indexed_idle) {
      slot.indexed_idle = slot.snap.idle;
      if (slot.indexed_idle) {
        ++online_idle_;
      } else {
        --online_idle_;
      }
    }
  }
  ++rekeys_;
  if (m_.rekeys != nullptr) m_.rekeys->add(1);
}

void CandidateIndex::compute_keys(Slot& slot, std::uint32_t slot_index,
                                  const SelectionContext& context) {
  if (kind_ == ModelKind::kUserPreference) {
    slot.key_static = preference_->base_cost(slot.snap.peer);
  }
  if ((kind_ == ModelKind::kEvaluator || kind_ == ModelKind::kHybrid) && eval_term_ != nullptr) {
    slot.key_eval = eval_term_->cost(slot.snap, context);
    if (window_sensitive_ && slot.snap.statistics != nullptr) {
      const auto& window = slot.snap.statistics->message_window();
      if (const auto front = window.oldest_event()) {
        push_expiry(slot_index, window_expiry_time(*front, window.span()));
      }
    }
  }
  if (kind_ == ModelKind::kEconomic || kind_ == ModelKind::kHybrid) {
    const EconomicSchedulingModel& econ =
        kind_ == ModelKind::kHybrid ? hybrid_->economic_term() : *economic_;
    const EconomicConfig& cfg = econ.config();
    const PeerSnapshot& snap = slot.snap;
    slot.key_base = econ.estimate_ready_time(snap);
    // The attribute keys mirror estimate_service_time/estimate_cost's
    // fallbacks exactly: the chain evaluated at a peer's own keys IS
    // its scan value, which is what makes frontier bounds exact.
    GigaHertz speed = snap.cpu_ghz;
    MbitPerSec rate = cfg.default_rate_estimate;
    Seconds resp = 0.0;
    if (snap.history != nullptr) {
      if (const auto hist = snap.history->mean_effective_speed(snap.peer, cfg.history_depth)) {
        speed = *hist;
      }
      if (const auto hist = snap.history->mean_transfer_rate(snap.peer, cfg.history_depth)) {
        rate = *hist;
      }
      if (const auto hist = snap.history->mean_response_time(snap.peer, cfg.history_depth)) {
        resp = *hist;
      }
    }
    slot.key_speed = speed;
    slot.key_rate = rate;
    slot.key_resp = resp;
    slot.key_price = snap.price_per_cpu_second;
    slot.key_cpu = snap.cpu_ghz;
  }
}

std::span<const CandidateIndex::Filing> CandidateIndex::filings() const {
  using C = CandidateIndex;
  static constexpr Filing kPreference[] = {{&C::t_static_, &Slot::key_static}};
  static constexpr Filing kEvaluator[] = {{&C::t_eval_, &Slot::key_eval}};
  // Hybrid files everything economic files, plus the evaluator cost.
  static constexpr Filing kHybrid[] = {
      {&C::t_eval_, &Slot::key_eval},   {&C::t_base_, &Slot::key_base},
      {&C::t_speed_, &Slot::key_speed}, {&C::t_rate_, &Slot::key_rate},
      {&C::t_resp_, &Slot::key_resp},   {&C::t_price_, &Slot::key_price},
      {&C::t_cpu_, &Slot::key_cpu},
  };
  static_assert(std::size(kHybrid) == kMaxFilings);
  switch (kind_) {
    case ModelKind::kUserPreference:
      return kPreference;
    case ModelKind::kEvaluator:
      return kEvaluator;
    case ModelKind::kHybrid:
      return kHybrid;
    case ModelKind::kEconomic:
      return std::span<const Filing>(kHybrid).subspan(1);
    default:
      return {};
  }
}

void CandidateIndex::insert_into_trees(Slot& slot) {
  const PeerId peer = slot.snap.peer;
  ids_.insert(0.0, peer);
  for (const Filing& filing : filings()) (this->*filing.tree).insert(slot.*filing.key, peer);
  slot.in_trees = true;
  slot.indexed_idle = slot.snap.idle;
  slot.snap.online = true;
  if (slot.indexed_idle) ++online_idle_;
}

void CandidateIndex::remove_from_trees(Slot& slot) {
  const PeerId peer = slot.snap.peer;
  ids_.erase(0.0, peer);
  for (const Filing& filing : filings()) (this->*filing.tree).erase(slot.*filing.key, peer);
  slot.in_trees = false;
  if (slot.indexed_idle) --online_idle_;
  slot.indexed_idle = false;
}

void CandidateIndex::drop_trees() {
  for (RankedTree* tree : {&ids_, &t_static_, &t_eval_, &t_base_, &t_speed_, &t_rate_,
                           &t_resp_, &t_price_, &t_cpu_}) {
    tree->clear();
  }
  online_idle_ = 0;
  for (Slot& slot : slots_) {
    slot.in_trees = false;
    slot.indexed_idle = false;
  }
}

// ---- threshold-walk plumbing ------------------------------------------

void CandidateIndex::mark_excludes(const SelectionContext& context) {
  ++select_epoch_;
  excl_online_ = 0;
  excl_idle_ = 0;
  for (const PeerId peer : context.exclude) {
    Slot* slot = find_slot(peer);
    if (slot == nullptr || slot->excluded == select_epoch_) continue;
    slot->excluded = select_epoch_;
    if (slot->in_trees) {
      ++excl_online_;
      if (slot->indexed_idle) ++excl_idle_;
    }
  }
}

bool CandidateIndex::eligible(const Slot& slot, bool idle_gate) const noexcept {
  if (slot.excluded == select_epoch_) return false;
  if (idle_gate && !slot.snap.idle) return false;
  return true;
}

template <typename ValueOf, typename BoundOf>
double CandidateIndex::extremum(std::vector<Cursor>& cursors, bool want_max, bool idle_gate,
                                ValueOf value_of, BoundOf bound_of, std::size_t budget,
                                bool& blown) {
  ++walk_epoch_;
  double best = want_max ? -kInf : kInf;
  bool have = false;
  std::size_t walked = 0;
  for (;;) {
    bool enumerated_all = false;
    for (auto& cursor : cursors) {
      if (cursor.exhausted()) {
        enumerated_all = true;
        continue;
      }
      const auto entry = cursor.step();
      ++pulls_;
      ++walked;
      if (cursor.exhausted()) enumerated_all = true;
      Slot& slot = slots_[slot_of_.find(entry.peer)->second];
      if (slot.visited == walk_epoch_) continue;
      slot.visited = walk_epoch_;
      if (!eligible(slot, idle_gate)) continue;
      const double v = value_of(slot);
      if (!have || (want_max ? v > best : v < best)) {
        best = v;
        have = true;
      }
    }
    if (enumerated_all) break;
    if (have) {
      const double bound = bound_of();
      if (want_max ? best >= bound : best <= bound) break;
    }
    if (walked > budget) {
      // Degenerate distribution: the frontier is stuck in tied runs and
      // the bound cannot converge. Abandon the walk; the caller redoes
      // this extremum with a dense sweep.
      blown = true;
      return best;
    }
  }
  return best;
}

template <typename ValueOf, typename BoundOf>
void CandidateIndex::top_k(std::vector<Cursor>& cursors, std::size_t k, bool idle_gate,
                           ValueOf value_of, BoundOf bound_of, std::size_t budget, bool& blown) {
  ++walk_epoch_;
  scored_.clear();
  best_heap_.clear();
  const auto better = [](const Scored& a, const Scored& b) {
    if (a.value != b.value) return a.value < b.value;
    return a.peer < b.peer;
  };
  std::size_t walked = 0;
  for (;;) {
    bool enumerated_all = false;
    for (auto& cursor : cursors) {
      if (cursor.exhausted()) {
        enumerated_all = true;
        continue;
      }
      const auto entry = cursor.step();
      ++pulls_;
      ++walked;
      if (cursor.exhausted()) enumerated_all = true;
      Slot& slot = slots_[slot_of_.find(entry.peer)->second];
      if (slot.visited == walk_epoch_) continue;
      slot.visited = walk_epoch_;
      if (!eligible(slot, idle_gate)) continue;
      const std::uint32_t slot_index =
          static_cast<std::uint32_t>(&slot - slots_.data());
      const Scored scored{slot_index, value_of(slot), entry.peer};
      scored_.push_back(scored);
      if (best_heap_.size() < k) {
        best_heap_.push_back(scored);
        std::push_heap(best_heap_.begin(), best_heap_.end(), better);
      } else if (better(scored, best_heap_.front())) {
        std::pop_heap(best_heap_.begin(), best_heap_.end(), better);
        best_heap_.back() = scored;
        std::push_heap(best_heap_.begin(), best_heap_.end(), better);
      }
    }
    if (enumerated_all) return;
    // Strictly better: a tie at the bound could still be beaten on the
    // peer-id tiebreak by an unseen peer, so keep pulling through ties.
    if (best_heap_.size() >= k && best_heap_.front().value < bound_of()) return;
    if (walked > budget) {
      blown = true;
      return;
    }
  }
}

template <typename ValueOf>
void CandidateIndex::dense_top_k(std::size_t k, bool idle_gate, ValueOf value_of) {
  ++dense_sweeps_;
  if (m_.dense_sweeps != nullptr) m_.dense_sweeps->add(1);
  scored_.clear();
  best_heap_.clear();
  const auto better = [](const Scored& a, const Scored& b) {
    if (a.value != b.value) return a.value < b.value;
    return a.peer < b.peer;
  };
  for (const Slot& slot : slots_) {
    if (!slot.in_trees || !eligible(slot, idle_gate)) continue;
    ++pulls_;
    const std::uint32_t slot_index =
        static_cast<std::uint32_t>(&slot - slots_.data());
    const Scored scored{slot_index, value_of(slot), slot.snap.peer};
    if (best_heap_.size() < k) {
      best_heap_.push_back(scored);
      std::push_heap(best_heap_.begin(), best_heap_.end(), better);
    } else if (better(scored, best_heap_.front())) {
      std::pop_heap(best_heap_.begin(), best_heap_.end(), better);
      best_heap_.back() = scored;
      std::push_heap(best_heap_.begin(), best_heap_.end(), better);
    }
  }
  scored_ = best_heap_;
}

void CandidateIndex::emit_scored(std::size_t k, std::vector<PeerId>& out) {
  // Mirrors append_ranked: std::sort by (cost, peer); entries are
  // distinct peers, so the permutation is unique.
  std::sort(scored_.begin(), scored_.end(), [](const Scored& a, const Scored& b) {
    if (a.value != b.value) return a.value < b.value;
    return a.peer < b.peer;
  });
  const std::size_t n = std::min(k, scored_.size());
  out.clear();
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(scored_[i].peer);
}

// ---- per-model fast paths ---------------------------------------------

void CandidateIndex::select_blind(const SelectionContext& context, std::size_t k,
                                  std::vector<PeerId>& out) {
  (void)context;  // exclude-free by gate; blind ignores the rest
  out.clear();
  const std::size_t m = ids_.size();
  if (m == 0) return;  // scan returns before advancing the cursor
  std::size_t start = 0;
  if (blind_->mode() == BlindModel::Mode::kRoundRobin) start = blind_->take_turn(m);
  const std::size_t count = std::min(k, m);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(ids_.kth((start + i) % m).peer);
  }
}

void CandidateIndex::select_static_tree(const RankedTree& tree, const SelectionContext& context,
                                        std::size_t k, std::vector<PeerId>& out) {
  (void)context;
  out.clear();
  const std::size_t n = tree.size();
  for (std::size_t i = 0; i < n && out.size() < k; ++i) {
    const auto entry = tree.kth(i);
    ++pulls_;
    const Slot& slot = slots_[slot_of_.find(entry.peer)->second];
    if (slot.excluded == select_epoch_) continue;
    out.push_back(entry.peer);
  }
}

void CandidateIndex::select_economic(const SelectionContext& context, std::size_t k,
                                     std::vector<PeerId>& out) {
  out.clear();
  const EconomicConfig& cfg = economic_->config();
  const bool any_idle = online_idle_ > excl_idle_;
  const bool idle_gate = cfg.prefer_idle && any_idle;
  const std::size_t n_el =
      idle_gate ? online_idle_ - excl_idle_ : ids_.size() - excl_online_;
  if (n_el == 0) return;  // scan: no offers → empty ranking
  const std::size_t n_needed = std::min(k, n_el);

  const bool has_work = context.work > 0.0;
  const bool has_payload = context.payload_size > 0;

  // Monotone mirrors of the scan's accumulation order, evaluated at
  // per-attribute frontier values — exact bounds, no margins.
  const auto service_chain = [&](double speed, double rate, double resp) {
    Seconds service = 0.0;
    if (context.work > 0.0) service += context.work / std::max(speed, 1e-6);
    if (context.payload_size > 0) service += wire_time(context.payload_size, rate);
    service += resp;
    return service;
  };
  const auto completion_chain = [&](double ready, double speed, double rate, double resp) {
    return ready + service_chain(speed, rate, resp);
  };
  const auto cost_chain = [&](double price, double cpu, double rate, double resp) {
    const Seconds cpu_time = context.work > 0.0 ? context.work / std::max(cpu, 1e-6)
                                                : service_chain(0.0, rate, resp);
    return price * cpu_time;
  };
  // The chains evaluated at one peer's cached keys ARE its scan values
  // (compute_keys mirrors the estimators' fallbacks exactly), so per-
  // peer evaluation never touches the estimators or the history maps.
  const auto completion_of = [&](const Slot& s) {
    return completion_chain(s.key_base, s.key_speed, s.key_rate, s.key_resp);
  };
  const auto cost_of = [&](const Slot& s) {
    return cost_chain(s.key_price, s.key_cpu, s.key_rate, s.key_resp);
  };

  int ci_base = -1, ci_speed = -1, ci_rate = -1, ci_resp = -1, ci_price = -1, ci_cpu = -1;
  const auto reset = [&]() {
    cursors_.clear();
    ci_base = ci_speed = ci_rate = ci_resp = ci_price = ci_cpu = -1;
  };
  const auto add = [&](int& index, const RankedTree& tree, bool desc) {
    index = static_cast<int>(cursors_.size());
    cursors_.push_back(Cursor{&tree, desc, 0, 0.0});
  };
  const auto f = [&](int index) { return cursors_[static_cast<std::size_t>(index)].frontier; };

  const auto time_cursors = [&](bool low) {
    reset();
    add(ci_base, t_base_, !low);
    if (has_work) add(ci_speed, t_speed_, low);
    if (has_payload) add(ci_rate, t_rate_, low);
    add(ci_resp, t_resp_, !low);
  };
  const auto time_bound = [&]() {
    return completion_chain(f(ci_base), has_work ? f(ci_speed) : 0.0,
                            has_payload ? f(ci_rate) : 0.0, f(ci_resp));
  };
  const auto cost_cursors = [&](bool low) {
    reset();
    add(ci_price, t_price_, !low);
    if (has_work) {
      add(ci_cpu, t_cpu_, low);
    } else {
      if (has_payload) add(ci_rate, t_rate_, low);
      add(ci_resp, t_resp_, !low);
    }
  };
  // With work, cost_chain reads only price and cpu, and cost_cursors
  // opened no rate or response cursor to read from.
  const auto cost_bound = [&]() {
    return cost_chain(f(ci_price), has_work ? f(ci_cpu) : 0.0,
                      has_payload && !has_work ? f(ci_rate) : 0.0, has_work ? 0.0 : f(ci_resp));
  };

  const std::size_t budget = pull_budget(n_el);
  // A backed-off select starts out blown: straight to the dense sweep.
  Backoff& backoff = backoff_for(context);
  const bool probe = backoff.probe();
  bool blown = !probe;
  double tlo = kInf, thi = -kInf, clo = kInf, chi = -kInf;
  if (!blown) {
    time_cursors(true);
    tlo = extremum(cursors_, /*want_max=*/false, idle_gate, completion_of, time_bound, budget,
                   blown);
  }
  if (!blown) {
    time_cursors(false);
    thi = extremum(cursors_, /*want_max=*/true, idle_gate, completion_of, time_bound, budget,
                   blown);
  }
  if (!blown) {
    cost_cursors(true);
    clo = extremum(cursors_, /*want_max=*/false, idle_gate, cost_of, cost_bound, budget, blown);
  }
  if (!blown) {
    cost_cursors(false);
    chi = extremum(cursors_, /*want_max=*/true, idle_gate, cost_of, cost_bound, budget, blown);
  }
  if (blown) {
    // Dense redo of all four extrema in one pass over the cached slots:
    // exact by exhaustion, and cheaper than letting four stuck walks
    // crawl tied frontier runs one pull at a time.
    tlo = kInf, thi = -kInf, clo = kInf, chi = -kInf;
    for (const Slot& s : slots_) {
      if (!s.in_trees || !eligible(s, idle_gate)) continue;
      const double t = completion_of(s);
      const double c = cost_of(s);
      if (t < tlo) tlo = t;
      if (t > thi) thi = t;
      if (c < clo) clo = c;
      if (c > chi) chi = c;
    }
  }

  const double wsum = cfg.time_weight + cfg.cost_weight;
  const auto utility_of = [&](const Slot& s) {
    const double completion = completion_of(s);
    const double cost = cost_of(s);
    const double tnorm = thi > tlo ? (completion - tlo) / (thi - tlo) : 0.0;
    const double cnorm = chi > clo ? (cost - clo) / (chi - clo) : 0.0;
    double utility = (cfg.time_weight * tnorm + cfg.cost_weight * cnorm) / wsum;
    utility -= 1e-9 * s.snap.cpu_ghz;
    return utility;
  };

  reset();
  add(ci_base, t_base_, false);
  if (has_work) add(ci_speed, t_speed_, true);
  if (has_payload) add(ci_rate, t_rate_, true);
  add(ci_resp, t_resp_, false);
  add(ci_price, t_price_, false);
  add(ci_cpu, t_cpu_, true);  // cost lower bound (work > 0) and the -1e-9 tiebreak
  const auto utility_bound = [&]() {
    const double completion = completion_chain(f(ci_base), has_work ? f(ci_speed) : 0.0,
                                               has_payload ? f(ci_rate) : 0.0, f(ci_resp));
    const double cost = cost_chain(f(ci_price), has_work ? f(ci_cpu) : 0.0,
                                   has_payload ? f(ci_rate) : 0.0,
                                   has_work ? 0.0 : f(ci_resp));
    const double tnorm = thi > tlo ? (completion - tlo) / (thi - tlo) : 0.0;
    const double cnorm = chi > clo ? (cost - clo) / (chi - clo) : 0.0;
    double utility = (cfg.time_weight * tnorm + cfg.cost_weight * cnorm) / wsum;
    utility -= 1e-9 * f(ci_cpu);
    return utility;
  };
  // Blown extrema already proved the distribution degenerate.
  bool rank_blown = blown;
  if (!rank_blown) {
    top_k(cursors_, n_needed, idle_gate, utility_of, utility_bound, budget, rank_blown);
  }
  if (probe) backoff.settle(rank_blown);
  if (rank_blown) dense_top_k(n_needed, idle_gate, utility_of);
  emit_scored(n_needed, out);
}

void CandidateIndex::select_hybrid(const SelectionContext& context, std::size_t k,
                                   std::vector<PeerId>& out) {
  out.clear();
  const std::size_t n_el = ids_.size() - excl_online_;
  if (n_el == 0) return;
  const std::size_t n_needed = std::min(k, n_el);

  const bool has_work = context.work > 0.0;
  const bool has_payload = context.payload_size > 0;

  const auto service_chain = [&](double speed, double rate, double resp) {
    Seconds service = 0.0;
    if (context.work > 0.0) service += context.work / std::max(speed, 1e-6);
    if (context.payload_size > 0) service += wire_time(context.payload_size, rate);
    service += resp;
    return service;
  };
  const auto cost_chain = [&](double price, double cpu, double rate, double resp) {
    const Seconds cpu_time = context.work > 0.0 ? context.work / std::max(cpu, 1e-6)
                                                : service_chain(0.0, rate, resp);
    return price * cpu_time;
  };
  // Mirrors the scan's left-associated ready + service + cost.
  const auto e_chain = [&](double ready, double speed, double rate, double resp, double price,
                           double cpu) {
    return ready + service_chain(speed, rate, resp) + cost_chain(price, cpu, rate, resp);
  };
  // Per-peer economic term straight off the cached keys; see the
  // compute_keys exactness note.
  const auto e_of = [&](const Slot& s) {
    return e_chain(s.key_base, s.key_speed, s.key_rate, s.key_resp, s.key_price, s.key_cpu);
  };

  int ci_base = -1, ci_speed = -1, ci_rate = -1, ci_resp = -1, ci_price = -1, ci_cpu = -1,
      ci_eval = -1;
  const auto reset = [&]() {
    cursors_.clear();
    ci_base = ci_speed = ci_rate = ci_resp = ci_price = ci_cpu = ci_eval = -1;
  };
  const auto add = [&](int& index, const RankedTree& tree, bool desc) {
    index = static_cast<int>(cursors_.size());
    cursors_.push_back(Cursor{&tree, desc, 0, 0.0});
  };
  const auto f = [&](int index) { return cursors_[static_cast<std::size_t>(index)].frontier; };

  const auto e_cursors = [&](bool low) {
    reset();
    add(ci_base, t_base_, !low);
    if (has_work) add(ci_speed, t_speed_, low);
    if (has_payload) add(ci_rate, t_rate_, low);
    add(ci_resp, t_resp_, !low);
    add(ci_price, t_price_, !low);
    if (has_work) add(ci_cpu, t_cpu_, low);
  };
  const auto e_bound = [&]() {
    return e_chain(f(ci_base), has_work ? f(ci_speed) : 0.0, has_payload ? f(ci_rate) : 0.0,
                   f(ci_resp), f(ci_price), has_work ? f(ci_cpu) : 0.0);
  };

  const std::size_t budget = pull_budget(n_el);
  Backoff& backoff = backoff_for(context);
  const bool probe = backoff.probe();
  bool blown = !probe;
  double elo = kInf, ehi = -kInf;
  if (!blown) {
    e_cursors(true);
    elo = extremum(cursors_, /*want_max=*/false, /*idle_gate=*/false, e_of, e_bound, budget,
                   blown);
  }
  if (!blown) {
    e_cursors(false);
    ehi = extremum(cursors_, /*want_max=*/true, /*idle_gate=*/false, e_of, e_bound, budget,
                   blown);
  }
  if (blown) {
    elo = kInf, ehi = -kInf;
    for (const Slot& s : slots_) {
      if (!s.in_trees || !eligible(s, /*idle_gate=*/false)) continue;
      const double e = e_of(s);
      if (e < elo) elo = e;
      if (e > ehi) ehi = e;
    }
  }

  // Evaluator span: the eval tree is keyed by the exact evaluator
  // cost, so the first/last non-excluded entries are the span.
  double vlo = 0.0;
  double vhi = 0.0;
  for (std::size_t i = 0; i < t_eval_.size(); ++i) {
    const auto entry = t_eval_.kth(i);
    ++pulls_;
    if (slots_[slot_of_.find(entry.peer)->second].excluded == select_epoch_) continue;
    vlo = entry.key;
    break;
  }
  for (std::size_t i = t_eval_.size(); i-- > 0;) {
    const auto entry = t_eval_.kth(i);
    ++pulls_;
    if (slots_[slot_of_.find(entry.peer)->second].excluded == select_epoch_) continue;
    vhi = entry.key;
    break;
  }

  const double alpha = hybrid_->alpha();
  const auto score_of = [&](const Slot& s) {
    const double e = e_of(s);
    const double v = s.key_eval;  // select-time exact: expiry re-dirties on window decay
    const double en = ehi > elo ? (e - elo) / (ehi - elo) : 0.0;
    const double vn = vhi > vlo ? (v - vlo) / (vhi - vlo) : 0.0;
    return alpha * en + (1.0 - alpha) * vn;
  };

  reset();
  add(ci_base, t_base_, false);
  if (has_work) add(ci_speed, t_speed_, true);
  if (has_payload) add(ci_rate, t_rate_, true);
  add(ci_resp, t_resp_, false);
  add(ci_price, t_price_, false);
  if (has_work) add(ci_cpu, t_cpu_, true);
  add(ci_eval, t_eval_, false);
  const auto score_bound = [&]() {
    const double e = e_chain(f(ci_base), has_work ? f(ci_speed) : 0.0,
                             has_payload ? f(ci_rate) : 0.0, f(ci_resp), f(ci_price),
                             has_work ? f(ci_cpu) : 0.0);
    const double v = f(ci_eval);
    const double en = ehi > elo ? (e - elo) / (ehi - elo) : 0.0;
    const double vn = vhi > vlo ? (v - vlo) / (vhi - vlo) : 0.0;
    return alpha * en + (1.0 - alpha) * vn;
  };
  bool rank_blown = blown;
  if (!rank_blown) {
    top_k(cursors_, n_needed, /*idle_gate=*/false, score_of, score_bound, budget, rank_blown);
  }
  if (probe) backoff.settle(rank_blown);
  if (rank_blown) dense_top_k(n_needed, /*idle_gate=*/false, score_of);
  emit_scored(n_needed, out);
}

// ---- entry point -------------------------------------------------------

bool CandidateIndex::try_select(const SelectionContext& context, Seconds sim_now, std::size_t k,
                                std::vector<PeerId>& out) {
  if (kind_ == ModelKind::kNone || model_ == nullptr) return refuse();
  if (context.reputation_weight != 0.0) return refuse();
  if (context.exclude.size() > config_.max_inline_excludes) return refuse();
  if (kind_ == ModelKind::kBlind && !context.exclude.empty()) return refuse();
  // Economically-constrained petitions (deadline, budget, or an explicit
  // objective) go through the broker's econ engine, which needs the full
  // model ranking — not just the top-k the threshold walk produces — to
  // run admission. Refuse for every model, not only kEconomic.
  if (context.econ_constrained()) return refuse();

  drain_liveness(sim_now);
  drain_expiry(context.now);
  flush_dirty(context, sim_now);
  mark_excludes(context);

  const std::uint64_t pulls_before = pulls_;
  switch (kind_) {
    case ModelKind::kBlind:
      select_blind(context, k, out);
      break;
    case ModelKind::kUserPreference:
      select_static_tree(t_static_, context, k, out);
      break;
    case ModelKind::kEvaluator:
      select_static_tree(t_eval_, context, k, out);
      break;
    case ModelKind::kEconomic:
      select_economic(context, k, out);
      break;
    case ModelKind::kHybrid:
      select_hybrid(context, k, out);
      break;
    default:
      return refuse();
  }
  ++fast_path_;
  if (m_.fast_path != nullptr) m_.fast_path->add(1);
  if (m_.pulls != nullptr) m_.pulls->add(pulls_ - pulls_before);
  return true;
}

}  // namespace peerlab::core
