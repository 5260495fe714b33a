#include "peerlab/econ/economy.hpp"

#include <algorithm>

#include "peerlab/common/check.hpp"

namespace peerlab::econ {

namespace {

/// splitmix64 — the standard seeded scramble; full-period, so distinct
/// peer ids never collide on the base draw for a fixed pricing seed.
std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Uniform double in [0, 1) from the top 53 bits.
double unit_uniform(std::uint64_t bits) noexcept {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

}  // namespace

// ---- PriceBook ---------------------------------------------------------

double PriceBook::base_price(PeerId peer) const noexcept {
  const double u = unit_uniform(splitmix64(config_.seed ^ peer.value()));
  return config_.base_min + u * (config_.base_max - config_.base_min);
}

double PriceBook::unit_price(const core::PeerSnapshot& peer) const noexcept {
  double price = base_price(peer.peer);
  if (config_.cpu_coupling > 0.0 && config_.reference_cpu_ghz > 0.0) {
    const double ratio = peer.cpu_ghz / config_.reference_cpu_ghz;
    price *= (1.0 - config_.cpu_coupling) + config_.cpu_coupling * ratio;
  }
  if (config_.busy_surcharge > 0.0) {
    const int backlog = std::max(0, peer.queued_tasks) + std::max(0, peer.active_transfers);
    price *= 1.0 + config_.busy_surcharge * static_cast<double>(backlog);
  }
  if (config_.reputation_discount > 0.0) {
    // A distrusted peer discounts to stay attractive; clamp so a
    // pathological config cannot quote a negative price.
    const double factor = 1.0 - config_.reputation_discount * (1.0 - peer.reputation);
    price *= std::max(0.0, factor);
  }
  return price;
}

// ---- EconEngine --------------------------------------------------------

EconEngine::EconEngine(EconConfig config)
    : config_(config), prices_(config.pricing), estimators_(config.estimator) {}

core::EconObjective EconEngine::objective_for(
    const core::SelectionContext& context) const noexcept {
  return context.objective == core::EconObjective::kBrokerDefault ? config_.default_objective
                                                                  : context.objective;
}

void EconEngine::note_assignment(PeerId peer, Seconds now) {
  if (config_.assignment_hold <= 0.0) return;
  hints_.erase(std::remove_if(hints_.begin(), hints_.end(),
                              [now](const Hint& h) { return h.expires <= now; }),
               hints_.end());
  hints_.push_back({peer, now + config_.assignment_hold});
}

int EconEngine::pending_assignments(PeerId peer, Seconds now) const noexcept {
  int pending = 0;
  for (const Hint& hint : hints_) {
    if (hint.peer == peer && hint.expires > now) ++pending;
  }
  return pending;
}

core::PeerSnapshot EconEngine::loaded_view(const core::PeerSnapshot& peer, Seconds now) const {
  const int pending = pending_assignments(peer.peer, now);
  return pending == 0 ? peer : with_hints(peer, pending);
}

core::PeerSnapshot EconEngine::with_hints(const core::PeerSnapshot& peer, int pending) {
  core::PeerSnapshot view = peer;
  view.idle = false;
  view.queued_tasks += pending;
  view.active_transfers += pending;
  return view;
}

Appraisal EconEngine::appraise(const core::PeerSnapshot& peer,
                               const core::SelectionContext& context) const {
  return appraise_view(loaded_view(peer, context.now), context);
}

Appraisal EconEngine::appraise_view(const core::PeerSnapshot& view,
                                    const core::SelectionContext& context) const {
  Appraisal a;
  a.ready = estimators_.estimate_ready_time(view);
  a.service = estimators_.estimate_service_time(view, context);
  a.completion = context.now + a.ready + a.service;
  // Fixed-price contract at admission (DBC style): the quote charges
  // the *expected* service seconds at the peer's current unit price,
  // so under-estimates show up as deadline misses, never as surprise
  // charges.
  a.cost = prices_.unit_price(view) * a.service;
  a.meets_deadline = context.deadline <= 0.0 || a.completion <= context.deadline;
  a.within_budget = context.budget <= 0.0 || a.cost <= context.budget;
  return a;
}

double EconEngine::efficiency_score(const core::PeerSnapshot& peer, GigaHertz max_cpu) const {
  // Dubey & Tokekar's real-time efficient-peer identification:
  // responsiveness, capability and availability, each in [0, 1].
  double responsiveness = 0.5;  // neutral when the peergroup has no history
  if (peer.history != nullptr) {
    if (const auto mean = peer.history->mean_response_time(peer.peer,
                                                           config_.estimator.history_depth)) {
      responsiveness = 1.0 / (1.0 + std::max(0.0, *mean));
    }
  }
  const double capability = max_cpu > 0.0 ? peer.cpu_ghz / max_cpu : 1.0;
  const int backlog = std::max(0, peer.queued_tasks) + std::max(0, peer.active_transfers);
  const double availability =
      peer.idle && backlog == 0 ? 1.0 : 1.0 / (1.0 + static_cast<double>(backlog));
  const double total = config_.efficiency_latency_weight + config_.efficiency_capability_weight +
                       config_.efficiency_availability_weight;
  if (total <= 0.0) return 0.0;
  return (config_.efficiency_latency_weight * responsiveness +
          config_.efficiency_capability_weight * capability +
          config_.efficiency_availability_weight * availability) /
         total;
}

EconEngine::Verdict EconEngine::admit(std::span<const core::PeerSnapshot> candidates,
                                      std::span<const core::ScoredPeer> scored,
                                      const core::SelectionContext& context, std::size_t k,
                                      std::vector<PeerId>& out) {
  Verdict verdict;
  out.clear();
  ++petitions_;
  if (m_.petitions != nullptr) m_.petitions->add(1);
  if (scored.empty()) {
    verdict.exhausted = true;
    ++exhausted_;
    if (m_.exhausted != nullptr) m_.exhausted->add(1);
    return verdict;
  }

  index_candidates(candidates);
  // Unexpired hints, counted once per petition onto candidate positions.
  pending_.assign(candidates.size(), 0);
  for (const Hint& hint : hints_) {
    if (hint.expires <= context.now) continue;
    const std::size_t position = position_of(hint.peer);
    if (position < candidates.size()) ++pending_[position];
  }

  const core::EconObjective objective = objective_for(context);
  GigaHertz max_cpu = 0.0;

  entries_.clear();
  for (const core::ScoredPeer& s : scored) {
    PEERLAB_CHECK_MSG(s.position < candidates.size() && candidates[s.position].peer == s.peer,
                      "scored peer missing from candidate set");
    const core::PeerSnapshot& snap = candidates[s.position];
    const int pending = pending_[s.position];
    // Appraise the broker's snapshot in place; copy it only when an
    // assignment hint has to be folded in.
    entries_.push_back(Entry{s,
                             pending == 0 ? appraise_view(snap, context)
                                          : appraise_view(with_hints(snap, pending), context),
                             0.0});
    max_cpu = std::max(max_cpu, snap.cpu_ghz);
  }
  if (objective == core::EconObjective::kEfficiency) {
    for (Entry& entry : entries_) {
      // Availability must see the same assignment hints the appraisal
      // priced in, or a burst of petitions all crown the same peer.
      const core::PeerSnapshot& snap = candidates[entry.scored.position];
      const int pending = pending_[entry.scored.position];
      entry.efficiency = pending == 0 ? efficiency_score(snap, max_cpu)
                                      : efficiency_score(with_hints(snap, pending), max_cpu);
    }
  }

  // Feasible candidates first. Neither half needs its input order: the
  // model's (cost, peer) breaks every tie below, so each order is total.
  const auto mid = std::partition(entries_.begin(), entries_.end(),
                                  [](const Entry& e) { return e.appraisal.feasible(); });
  verdict.appraised = entries_.size();
  verdict.feasible = static_cast<std::size_t>(mid - entries_.begin());
  const auto by_model = [](const Entry& a, const Entry& b) {
    return core::ranks_before(a.scored, b.scored);
  };
  const auto emit = [&]() {
    const std::size_t n = std::min(k, entries_.size());
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) out.push_back(entries_[i].scored.peer);
  };
  if (verdict.feasible == 0) {
    // Every candidate blows the deadline or the budget. The broker
    // never refuses service: the model's least-bad order stands.
    verdict.exhausted = true;
    ++exhausted_;
    rejected_ += verdict.appraised;
    if (m_.exhausted != nullptr) m_.exhausted->add(1);
    if (m_.rejected != nullptr) m_.rejected->add(verdict.appraised);
    core::order_best(entries_.begin(), entries_.end(), k, by_model);
    emit();
    return verdict;
  }

  const auto by_objective = [objective](const Entry& a, const Entry& b) {
    const Appraisal& aa = a.appraisal;
    const Appraisal& ab = b.appraisal;
    switch (objective) {
      case core::EconObjective::kCostOptimise:
        if (aa.cost != ab.cost) return aa.cost < ab.cost;
        break;
      case core::EconObjective::kTimeOptimise:
        if (aa.completion != ab.completion) return aa.completion < ab.completion;
        break;
      case core::EconObjective::kEfficiency:
        if (a.efficiency != b.efficiency) return a.efficiency > b.efficiency;
        break;
      case core::EconObjective::kCostTime:
      case core::EconObjective::kBrokerDefault:  // resolved by objective_for
        if (aa.cost != ab.cost) return aa.cost < ab.cost;
        if (aa.completion != ab.completion) return aa.completion < ab.completion;
        break;
    }
    return core::ranks_before(a.scored, b.scored);
  };
  // At least the winner is ordered whatever k is, so the samples below
  // are the same at k = 0 as at k = n.
  core::order_best(entries_.begin(), mid, std::max<std::size_t>(k, 1), by_objective);
  if (k > verdict.feasible) core::order_best(mid, entries_.end(), k - verdict.feasible, by_model);
  emit();

  admitted_ += verdict.feasible;
  rejected_ += verdict.appraised - verdict.feasible;
  if (m_.admitted != nullptr) m_.admitted->add(verdict.feasible);
  if (m_.rejected != nullptr) m_.rejected->add(verdict.appraised - verdict.feasible);
  const Appraisal& winner = entries_.front().appraisal;
  if (m_.quoted_cost != nullptr) m_.quoted_cost->record(winner.cost);
  if (m_.predicted_completion != nullptr) {
    m_.predicted_completion->record(winner.completion - context.now);
  }
  return verdict;
}

void EconEngine::index_candidates(std::span<const core::PeerSnapshot> candidates) {
  positions_.clear();
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    positions_.emplace_back(candidates[i].peer, i);
  }
  // The broker's snapshots arrive in peer order; anything else is
  // sorted here (pairs order by peer, then by position).
  if (!std::is_sorted(positions_.begin(), positions_.end())) {
    std::sort(positions_.begin(), positions_.end());
  }
}

std::size_t EconEngine::position_of(PeerId peer) const {
  const auto it = std::lower_bound(
      positions_.begin(), positions_.end(), peer,
      [](const std::pair<PeerId, std::size_t>& entry, PeerId p) { return entry.first < p; });
  return it != positions_.end() && it->first == peer ? it->second : positions_.size();
}

void EconEngine::attach_metrics(obs::MetricRegistry& registry) {
  m_.petitions = &registry.counter("econ.petitions", "petitions");
  m_.admitted = &registry.counter("econ.admitted", "candidates");
  m_.rejected = &registry.counter("econ.rejected", "candidates");
  m_.exhausted = &registry.counter("econ.exhausted", "petitions");
  obs::Histogram::Options cost_opts;
  cost_opts.lo = 0.01;  // quotes run fractions of a credit .. thousands
  cost_opts.hi = 1e4;
  m_.quoted_cost = &registry.histogram("econ.quoted_cost", "credits", cost_opts);
  obs::Histogram::Options completion_opts;
  completion_opts.lo = 0.1;  // predicted time-to-complete, seconds .. hours
  completion_opts.hi = 1e5;
  m_.predicted_completion = &registry.histogram("econ.predicted_completion_s", "s",
                                                completion_opts);
}

// ---- Ledger ------------------------------------------------------------

void Ledger::record(const Job& job) {
  ++jobs_;
  if (job.completed) ++completions_;
  total_cost_ += job.cost;
  if (job.deadline > 0.0) {
    ++deadline_jobs_;
    // An incomplete job with a deadline missed it by definition.
    if (!job.completed || job.finished > job.deadline) ++deadline_misses_;
  }
  if (job.budget > 0.0) {
    ++budget_jobs_;
    if (job.cost > job.budget) ++budget_violations_;
  }
}

double Ledger::deadline_miss_rate() const noexcept {
  return deadline_jobs_ == 0
             ? 0.0
             : static_cast<double>(deadline_misses_) / static_cast<double>(deadline_jobs_);
}

double Ledger::budget_violation_rate() const noexcept {
  return budget_jobs_ == 0
             ? 0.0
             : static_cast<double>(budget_violations_) / static_cast<double>(budget_jobs_);
}

double Ledger::completion_rate() const noexcept {
  return jobs_ == 0 ? 0.0 : static_cast<double>(completions_) / static_cast<double>(jobs_);
}

double Ledger::mean_cost() const noexcept {
  return jobs_ == 0 ? 0.0 : total_cost_ / static_cast<double>(jobs_);
}

void Ledger::merge(const Ledger& other) {
  jobs_ += other.jobs_;
  completions_ += other.completions_;
  deadline_jobs_ += other.deadline_jobs_;
  deadline_misses_ += other.deadline_misses_;
  budget_jobs_ += other.budget_jobs_;
  budget_violations_ += other.budget_violations_;
  total_cost_ += other.total_cost_;
}

}  // namespace peerlab::econ
