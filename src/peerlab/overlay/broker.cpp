#include "peerlab/overlay/broker.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "peerlab/common/check.hpp"
#include "peerlab/common/log.hpp"
#include "peerlab/obs/trace.hpp"

namespace peerlab::overlay {

using obs::trace::TraceKind;

BrokerPeer::BrokerPeer(transport::TransportFabric& fabric, NodeId node,
                       OverlayDirectories& directories, BrokerConfig config)
    : endpoint_(fabric.attach(node)),
      node_(node),
      directories_(directories),
      config_(config),
      rendezvous_(fabric.simulator()),
      discovery_(endpoint_, directories.rendezvous, peer_of(node), node),
      membership_(endpoint_, directories.groups, peer_of(node), node),
      history_(config.history_capacity),
      reputation_(config.reputation),
      econ_(config.econ),
      model_(std::make_unique<core::BlindModel>()),
      index_(core::CandidateIndex::Config{config.heartbeat_interval,
                                          config.offline_after_missed,
                                          /*max_inline_excludes=*/64}),
      select_channel_(endpoint_, transport::MessageType::kSelectRequest,
                      transport::MessageType::kSelectResponse) {
  PEERLAB_CHECK_MSG(config_.heartbeat_interval > 0.0, "heartbeat interval must be positive");
  // The index only serves undefended rankings: reputation penalties and
  // quarantine excludes re-order candidates petition by petition, so a
  // defended broker keeps the plain scan (and pays zero index upkeep).
  index_active_ = config_.selection_index && !config_.reputation.enabled;
  if (index_active_) {
    index_.set_history(&history_);
    history_.set_observer([this](PeerId peer) { index_.mark_dirty(peer); });
    index_.bind_model(model_.get());
  }
  directories_.rendezvous.enroll(node_, rendezvous_);
  directories_.groups.enroll(node_, groups_);
  discovery_.serve_rendezvous_queries();
  membership_.serve_registry();
  select_channel_.serve([this](const transport::Message& m) { serve_selection(m); });
  endpoint_.set_handler(transport::MessageType::kHeartbeat,
                        [this](const transport::Message& m) { on_heartbeat(m); });
  endpoint_.set_handler(transport::MessageType::kStatsReport,
                        [this](const transport::Message& m) { on_stats_report(m); });
}

BrokerPeer::~BrokerPeer() {
  directories_.rendezvous.withdraw(node_);
  directories_.groups.withdraw(node_);
  endpoint_.clear_handler(transport::MessageType::kHeartbeat);
  endpoint_.clear_handler(transport::MessageType::kStatsReport);
}

stats::PeerStatistics& BrokerPeer::statistics_for(PeerId peer) {
  auto it = statistics_.find(peer);
  if (it == statistics_.end()) {
    it = statistics_.emplace(peer, stats::PeerStatistics(config_.stats_window)).first;
  }
  // Every statistics mutation funnels through here; telling the index
  // keeps its cached evaluator keys coherent (O(1), re-key is lazy).
  if (index_active_) index_.note_statistics(peer, &it->second);
  return it->second;
}

const stats::PeerStatistics* BrokerPeer::find_statistics(PeerId peer) const {
  const auto it = statistics_.find(peer);
  return it == statistics_.end() ? nullptr : &it->second;
}

const BrokerPeer::ClientRecord* BrokerPeer::client(PeerId peer) const {
  const auto it = clients_.find(peer);
  return it == clients_.end() ? nullptr : &it->second;
}

std::vector<PeerId> BrokerPeer::registered_clients() const {
  std::vector<PeerId> out;
  out.reserve(clients_.size());
  for (const auto& [peer, record] : clients_) out.push_back(peer);
  return out;
}

bool BrokerPeer::online(PeerId peer) const {
  const ClientRecord* record = client(peer);
  return record != nullptr && online(*record, sim().now());
}

void BrokerPeer::set_selection_model(std::unique_ptr<core::SelectionModel> model) {
  PEERLAB_CHECK_MSG(model != nullptr, "selection model must not be null");
  model_ = std::move(model);
  if (index_active_) index_.bind_model(model_.get());
}

void BrokerPeer::fill_snapshots(std::vector<core::PeerSnapshot>& out) const {
  out.clear();
  out.reserve(clients_.size());
  const auto& nodes = topology();
  const Seconds now = sim().now();
  // Both maps are ordered by peer, so the statistics cursor only ever
  // moves forward.
  auto stats_it = statistics_.begin();
  for (const auto& [peer, record] : clients_) {
    while (stats_it != statistics_.end() && stats_it->first < peer) ++stats_it;
    core::PeerSnapshot& snap = out.emplace_back();
    snap.peer = peer;
    snap.node = record.node;
    const auto& profile = nodes.node(record.node).profile();
    snap.cpu_ghz = profile.cpu_ghz;
    snap.price_per_cpu_second = profile.price_per_cpu_second;
    snap.online = online(record, now);
    snap.idle = record.idle;
    snap.queued_tasks = record.backlog;
    snap.active_transfers = record.pending_transfers;
    if (stats_it != statistics_.end() && stats_it->first == peer) {
      snap.statistics = &stats_it->second;
    }
    snap.history = &history_;
    if (config_.reputation.enabled) snap.reputation = reputation_.score(peer, now);
  }
}

std::vector<core::PeerSnapshot> BrokerPeer::snapshot_group() const {
  std::vector<core::PeerSnapshot> snapshots;
  fill_snapshots(snapshots);
  return snapshots;
}

const core::SelectionContext& BrokerPeer::scan(const core::SelectionContext& context,
                                               bool traced) {
  fill_snapshots(snapshots_);
  if (!config_.reputation.enabled) {
    model_->rank_into(snapshots_, context, ranking_);
    return context;
  }
  defended_ = context;  // reuses the exclude buffer's capacity
  defended_.reputation_weight = config_.reputation.rank_penalty_weight;
  const std::size_t base_excludes = defended_.exclude.size();
  reputation_.append_quarantined(sim().now(), defended_.exclude);
  if (traced && defended_.exclude.size() > base_excludes) {
    trace_->emit(node_, TraceKind::kReputationExclude, context.trace,
                 defended_.exclude.size() - base_excludes, 0);
  }
  model_->rank_into(snapshots_, defended_, ranking_);
  if (ranking_.empty() && defended_.exclude.size() > base_excludes) {
    // Graceful degradation: a quarantine that empties the candidate set
    // is lifted for this decision — a distrusted peer beats none.
    defended_.exclude.resize(base_excludes);
    model_->rank_into(snapshots_, defended_, ranking_);
  }
  return defended_;
}

std::vector<PeerId> BrokerPeer::select_peers(const core::SelectionContext& context,
                                             std::size_t k) {
  const obs::WallProfiler::Span span(m_.profiler, m_.rank_site);
  const bool traced = trace_ != nullptr && context.trace.active();
  // Economically-constrained petitions never take the index fast path:
  // admission needs the model's *full* ranking (the index's threshold
  // walk stops at k), and the index refuses these contexts anyway.
  const bool econ = econ_.applies(context);
  if (!econ && index_active_ && index_.try_select(context, sim().now(), k, index_out_)) {
    if (traced) {
      trace_->emit(node_, TraceKind::kIndexPull, context.trace, k, index_out_.size());
      audit_index_selection(context, k, index_out_);
    }
    return index_out_;
  }
  const core::SelectionContext& effective = scan(context, traced);
  econ::EconEngine::Verdict verdict;
  if (econ) verdict = econ_.admit_and_rank(snapshots_, effective, ranking_);
  const auto n = static_cast<std::ptrdiff_t>(std::min(k, ranking_.size()));
  std::vector<PeerId> selected(ranking_.begin(), ranking_.begin() + n);
  if (econ) {
    // Optimistic backlog: the answered peers are about to receive work
    // the next heartbeat cannot know about yet. Hint the engine so a
    // burst of constrained petitions spreads instead of piling onto the
    // one peer whose stale snapshot still looks idle.
    for (const PeerId peer : selected) econ_.note_assignment(peer, sim().now());
  }
  if (traced) {
    if (econ) {
      trace_->emit(node_, TraceKind::kEconRank, context.trace, verdict.feasible,
                   verdict.exhausted ? 0 : verdict.appraised);
    }
    trace_->emit(node_, TraceKind::kSelectRank, context.trace, snapshots_.size(),
                 selected.size());
  }
  return selected;
}

void BrokerPeer::audit_index_selection(const core::SelectionContext& context, std::size_t k,
                                       const std::vector<PeerId>& picked) {
  if (config_.selection_audit_period == 0) return;
  // The blind model's shared rotation cursor advances on every ranking;
  // re-running the scan would perturb the very selections under audit.
  // Blind index/scan equivalence is pinned by the differential harness
  // instead (tests/candidate_index_test.cpp).
  if (model_->name() == "blind") return;
  if (++audit_clock_ % config_.selection_audit_period != 0) return;
  const auto scanned = model_->select_k(snapshot_group(), context, k);
  trace_->emit(node_, TraceKind::kIndexAudit, context.trace, k, scanned == picked ? 1 : 0);
}

void BrokerPeer::attach_metrics(obs::MetricRegistry& registry, obs::WallProfiler* profiler) {
  m_.heartbeats = &registry.counter("overlay.heartbeats", "heartbeats");
  m_.stats_reports = &registry.counter("overlay.stats_reports", "reports");
  m_.selections_served = &registry.counter("overlay.selections_served", "selections");
  m_.federated_queries = &registry.counter("overlay.federated_queries", "queries");
  m_.profiler = profiler;
  m_.rank_site = profiler != nullptr ? &profiler->site("selection.rank") : nullptr;
  reputation_.attach_metrics(registry);
  econ_.attach_metrics(registry);
  index_.attach_metrics(registry);
}

void BrokerPeer::attach_trace(obs::trace::TraceRecorder* recorder) {
  trace_ = recorder;
  if (recorder == nullptr) {
    reputation_.set_quarantine_observer(nullptr);
    return;
  }
  reputation_.set_quarantine_observer([this](PeerId peer, Seconds until) {
    trace_->emit_ambient(node_, TraceKind::kQuarantine, peer.value(),
                         static_cast<std::uint64_t>(until));
    // A quarantine is the reputation defenses concluding a peer
    // misbehaved — exactly the moment the flight recorder is for.
    trace_->postmortem("quarantine", to_string(peer).c_str());
  });
}

void BrokerPeer::apply_stats(const StatsDelta& delta) { apply_stats(delta, PeerId()); }

void BrokerPeer::apply_stats(const StatsDelta& delta, PeerId reporter) {
  if (!delta.subject.valid()) return;
  ++reports_;
  if (m_.stats_reports != nullptr) m_.stats_reports->add(1);
  if (trace_ != nullptr && delta.trace.active()) {
    trace_->emit(node_, TraceKind::kStatsApply, delta.trace, delta.subject.value(),
                 reporter.value());
  }
  if (!config_.reputation.enabled) {
    apply_replicated(delta);
    if (delta_observer_) delta_observer_(delta);
    return;
  }
  const Seconds now = sim().now();
  StatsDelta vetted = delta;
  const bool self_report = reporter.valid() && reporter == delta.subject;
  if (self_report && (!delta.transfer_records.empty() || !delta.response_times.empty() ||
                      delta.file_done > 0 || delta.exec_ok > 0 || delta.msg_ok > 0)) {
    // Honest clients self-report only queue samples (outbox/inbox/
    // pending); outcome history about a peer comes from counterparties.
    // A self-report carrying outcome records is fabricated praise:
    // score the lie, drop those fields, keep the queue samples.
    reputation_.record_lie(reporter, now);
    vetted.transfer_records.clear();
    vetted.response_times.clear();
    vetted.file_done = 0;
    vetted.exec_ok = 0;
    vetted.msg_ok = 0;
  }
  if (!self_report) {
    // Counterparty-attributed outcomes feed the reputation score.
    for (int i = 0; i < vetted.file_fail; ++i) reputation_.record_failure(delta.subject, now);
    for (int i = 0; i < vetted.exec_fail; ++i) reputation_.record_failure(delta.subject, now);
    for (int i = 0; i < vetted.msg_fail; ++i) reputation_.record_failure(delta.subject, now);
    for (int i = 0; i < vetted.exec_ok; ++i) reputation_.record_success(delta.subject, now);
    for (const auto& record : vetted.transfer_records) {
      reputation_.record_transfer(delta.subject, record, now);
    }
  }
  apply_replicated(vetted);
  if (delta_observer_) delta_observer_(vetted);
}

void BrokerPeer::apply_replicated(const StatsDelta& delta) {
  if (!delta.subject.valid()) return;
  auto& s = statistics_for(delta.subject);
  const Seconds now = sim().now();
  for (int i = 0; i < delta.msg_ok; ++i) s.record_message(now, true);
  for (int i = 0; i < delta.msg_fail; ++i) s.record_message(now, false);
  for (int i = 0; i < delta.task_accept; ++i) s.record_task_accept(true);
  for (int i = 0; i < delta.task_reject; ++i) s.record_task_accept(false);
  for (int i = 0; i < delta.exec_ok; ++i) s.record_task_execution(true);
  for (int i = 0; i < delta.exec_fail; ++i) s.record_task_execution(false);
  for (int i = 0; i < delta.file_done; ++i) s.record_file(stats::FileOutcome::kCompleted);
  for (int i = 0; i < delta.file_cancel; ++i) s.record_file(stats::FileOutcome::kCancelled);
  for (int i = 0; i < delta.file_fail; ++i) s.record_file(stats::FileOutcome::kFailed);
  if (delta.outbox_sample >= 0.0) s.sample_outbox(delta.outbox_sample);
  if (delta.inbox_sample >= 0.0) s.sample_inbox(delta.inbox_sample);
  if (delta.pending_transfers >= 0) s.set_pending_transfers(delta.pending_transfers);
  for (const Seconds t : delta.response_times) {
    history_.record_response_time(delta.subject, t);
  }
  for (const auto& record : delta.task_records) history_.record_task(record);
  for (const auto& record : delta.transfer_records) history_.record_transfer(record);
}

void BrokerPeer::begin_session() {
  for (auto& [peer, s] : statistics_) s.begin_session();
  if (index_active_) index_.mark_all_dirty();
}

BrokerPeer::ReplicatedState BrokerPeer::export_state() const {
  ReplicatedState state;
  state.clients = clients_;
  state.statistics = statistics_;
  state.history = history_;
  return state;
}

void BrokerPeer::adopt_state(ReplicatedState state) {
  clients_ = std::move(state.clients);
  statistics_ = std::move(state.statistics);
  history_ = std::move(state.history);
  // HistoryStore assignment moves data only — this broker's mutation
  // observer stays installed — but every cached statistics pointer and
  // key is now stale: rebuild the index from the adopted registry.
  if (index_active_) rebuild_index();
}

void BrokerPeer::rebuild_index() {
  index_.clear();
  index_.set_history(&history_);
  history_.set_observer([this](PeerId peer) { index_.mark_dirty(peer); });
  index_.bind_model(model_.get());
  for (const auto& [peer, record] : clients_) upsert_index(peer, record);
}

void BrokerPeer::upsert_index(PeerId peer, const ClientRecord& record) {
  const auto& profile = topology().node(record.node).profile();
  index_.upsert_peer(peer, record.node, profile.cpu_ghz, profile.price_per_cpu_second,
                     find_statistics(peer), record.last_seen, record.idle, record.backlog,
                     record.pending_transfers);
}

void BrokerPeer::on_heartbeat(const transport::Message& m) {
  ++heartbeats_;
  if (m_.heartbeats != nullptr) m_.heartbeats->add(1);
  const PeerId peer(m.correlation);
  auto [it, inserted] = clients_.try_emplace(peer);
  ClientRecord& record = it->second;
  if (inserted) {
    record.peer = peer;
    record.node = m.src;
    record.first_seen = sim().now();
    PEERLAB_LOG(kInfo, "broker") << "registered " << to_string(peer) << " on "
                                 << to_string(m.src);
  }
  record.last_seen = sim().now();
  record.backlog = static_cast<int>(m.seq);
  record.pending_transfers = static_cast<int>(m.arg / 2);
  record.idle = (m.arg % 2) == 1;
  if (index_active_) upsert_index(peer, record);
}

void BrokerPeer::on_stats_report(const transport::Message& m) {
  const StatsDelta delta =
      directories_.stats_reports.claim(static_cast<std::uint64_t>(m.arg));
  apply_stats(delta, peer_of(m.src));
}

void BrokerPeer::federate_with(NodeId peer_broker) {
  PEERLAB_CHECK_MSG(peer_broker.valid() && peer_broker != node_,
                    "cannot federate with self or nothing");
  if (std::find(peer_brokers_.begin(), peer_brokers_.end(), peer_broker) !=
      peer_brokers_.end()) {
    return;
  }
  peer_brokers_.push_back(peer_broker);
  // Replace the plain local resolver with the federated one (idempotent
  // to re-install on every federate_with call).
  discovery_.serve_rendezvous_queries(
      [this](const jxta::AdvertisementQuery& query, std::int64_t hop,
             std::function<void(std::vector<jxta::Advertisement>)> done) {
        auto local = rendezvous_.query(query);
        // Forwarded queries (hop != 0) must not fan out again.
        if (!local.empty() || hop != 0 || peer_brokers_.empty()) {
          done(std::move(local));
          return;
        }
        ++federated_queries_;
        if (m_.federated_queries != nullptr) m_.federated_queries->add(1);
        forward_query(query, 0, std::make_shared<std::vector<jxta::Advertisement>>(),
                      std::move(done));
      });
}

void BrokerPeer::forward_query(const jxta::AdvertisementQuery& query, std::size_t peer_index,
                               std::shared_ptr<std::vector<jxta::Advertisement>> accumulated,
                               std::function<void(std::vector<jxta::Advertisement>)> done) {
  if (peer_index >= peer_brokers_.size()) {
    done(std::move(*accumulated));
    return;
  }
  // The discovery service's rendezvous pointer is only read while the
  // request is being issued; re-point, fire, restore.
  discovery_.set_rendezvous(peer_brokers_[peer_index]);
  discovery_.query_remote(
      query, /*hop=*/1,
      [this, query, peer_index, accumulated, done](std::vector<jxta::Advertisement> found) {
        for (auto& adv : found) accumulated->push_back(std::move(adv));
        if (!accumulated->empty()) {
          done(std::move(*accumulated));  // first non-empty hop wins
          return;
        }
        forward_query(query, peer_index + 1, accumulated, done);
      });
  discovery_.set_rendezvous(node_);
}

void BrokerPeer::serve_selection(const transport::Message& m) {
  ++selections_served_;
  if (m_.selections_served != nullptr) m_.selections_served->add(1);
  // Peek, not claim: the client's channel may retransmit this request.
  core::SelectionContext context;
  if (const auto* parked = directories_.selection_contexts.peek(m.correlation)) {
    context = *parked;
  }
  const auto k = static_cast<std::size_t>(std::max<std::int64_t>(1, m.arg));
  if (trace_ != nullptr && m.trace.active()) {
    // The broker-side view of the request, one hop downstream of the
    // client's kSelectRequest span (retransmissions repeat this event).
    trace_->emit(node_, TraceKind::kSelectServe, m.trace.hop(), k, m.src.value());
  }
  const auto selected = select_peers(context, k);
  if (auto* tracer = endpoint_.fabric().network().tracer()) {
    tracer->record(sim().now(), sim::TraceCategory::kSelection, "selection-served",
                   model_->name(), k, selected.size());
  }
  const std::uint64_t ticket = directories_.selections.park(selected);
  endpoint_.reply(m, transport::MessageType::kSelectResponse,
                  static_cast<std::int64_t>(ticket));
}

}  // namespace peerlab::overlay
