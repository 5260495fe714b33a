#pragma once

// BrokerPeer — the "governor of the P2P network" (Section 3).
//
// The broker hosts the JXTA rendezvous index and the peergroup
// registry, keeps the per-peer statistics and the peergroup's
// historical data, tracks client liveness through heartbeats, and
// answers peer-selection requests with whichever SelectionModel is
// plugged in. Clients talk to it exclusively over the simulated
// control plane; structured payloads ride the directories' ticket
// stores.

#include <memory>

#include "peerlab/core/blind.hpp"
#include "peerlab/core/candidate_index.hpp"
#include "peerlab/core/selection_model.hpp"
#include "peerlab/econ/economy.hpp"
#include "peerlab/obs/metrics.hpp"
#include "peerlab/obs/profile.hpp"
#include "peerlab/overlay/directories.hpp"
#include "peerlab/overlay/reputation.hpp"
#include "peerlab/transport/reliable_channel.hpp"

namespace peerlab::overlay {

struct BrokerConfig {
  /// Clients heartbeat at this period; a client silent for
  /// `offline_after_missed` periods is considered offline.
  Seconds heartbeat_interval = 30.0;
  double offline_after_missed = 3.5;
  /// Span of the "last k hours" statistics window.
  Seconds stats_window = 4.0 * 3600.0;
  /// History records kept per peer.
  std::size_t history_capacity = 256;
  /// Observed-outcome reputation defenses (off by default; when off the
  /// broker behaves bit-identically to a build without the subsystem).
  ReputationConfig reputation;
  /// Deadline/budget-constrained economic engine (off by default; when
  /// off — or on but the petition carries no deadline, budget or
  /// objective — selection is bit-identical to a build without the
  /// subsystem). See econ/economy.hpp and DESIGN.md §17.
  econ::EconConfig econ;
  /// O(log n) top-k candidate indexes for the selection fast path
  /// (DESIGN.md §15). Selections stay bit-identical to the scan; the
  /// index deactivates itself while reputation defenses are enabled
  /// (penalties re-order rankings petition by petition).
  bool selection_index = true;
  /// Online index-vs-scan audit: every Nth traced index-served
  /// selection is re-ranked by the fallback scan and compared, with
  /// the verdict emitted as a kIndexAudit trace event the watchdog
  /// checks. Only runs when a trace recorder is attached AND the
  /// request carries an active context AND the model is stateless
  /// (the blind model's rotation cursor would be perturbed by the
  /// second ranking), so detached runs are byte-identical. 0 = off.
  std::uint32_t selection_audit_period = 16;
};

class BrokerPeer {
 public:
  BrokerPeer(transport::TransportFabric& fabric, NodeId node, OverlayDirectories& directories,
             BrokerConfig config = {});
  ~BrokerPeer();

  BrokerPeer(const BrokerPeer&) = delete;
  BrokerPeer& operator=(const BrokerPeer&) = delete;

  [[nodiscard]] PeerId id() const noexcept { return peer_of(node_); }
  [[nodiscard]] NodeId node() const noexcept { return node_; }

  // ---- hosted subsystems ----
  [[nodiscard]] jxta::RendezvousIndex& rendezvous() noexcept { return rendezvous_; }
  [[nodiscard]] jxta::PeerGroupRegistry& groups() noexcept { return groups_; }
  [[nodiscard]] const jxta::PeerGroupRegistry& groups() const noexcept { return groups_; }
  /// Current simulated time as the broker sees it.
  [[nodiscard]] Seconds now() const noexcept { return sim().now(); }
  [[nodiscard]] stats::HistoryStore& history() noexcept { return history_; }
  [[nodiscard]] const stats::HistoryStore& history() const noexcept { return history_; }
  [[nodiscard]] jxta::DiscoveryService& discovery() noexcept { return discovery_; }
  [[nodiscard]] const net::Topology& topology() const noexcept {
    return endpoint_.fabric().network().topology();
  }

  /// Statistics record for a peer (created on first touch).
  [[nodiscard]] stats::PeerStatistics& statistics_for(PeerId peer);
  [[nodiscard]] const stats::PeerStatistics* find_statistics(PeerId peer) const;

  // ---- client registry ----
  struct ClientRecord {
    PeerId peer;
    NodeId node;
    Seconds first_seen = 0.0;
    Seconds last_seen = 0.0;
    int backlog = 0;
    bool idle = true;
    int pending_transfers = 0;
  };
  [[nodiscard]] const ClientRecord* client(PeerId peer) const;
  [[nodiscard]] std::vector<PeerId> registered_clients() const;
  [[nodiscard]] bool online(PeerId peer) const;

  // ---- selection ----
  /// Plugs in a model; the broker starts with the blind baseline.
  void set_selection_model(std::unique_ptr<core::SelectionModel> model);
  [[nodiscard]] core::SelectionModel& selection_model() noexcept { return *model_; }

  /// Materializes the current view of every registered client, in peer
  /// order (the selection paths fill a reused buffer the same way).
  [[nodiscard]] std::vector<core::PeerSnapshot> snapshot_group() const;

  /// The selection fast-path index (counters are live even when the
  /// index is inactive; they just never move).
  [[nodiscard]] const core::CandidateIndex& candidate_index() const noexcept { return index_; }
  [[nodiscard]] bool index_active() const noexcept { return index_active_; }

  /// Local (zero-latency) selection; the wire path goes through the
  /// kSelectRequest handler. One pipeline serves every petition: the
  /// index fast path when it applies, otherwise the scan (reputation
  /// overlay, quarantine-lift fallback), then econ admission for
  /// constrained petitions, then the trace.
  [[nodiscard]] std::vector<PeerId> select_peers(const core::SelectionContext& context,
                                                 std::size_t k);
  /// select_peers(context, 1), or an invalid id when nothing is eligible.
  [[nodiscard]] PeerId select_peer(const core::SelectionContext& context) {
    const auto selected = select_peers(context, 1);
    return selected.empty() ? PeerId() : selected.front();
  }

  /// Applies one batch of client observations (also invoked directly
  /// by in-process tests). The reporter-attributed overload is the wire
  /// path: with defenses enabled it feeds the reputation book and
  /// discards counterparty-only history fields a peer reports about
  /// itself (self-praise). The reporterless overload trusts the delta
  /// wholesale (in-process tests, pre-defense callers).
  void apply_stats(const StatsDelta& delta);
  void apply_stats(const StatsDelta& delta, PeerId reporter);

  /// The observed-outcome reputation defense state (see reputation.hpp).
  [[nodiscard]] ReputationBook& reputation() noexcept { return reputation_; }
  [[nodiscard]] const ReputationBook& reputation() const noexcept { return reputation_; }
  [[nodiscard]] bool defenses_enabled() const noexcept { return config_.reputation.enabled; }

  /// The deadline/budget-constrained economic engine (see
  /// econ/economy.hpp); idle unless enabled AND the petition is
  /// economically constrained.
  [[nodiscard]] econ::EconEngine& econ_engine() noexcept { return econ_; }
  [[nodiscard]] const econ::EconEngine& econ_engine() const noexcept { return econ_; }

  /// Starts a fresh statistics session for every known peer.
  void begin_session();

  // ---- replication hooks (used by ReplicaSet) ----
  /// Observer invoked after every delta applied through the normal
  /// report path; a primary's ReplicaSet streams these to standbys.
  /// Pass nullptr to detach.
  using DeltaObserver = std::function<void(const StatsDelta&)>;
  void set_delta_observer(DeltaObserver observer) { delta_observer_ = std::move(observer); }

  /// Applies a delta received from the replication stream: same state
  /// mutation as apply_stats, but without bumping the report counters
  /// and without re-triggering the delta observer (no echo loops).
  void apply_replicated(const StatsDelta& delta);

  /// Everything a standby needs to take over selection: the client
  /// registry, per-peer statistics and the history store. Plain data,
  /// copied wholesale by anti-entropy snapshots.
  struct ReplicatedState {
    std::map<PeerId, ClientRecord> clients;
    std::map<PeerId, stats::PeerStatistics> statistics;
    stats::HistoryStore history;
  };
  [[nodiscard]] ReplicatedState export_state() const;
  void adopt_state(ReplicatedState state);

  // ---- broker federation ----
  /// Federates with another broker: discovery queries that miss the
  /// local rendezvous are forwarded one hop to peer brokers and the
  /// first non-empty answer wins. Registration, statistics, groups and
  /// selection remain per-broker (each broker governs its own edge
  /// peers), matching JXTA-Overlay's multiple-broker deployment.
  void federate_with(NodeId peer_broker);
  [[nodiscard]] const std::vector<NodeId>& peer_brokers() const noexcept {
    return peer_brokers_;
  }
  [[nodiscard]] std::uint64_t federated_queries() const noexcept {
    return federated_queries_;
  }

  [[nodiscard]] std::uint64_t heartbeats_received() const noexcept { return heartbeats_; }
  [[nodiscard]] std::uint64_t reports_applied() const noexcept { return reports_; }
  [[nodiscard]] std::uint64_t selections_served() const noexcept { return selections_served_; }

  /// Registers the broker's counters in `registry` (shared by name
  /// across all brokers of a deployment). Zero-cost when never called.
  /// A non-null `profiler` wall-times every selection decision under
  /// the `selection.rank` span.
  void attach_metrics(obs::MetricRegistry& registry, obs::WallProfiler* profiler = nullptr);

  /// Attaches (or detaches with nullptr) the causal-trace recorder.
  /// Traced selection requests then emit kSelectServe/kSelectRank/
  /// kIndexPull (plus sampled kIndexAudit verdicts), traced stats
  /// deltas emit kStatsApply, and imposed quarantines land as ambient
  /// kQuarantine events that trigger the flight recorder.
  void attach_trace(obs::trace::TraceRecorder* recorder);

 private:
  /// Cached instrument handles; all null while detached.
  struct Metrics {
    obs::Counter* heartbeats = nullptr;
    obs::Counter* stats_reports = nullptr;
    obs::Counter* selections_served = nullptr;
    obs::Counter* federated_queries = nullptr;
    obs::WallProfiler* profiler = nullptr;
    obs::WallProfiler::Site* rank_site = nullptr;
  };

  void on_heartbeat(const transport::Message& m);
  void on_stats_report(const transport::Message& m);
  [[nodiscard]] bool online(const ClientRecord& record, Seconds now) const noexcept {
    return now - record.last_seen <= config_.heartbeat_interval * config_.offline_after_missed;
  }
  /// Refills `out` with every registered client's view: one ordered
  /// walk of the registry with the statistics map walked in lockstep.
  void fill_snapshots(std::vector<core::PeerSnapshot>& out) const;
  /// The scan step of every non-index selection: refills snapshots_,
  /// builds the defended context (reputation penalty and quarantine
  /// excludes, lifted again if they leave nothing eligible) and ranks
  /// into ranking_. Returns the context the ranking was made under.
  const core::SelectionContext& scan(const core::SelectionContext& context, bool traced);
  /// Sampled index-vs-scan equivalence check (traced selections only).
  void audit_index_selection(const core::SelectionContext& context, std::size_t k,
                             const std::vector<PeerId>& picked);
  /// Registers or refreshes one client with the index.
  void upsert_index(PeerId peer, const ClientRecord& record);
  /// Re-registers every client with the index (adopted state).
  void rebuild_index();
  void serve_selection(const transport::Message& m);
  void forward_query(const jxta::AdvertisementQuery& query, std::size_t peer_index,
                     std::shared_ptr<std::vector<jxta::Advertisement>> accumulated,
                     std::function<void(std::vector<jxta::Advertisement>)> done);

  [[nodiscard]] sim::Simulator& sim() const noexcept { return endpoint_.fabric().simulator(); }

  transport::Endpoint& endpoint_;
  NodeId node_;
  OverlayDirectories& directories_;
  BrokerConfig config_;
  Metrics m_;
  jxta::RendezvousIndex rendezvous_;
  jxta::PeerGroupRegistry groups_;
  jxta::DiscoveryService discovery_;
  jxta::GroupMembership membership_;
  stats::HistoryStore history_;
  ReputationBook reputation_;
  econ::EconEngine econ_;
  std::unique_ptr<core::SelectionModel> model_;
  core::CandidateIndex index_;
  bool index_active_ = false;
  std::vector<PeerId> index_out_;
  // Scan scratch reused across petitions.
  std::vector<core::PeerSnapshot> snapshots_;
  std::vector<PeerId> ranking_;
  core::SelectionContext defended_;
  transport::ReliableChannel select_channel_;
  obs::trace::TraceRecorder* trace_ = nullptr;
  std::uint64_t audit_clock_ = 0;
  DeltaObserver delta_observer_;
  std::map<PeerId, ClientRecord> clients_;
  std::map<PeerId, stats::PeerStatistics> statistics_;
  std::vector<NodeId> peer_brokers_;
  std::uint64_t federated_queries_ = 0;
  std::uint64_t heartbeats_ = 0;
  std::uint64_t reports_ = 0;
  std::uint64_t selections_served_ = 0;
};

}  // namespace peerlab::overlay
