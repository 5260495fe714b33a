#pragma once

// Deployment builder: stands up the paper's testbed in one call —
// broker on the nozomi cluster node, SC1..SC8 (or the full 25-node
// slice) as SimpleClient peers, all wired through one simulated
// network. Experiments and examples build on this.

#include <array>
#include <memory>
#include <optional>

#include "peerlab/adversary/behavior_plan.hpp"
#include "peerlab/net/fault_plan.hpp"
#include "peerlab/obs/profile.hpp"
#include "peerlab/overlay/broker.hpp"
#include "peerlab/overlay/client.hpp"
#include "peerlab/overlay/primitives.hpp"
#include "peerlab/overlay/replica_set.hpp"
#include "peerlab/planetlab/profiles.hpp"

namespace peerlab::planetlab {

struct DeploymentOptions {
  /// false: broker + SC1..SC8 (the paper's experiment group).
  /// true: broker + all 25 slice nodes (the paper's future-work scale).
  bool full_slice = false;
  /// Number of brokers ("the main node was used as ONE of the
  /// brokers"). Clients are assigned round-robin; brokers federate
  /// their rendezvous.
  int brokers = 1;
  /// Standby brokers replicating the primary's state (requires
  /// brokers == 1). Standbys govern no clients and answer no queries
  /// until an election promotes one; clients then re-home to it.
  int standby_brokers = 0;
  overlay::ReplicaConfig replication{};
  net::NetworkConfig network{};
  overlay::BrokerConfig broker{};
  overlay::ClientConfig client{};
  /// boot() runs the simulation this long so first heartbeats land
  /// (SC7's control plane needs ~30 s).
  Seconds boot_time = 60.0;
};

class Deployment {
 public:
  Deployment(sim::Simulator& sim, DeploymentOptions options = {});

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// Starts every client and advances the simulation until all have
  /// registered at the broker.
  void boot();

  [[nodiscard]] sim::Simulator& simulator() noexcept { return sim_; }
  [[nodiscard]] net::Network& network() noexcept { return *network_; }
  [[nodiscard]] transport::TransportFabric& fabric() noexcept { return *fabric_; }
  [[nodiscard]] overlay::OverlayDirectories& directories() noexcept { return directories_; }
  /// The primary broker (nozomi main node).
  [[nodiscard]] overlay::BrokerPeer& broker() noexcept { return *brokers_.front(); }
  [[nodiscard]] std::size_t broker_count() const noexcept { return brokers_.size(); }
  [[nodiscard]] overlay::BrokerPeer& broker_at(std::size_t i) { return *brokers_.at(i); }

  /// Standby brokers and the replica set coordinating them (null when
  /// standby_brokers == 0).
  [[nodiscard]] std::size_t standby_count() const noexcept { return standbys_.size(); }
  [[nodiscard]] overlay::BrokerPeer& standby_at(std::size_t i) { return *standbys_.at(i); }
  [[nodiscard]] overlay::ReplicaSet* replicas() noexcept { return replicas_.get(); }

  /// The workload driver: a peer on a second nozomi cluster node that
  /// originates transfers/tasks (like the paper's control machine).
  /// It never heartbeats, so it is not a selection candidate.
  [[nodiscard]] overlay::ClientPeer& control() noexcept { return *control_; }

  /// SimpleClient SC`index` (1..8).
  [[nodiscard]] overlay::ClientPeer& sc(int index);
  [[nodiscard]] PeerId sc_peer(int index);
  /// All clients (SCs first, then — in full-slice mode — the rest).
  [[nodiscard]] std::size_t client_count() const noexcept { return clients_.size(); }
  [[nodiscard]] overlay::ClientPeer& client(std::size_t i) { return *clients_.at(i); }

  [[nodiscard]] const DeploymentOptions& options() const noexcept { return options_; }

  /// Nodes hosting clients (fault-plan targets; excludes brokers and
  /// the control peer so a plan never kills the infrastructure it is
  /// measuring — crash those explicitly via network() if desired).
  [[nodiscard]] std::vector<NodeId> client_nodes() const;

  /// Arms a fault plan against this deployment: network faults apply
  /// as scheduled, and crash/restart of a client node also stops /
  /// restarts that client's overlay software (a restarted client
  /// re-registers with its first heartbeat). One plan per deployment;
  /// call before running the faulty window.
  net::FaultInjector& install_faults(net::FaultPlan plan);
  [[nodiscard]] net::FaultInjector* faults() noexcept { return injector_.get(); }

  /// Arms an adversarial-behaviour plan against this deployment's
  /// clients (the byzantine sibling of install_faults): each spec
  /// activates on its target client at its scheduled instant,
  /// actuating through the client's transfer peer and reporting path.
  /// Per-peer decision RNGs fork from the simulator's 0xADBEA7 stream.
  /// One plan per deployment; call before running the hostile window.
  adversary::BehaviorEngine& install_adversaries(adversary::BehaviorPlan plan);
  [[nodiscard]] adversary::BehaviorEngine* adversaries() noexcept { return behaviors_.get(); }

  /// Attaches the whole deployment to `registry`: network + flow
  /// scheduler, every broker and client (the overlay instruments are
  /// shared by name, so e.g. overlay.heartbeats aggregates across all
  /// peers), and the fault injector — including one installed later.
  /// `registry` must outlive the deployment. Zero-cost when never
  /// called; `wall_profiling` additionally stands up a WallProfiler
  /// whose spans (run / flows.relevel / flows.waterfill /
  /// selection.rank) are registered eagerly so the instrument
  /// inventory does not depend on which paths execute.
  void attach_metrics(obs::MetricRegistry& registry, bool wall_profiling = false);

  /// Attaches (or detaches with nullptr) the causal-trace recorder
  /// across the whole deployment: transport fabric (message hops),
  /// network + flow scheduler (flow lifecycle, re-levels), every
  /// broker and client (selection/petition/stats chains), the replica
  /// set (failover elections) and the fault injector (churn ambients)
  /// — including one installed later. `recorder` must outlive the
  /// deployment. Zero-cost when never called: every emit site is one
  /// null test away from the untraced path.
  void attach_tracing(obs::trace::TraceRecorder* recorder);

  /// The deployment-wide span profiler; null unless attach_metrics ran
  /// with wall_profiling. Harnesses wrap their sim run in its "run"
  /// site so subsystem spans get a parent to charge against.
  [[nodiscard]] obs::WallProfiler* profiler() noexcept { return profiler_.get(); }

 private:
  sim::Simulator& sim_;
  DeploymentOptions options_;
  overlay::OverlayDirectories directories_;
  std::optional<net::Network> network_;
  std::optional<transport::TransportFabric> fabric_;
  void on_broker_failover(const overlay::ReplicaSet::FailoverEvent& event);

  std::vector<std::unique_ptr<overlay::BrokerPeer>> brokers_;
  std::vector<std::unique_ptr<overlay::BrokerPeer>> standbys_;
  // Declared after the brokers it references (destroyed first).
  std::unique_ptr<overlay::ReplicaSet> replicas_;
  std::vector<std::unique_ptr<overlay::ClientPeer>> clients_;
  std::unique_ptr<overlay::ClientPeer> control_;
  std::unique_ptr<net::FaultInjector> injector_;
  std::unique_ptr<adversary::BehaviorEngine> behaviors_;
  obs::MetricRegistry* metrics_ = nullptr;  // set by attach_metrics
  obs::trace::TraceRecorder* trace_ = nullptr;  // set by attach_tracing
  std::unique_ptr<obs::WallProfiler> profiler_;  // set when wall_profiling
  std::array<NodeId, 8> sc_nodes_{};
};

}  // namespace peerlab::planetlab
