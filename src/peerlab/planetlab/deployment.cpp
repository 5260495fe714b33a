#include "peerlab/planetlab/deployment.hpp"

#include "peerlab/common/check.hpp"

namespace peerlab::planetlab {

Deployment::Deployment(sim::Simulator& sim, DeploymentOptions options)
    : sim_(sim), options_(options) {
  // Liveness detection only makes sense when the broker's notion of
  // the heartbeat period matches what clients actually do.
  options_.broker.heartbeat_interval = options_.client.heartbeat_interval;

  PEERLAB_CHECK_MSG(options_.brokers >= 1, "deployment needs at least one broker");
  net::Topology topo(sim.rng().fork(0x9EE20FABull));
  std::vector<NodeId> broker_nodes;
  broker_nodes.push_back(topo.add_node(broker_profile()));
  for (int b = 1; b < options_.brokers; ++b) {
    net::NodeProfile extra = broker_profile();
    extra.hostname = "nozomi-b" + std::to_string(b + 1) + ".lsi.upc.edu";
    extra.site = "UPC Barcelona (cluster node " + std::to_string(b + 1) + ")";
    broker_nodes.push_back(topo.add_node(extra));
  }

  PEERLAB_CHECK_MSG(options_.standby_brokers >= 0, "standby count must be non-negative");
  PEERLAB_CHECK_MSG(options_.standby_brokers == 0 || options_.brokers == 1,
                    "standby replication assumes a single governing broker");
  std::vector<NodeId> standby_nodes;
  for (int s = 0; s < options_.standby_brokers; ++s) {
    net::NodeProfile standby = broker_profile();
    standby.hostname = "nozomi-s" + std::to_string(s + 1) + ".lsi.upc.edu";
    standby.site = "UPC Barcelona (standby cluster node " + std::to_string(s + 1) + ")";
    standby_nodes.push_back(topo.add_node(standby));
  }

  net::NodeProfile control_profile = broker_profile();
  control_profile.hostname = "nozomi-c1.lsi.upc.edu";
  control_profile.site = "UPC Barcelona (cluster compute node)";
  const NodeId control_node = topo.add_node(control_profile);

  std::vector<NodeId> client_nodes;
  if (options_.full_slice) {
    int ordinal = 0;
    for (const auto& entry : table1()) {
      net::NodeProfile profile = entry.simple_client_index > 0
                                     ? simple_client_profile(entry.simple_client_index)
                                     : slice_node_profile(entry, ordinal);
      const NodeId node = topo.add_node(profile);
      client_nodes.push_back(node);
      if (entry.simple_client_index > 0) {
        sc_nodes_[static_cast<std::size_t>(entry.simple_client_index - 1)] = node;
      }
      ++ordinal;
    }
  } else {
    for (int i = 1; i <= 8; ++i) {
      const NodeId node = topo.add_node(simple_client_profile(i));
      client_nodes.push_back(node);
      sc_nodes_[static_cast<std::size_t>(i - 1)] = node;
    }
  }

  network_.emplace(sim_, std::move(topo), options_.network);
  fabric_.emplace(*network_);
  for (const NodeId node : broker_nodes) {
    brokers_.push_back(std::make_unique<overlay::BrokerPeer>(*fabric_, node, directories_,
                                                             options_.broker));
  }
  for (auto& a : brokers_) {
    for (auto& b : brokers_) {
      if (a->node() != b->node()) a->federate_with(b->node());
    }
  }
  // Standbys run full broker software but govern no clients and do not
  // federate; until an election they only consume the primary's
  // replication stream.
  for (const NodeId node : standby_nodes) {
    standbys_.push_back(std::make_unique<overlay::BrokerPeer>(*fabric_, node, directories_,
                                                              options_.broker));
  }
  if (!standbys_.empty()) {
    replicas_ = std::make_unique<overlay::ReplicaSet>(*fabric_, options_.replication);
    replicas_->add_primary(*brokers_.front());
    for (auto& standby : standbys_) replicas_->add_standby(*standby);
    replicas_->set_failover_callback(
        [this](const overlay::ReplicaSet::FailoverEvent& event) {
          on_broker_failover(event);
        });
    replicas_->start();
  }
  control_ = std::make_unique<overlay::ClientPeer>(*fabric_, control_node, broker_nodes[0],
                                                   directories_, options_.client);
  std::size_t assign = 0;
  for (const NodeId node : client_nodes) {
    const NodeId home = broker_nodes[assign++ % broker_nodes.size()];
    clients_.push_back(std::make_unique<overlay::ClientPeer>(*fabric_, node, home,
                                                             directories_, options_.client));
  }
}

void Deployment::boot() {
  for (auto& client : clients_) client->start();
  const auto registered = [this] {
    std::size_t n = 0;
    for (const auto& broker : brokers_) n += broker->registered_clients().size();
    return n;
  };
  // Heartbeats can be lost on lossy deployments; keep the clock moving
  // until every client has registered (bounded patience).
  const Seconds deadline = sim_.now() + 20.0 * options_.boot_time;
  sim_.run_until(sim_.now() + options_.boot_time);
  while (registered() < clients_.size() && sim_.now() < deadline) {
    sim_.run_until(sim_.now() + options_.boot_time);
  }
  PEERLAB_CHECK_MSG(registered() == clients_.size(),
                    "not every client registered during boot");
}

overlay::ClientPeer& Deployment::sc(int index) {
  PEERLAB_CHECK_MSG(index >= 1 && index <= 8, "SimpleClient index must be 1..8");
  const NodeId node = sc_nodes_[static_cast<std::size_t>(index - 1)];
  for (auto& client : clients_) {
    if (client->node() == node) return *client;
  }
  PEERLAB_CHECK_MSG(false, "SimpleClient not deployed");
  throw InvariantError("unreachable");
}

PeerId Deployment::sc_peer(int index) { return sc(index).id(); }

std::vector<NodeId> Deployment::client_nodes() const {
  std::vector<NodeId> nodes;
  nodes.reserve(clients_.size());
  for (const auto& client : clients_) nodes.push_back(client->node());
  return nodes;
}

net::FaultInjector& Deployment::install_faults(net::FaultPlan plan) {
  PEERLAB_CHECK_MSG(injector_ == nullptr, "fault plan already installed");
  auto client_by_node = [this](NodeId node) -> overlay::ClientPeer* {
    for (auto& client : clients_) {
      if (client->node() == node) return client.get();
    }
    return nullptr;
  };
  net::FaultInjector::Hooks hooks;
  // Co-simulate the software side of a node fault: a crash silences the
  // client (heartbeats stop, so the broker ages it out), a restart
  // brings it back — its first heartbeat re-registers it. Replica-set
  // members get the equivalent treatment: a crashed primary stops
  // streaming (standbys detect the silence and elect), a restarted
  // member rejoins as a standby and snapshot-heals.
  hooks.on_crash = [this, client_by_node](NodeId node) {
    if (auto* client = client_by_node(node)) client->stop();
    if (replicas_ != nullptr && replicas_->is_member(node)) replicas_->notify_crash(node);
  };
  hooks.on_restart = [this, client_by_node](NodeId node) {
    if (auto* client = client_by_node(node)) client->start();
    if (replicas_ != nullptr && replicas_->is_member(node)) {
      replicas_->notify_restart(node);
    }
  };
  injector_ = std::make_unique<net::FaultInjector>(*network_, std::move(plan),
                                                   std::move(hooks));
  if (metrics_ != nullptr) injector_->attach_metrics(*metrics_);
  if (trace_ != nullptr) injector_->set_trace(trace_);
  return *injector_;
}

adversary::BehaviorEngine& Deployment::install_adversaries(adversary::BehaviorPlan plan) {
  PEERLAB_CHECK_MSG(behaviors_ == nullptr, "behavior plan already installed");
  behaviors_ = std::make_unique<adversary::BehaviorEngine>(
      sim_, std::move(plan), sim_.rng().fork(0xADBEA7ull));
  if (metrics_ != nullptr) behaviors_->attach_metrics(*metrics_);
  for (auto& client : clients_) behaviors_->bind(*client);
  return *behaviors_;
}

void Deployment::attach_metrics(obs::MetricRegistry& registry, bool wall_profiling) {
  metrics_ = &registry;
  if (wall_profiling) {
    profiler_ = std::make_unique<obs::WallProfiler>(registry);
    // Pre-register the harness-level site so the instrument inventory
    // is fixed at attach time (docs/METRICS.md is diffed against it).
    profiler_->site("run");
  }
  network_->attach_metrics(registry, false, profiler_.get());
  for (auto& broker : brokers_) broker->attach_metrics(registry, profiler_.get());
  for (auto& standby : standbys_) standby->attach_metrics(registry, profiler_.get());
  if (replicas_ != nullptr) replicas_->attach_metrics(registry);
  control_->attach_metrics(registry);
  for (auto& client : clients_) client->attach_metrics(registry);
  if (injector_ != nullptr) injector_->attach_metrics(registry);
  if (behaviors_ != nullptr) behaviors_->attach_metrics(registry);
}

void Deployment::attach_tracing(obs::trace::TraceRecorder* recorder) {
  trace_ = recorder;
  fabric_->set_trace(recorder);
  network_->set_trace(recorder);
  for (auto& broker : brokers_) broker->attach_trace(recorder);
  for (auto& standby : standbys_) standby->attach_trace(recorder);
  if (replicas_ != nullptr) replicas_->set_trace(recorder);
  control_->attach_trace(recorder);
  for (auto& client : clients_) client->attach_trace(recorder);
  if (injector_ != nullptr) injector_->set_trace(recorder);
}

void Deployment::on_broker_failover(const overlay::ReplicaSet::FailoverEvent& event) {
  // The crashed primary's whole flock re-homes to the elected standby
  // (the control peer included — its in-flight selection petitions are
  // re-issued there by ClientPeer::rehome).
  if (control_->broker_node() == event.old_primary) {
    control_->rehome(event.new_primary);
  }
  for (auto& client : clients_) {
    if (client->broker_node() == event.old_primary) client->rehome(event.new_primary);
  }
}

}  // namespace peerlab::planetlab
