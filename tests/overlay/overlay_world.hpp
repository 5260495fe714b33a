#pragma once

// Shared fixture: one broker + N clients on a clean (lossless,
// deterministic-control-delay) network. Individual tests override
// profiles where heterogeneity matters.

#include <memory>
#include <optional>
#include <vector>

#include "peerlab/overlay/broker.hpp"
#include "peerlab/overlay/client.hpp"
#include "peerlab/overlay/primitives.hpp"

namespace peerlab::overlay::testing {

struct WorldOptions {
  int clients = 3;
  double datagram_loss = 0.0;
  double loss_per_megabyte = 0.0;
  Seconds control_delay = 0.02;
  double control_sigma = 0.0;
  std::uint64_t seed = 1;
  /// When positive, client i takes client (i % profile_cycle)'s profile
  /// (hostname aside), so clients repeat a few profiles.
  int profile_cycle = 0;
  ClientConfig client_config{};
  BrokerConfig broker_config{};
};

struct OverlayWorld {
  explicit OverlayWorld(WorldOptions options = {}) : sim(options.seed) {
    net::Topology topo(sim.rng().fork(1));
    net::NodeProfile broker_profile;
    broker_profile.hostname = "broker.nozomi.upc.edu";
    broker_profile.control_delay_mean = 0.01;
    broker_profile.control_delay_sigma = 0.0;
    broker_profile.loss_per_megabyte = 0.0;
    broker_profile.uplink_mbps = 100.0;
    broker_profile.downlink_mbps = 100.0;
    topo.add_node(broker_profile);
    for (int i = 0; i < options.clients; ++i) {
      net::NodeProfile p;
      p.hostname = "sc" + std::to_string(i + 1) + ".example";
      p.control_delay_mean = options.control_delay;
      p.control_delay_sigma = options.control_sigma;
      p.loss_per_megabyte = options.loss_per_megabyte;
      p.uplink_mbps = 8.0;
      p.downlink_mbps = 8.0;
      p.cpu_ghz = 1.0 + 0.1 * (options.profile_cycle > 0 ? i % options.profile_cycle : i);
      p.base_load = 0.0;
      p.load_jitter = 0.0;
      topo.add_node(p);
    }
    net::NetworkConfig cfg;
    cfg.datagram_loss = options.datagram_loss;
    network.emplace(sim, std::move(topo), cfg);
    fabric.emplace(*network);
    broker.emplace(*fabric, NodeId(1), directories, options.broker_config);
    for (int i = 0; i < options.clients; ++i) {
      clients.push_back(std::make_unique<ClientPeer>(*fabric, NodeId(i + 2), NodeId(1),
                                                     directories, options.client_config));
    }
  }

  /// Starts every client and runs the sim until `t` so heartbeats
  /// register everyone at the broker.
  void boot(Seconds t = 1.0) {
    for (auto& c : clients) c->start();
    sim.run_until(t);
  }

  ClientPeer& client(std::size_t i) { return *clients.at(i); }

  sim::Simulator sim;
  std::optional<net::Network> network;
  std::optional<transport::TransportFabric> fabric;
  OverlayDirectories directories;
  std::optional<BrokerPeer> broker;
  std::vector<std::unique_ptr<ClientPeer>> clients;
};

}  // namespace peerlab::overlay::testing
