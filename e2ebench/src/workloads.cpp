#include "workloads.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <string_view>

#include "ledger.hpp"
#include "peerlab/core/data_evaluator.hpp"
#include "peerlab/core/economic.hpp"
#include "peerlab/core/user_preference.hpp"
#include "peerlab/planetlab/deployment.hpp"
#include "peerlab/planetlab/profiles.hpp"

namespace e2ebench {

namespace {

namespace core = peerlab::core;
namespace net = peerlab::net;
namespace obs = peerlab::obs;
namespace overlay = peerlab::overlay;
namespace planetlab = peerlab::planetlab;
namespace transport = peerlab::transport;
using peerlab::NodeId;
using peerlab::PeerId;
using DistributionResult = overlay::FileService::DistributionResult;

/// Traced rounds probe the broker every this many serving slices.
constexpr std::size_t kProbeEvery = 10;
/// Simulated seconds past the last due petition (or the warm-up) after
/// which anything still unresolved counts as a violation.
constexpr Seconds kDrainLimit = 3600.0;

/// Transfer knobs for failover workloads: a petition gives up after
/// about a minute and a part gets a bounded retransmission budget, so
/// a dead peer triggers failover instead of a quarter hour of retries.
transport::FileTransferConfig failover_transfer() {
  transport::FileTransferConfig cfg;
  cfg.petition_retry.initial_timeout = 15.0;
  cfg.petition_retry.backoff = 1.5;
  cfg.petition_retry.max_attempts = 4;
  cfg.confirm_timeout = 30.0;
  cfg.max_confirm_queries = 6;
  cfg.max_part_attempts = 6;
  return cfg;
}

overlay::DistributionOptions failover_options() {
  overlay::DistributionOptions options;
  options.max_failovers_per_share = 6;
  options.backoff_initial = 10.0;
  options.backoff_factor = 2.0;
  options.backoff_cap = 120.0;
  return options;
}

std::unique_ptr<core::SelectionModel> make_model(Model model, overlay::BrokerPeer& broker,
                                                 const std::vector<PeerId>& preference) {
  switch (model) {
    case Model::kEconomic: return std::make_unique<core::EconomicSchedulingModel>();
    case Model::kSamePriority:
      return std::make_unique<core::DataEvaluatorModel>(
          core::DataEvaluatorModel::same_priority());
    case Model::kQuickPeer:
      return std::make_unique<core::UserPreferenceModel>(
          core::UserPreferenceModel::quick_peer(broker.history(), preference));
  }
  return nullptr;
}

/// A world under test: a paper Deployment, or a synthetic population
/// assembled from public constructors (Topology, Network,
/// TransportFabric, BrokerPeer, ClientPeer) with its churn and
/// adversary plans armed the way Deployment arms them.
class World {
 public:
  explicit World(const WorldSpec& spec) : spec_(spec), sim_(spec.sim_seed) {
    if (spec.clients.empty()) {
      deployment_ = std::make_unique<planetlab::Deployment>(sim_);
      return;
    }
    net::Topology topo(sim_.rng().fork(0x9EE20FABull));
    const NodeId broker_node = topo.add_node(planetlab::broker_profile());
    net::NodeProfile control_profile = planetlab::broker_profile();
    control_profile.hostname = "nozomi-c1.lsi.upc.edu";
    control_profile.site = "UPC Barcelona (cluster compute node)";
    const NodeId control_node = topo.add_node(control_profile);
    for (const auto& profile : spec.clients) topo.add_node(profile);
    net::NetworkConfig network;
    network.datagram_loss = spec.datagram_loss;
    network_.emplace(sim_, std::move(topo), network);
    fabric_.emplace(*network_);

    overlay::BrokerConfig config;
    config.reputation.enabled = spec.defenses;
    config.econ.enabled = spec.econ;
    broker_ = std::make_unique<overlay::BrokerPeer>(*fabric_, broker_node, directories_, config);
    control_ = std::make_unique<overlay::ClientPeer>(*fabric_, control_node, broker_node,
                                                     directories_);
    for (std::size_t i = 0; i < spec.clients.size(); ++i) {
      clients_.push_back(std::make_unique<overlay::ClientPeer>(
          *fabric_, client_node(i), broker_node, directories_));
    }
  }

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// Attaches `registry` everywhere with wall profiling on. The
  /// registry must outlive the world.
  void attach(obs::MetricRegistry& registry) {
    registry_ = &registry;
    profiler_ = std::make_unique<obs::WallProfiler>(registry);
    network().attach_metrics(registry, /*wall_profiling=*/true, profiler_.get());
    broker().attach_metrics(registry, profiler_.get());
    control().attach_metrics(registry);
    for (std::size_t i = 0; i < client_count(); ++i) client(i).attach_metrics(registry);
  }

  /// Starts every client and runs until all have registered at the
  /// broker. False when some client never registered.
  bool boot() {
    const obs::WallProfiler::Span span(profiler(), "bench.boot");
    if (deployment_ != nullptr) {
      deployment_->boot();
    } else {
      for (std::size_t i = 0; i < clients_.size(); ++i) {
        overlay::ClientPeer* client = clients_[i].get();
        sim_.schedule_at(spec_.start_at.at(i), [client] { client->start(); });
      }
      const Seconds deadline = 20.0 * kBootTime;
      sim_.run_until(kBootTime);
      while (registered() < clients_.size() && sim_.now() < deadline) {
        sim_.run_until(sim_.now() + kBootTime);
      }
    }
    return registered() == client_count();
  }

  /// Binds the world's selection model and arms its fault and
  /// adversary plans, shifted so they start relative to the end of
  /// boot (boot can overrun kBootTime when a heartbeat is lost).
  void arm() {
    std::vector<PeerId> preference;
    if (deployment_ != nullptr) {
      for (const int sc : spec_.preference) preference.push_back(deployment_->sc_peer(sc));
    }
    broker().set_selection_model(make_model(spec_.model, broker(), preference));

    if (!spec_.faults.empty()) {
      net::FaultPlan plan;
      const Seconds shift = sim_.now() - kBootTime;
      for (net::FaultEvent event : spec_.faults.events()) {
        event.at += shift;
        plan.add(event);
      }
      // A node fault also stops / restarts that client's overlay
      // software; a restarted client re-registers with its first
      // heartbeat (as Deployment::install_faults wires it).
      net::FaultInjector::Hooks hooks;
      hooks.on_crash = [this](NodeId node) {
        if (auto* client = client_on(node)) client->stop();
      };
      hooks.on_restart = [this](NodeId node) {
        if (auto* client = client_on(node)) client->start();
      };
      faults_ = std::make_unique<net::FaultInjector>(*network_, std::move(plan),
                                                     std::move(hooks));
      if (registry_ != nullptr) faults_->attach_metrics(*registry_);
    }
    if (!spec_.adversaries.empty()) {
      adversaries_ = std::make_unique<peerlab::adversary::BehaviorEngine>(
          sim_, spec_.adversaries, sim_.rng().fork(0xADBEA7ull));
      if (registry_ != nullptr) adversaries_->attach_metrics(*registry_);
      for (auto& client : clients_) adversaries_->bind(*client);
    }
  }

  [[nodiscard]] peerlab::sim::Simulator& sim() noexcept { return sim_; }
  [[nodiscard]] overlay::BrokerPeer& broker() noexcept {
    return deployment_ != nullptr ? deployment_->broker() : *broker_;
  }
  [[nodiscard]] overlay::ClientPeer& control() noexcept {
    return deployment_ != nullptr ? deployment_->control() : *control_;
  }
  [[nodiscard]] net::Network& network() noexcept {
    return deployment_ != nullptr ? deployment_->network() : *network_;
  }
  [[nodiscard]] obs::WallProfiler* profiler() noexcept { return profiler_.get(); }
  [[nodiscard]] std::size_t client_count() const noexcept {
    return deployment_ != nullptr ? deployment_->client_count() : clients_.size();
  }
  [[nodiscard]] overlay::ClientPeer& client(std::size_t i) {
    return deployment_ != nullptr ? deployment_->client(i) : *clients_.at(i);
  }

 private:
  static NodeId client_node(std::size_t i) { return NodeId(3 + i); }

  overlay::ClientPeer* client_on(NodeId node) {
    const auto i = node.value() - 3;
    return node.value() >= 3 && i < clients_.size() ? clients_[i].get() : nullptr;
  }

  [[nodiscard]] std::size_t registered() { return broker().registered_clients().size(); }

  const WorldSpec& spec_;
  peerlab::sim::Simulator sim_;
  // Declared in dependency order (destroyed in reverse): the profiler
  // outlives everything that holds its sites, a Deployment included.
  std::unique_ptr<obs::WallProfiler> profiler_;
  std::unique_ptr<planetlab::Deployment> deployment_;
  // Synthetic worlds.
  overlay::OverlayDirectories directories_;
  std::optional<net::Network> network_;
  std::optional<transport::TransportFabric> fabric_;
  std::unique_ptr<overlay::BrokerPeer> broker_;
  std::unique_ptr<overlay::ClientPeer> control_;
  std::vector<std::unique_ptr<overlay::ClientPeer>> clients_;
  std::unique_ptr<net::FaultInjector> faults_;
  std::unique_ptr<peerlab::adversary::BehaviorEngine> adversaries_;
  obs::MetricRegistry* registry_ = nullptr;
};

/// Issues a world's petitions open-loop at their due times through the
/// control peer's public API and records how each one resolves.
class Petitions {
 public:
  struct Outcome {
    int resolutions = 0;
    bool complete = false;
    Seconds latency = 0.0;
    std::uint64_t digest = 0;
    Bytes completed_bytes = 0;
  };

  Petitions(World& world, const WorldSpec& spec)
      : world_(world), spec_(spec), primitives_(world.control()),
        outcomes_(spec.petitions.size()) {}

  void schedule(Seconds start) {
    for (std::size_t i = 0; i < spec_.petitions.size(); ++i) {
      world_.sim().schedule_at(start + spec_.petitions[i].due, [this, i, start] {
        issue(i, start + spec_.petitions[i].due);
      });
    }
  }

  [[nodiscard]] bool drained() const noexcept { return resolved_ == outcomes_.size(); }
  [[nodiscard]] std::size_t outstanding_peak() const noexcept { return outstanding_peak_; }
  [[nodiscard]] const std::vector<Outcome>& outcomes() const noexcept { return outcomes_; }

 private:
  void issue(std::size_t i, Seconds due) {
    const obs::WallProfiler::Span span(world_.profiler(), "bench.issue");
    ++issued_;
    outstanding_peak_ = std::max(outstanding_peak_, issued_ - resolved_);
    const PetitionSpec& p = spec_.petitions[i];
    auto done = [this, i, due](const DistributionResult& result) { resolve(i, due, result); };
    if (!spec_.failover) {
      primitives_.distribute_file(p.size, p.parts, std::move(done));
      return;
    }
    overlay::ClientPeer& control = world_.control();
    core::SelectionContext context;
    context.now = world_.sim().now();
    context.purpose = core::SelectionContext::Purpose::kFileTransfer;
    context.payload_size = p.size;
    if (p.deadline_slack > 0.0) {
      context.deadline = context.now + p.deadline_slack;
      context.budget = p.budget;
    }
    control.request_selection(
        context, static_cast<std::size_t>(p.parts),
        [&control, &p, done = std::move(done)](std::vector<PeerId> selected) mutable {
          std::erase(selected, control.id());
          if (selected.empty()) {
            done(DistributionResult{});
            return;
          }
          control.files().distribute(p.size, p.parts, selected, failover_transfer(),
                                     std::move(done), failover_options());
        });
  }

  void resolve(std::size_t i, Seconds due, const DistributionResult& result) {
    Outcome& outcome = outcomes_[i];
    if (++outcome.resolutions > 1) return;
    ++resolved_;
    outcome.complete = result.complete;
    if (result.complete) outcome.latency = result.finished - due;
    Digest digest;
    digest.add(static_cast<std::uint64_t>(i));
    digest.add(static_cast<std::uint64_t>(result.complete));
    digest.add(result.finished);
    digest.add(static_cast<std::uint64_t>(result.failovers));
    for (const auto& share : result.shares) {
      digest.add(share.peer.value());
      digest.add(share.original.value());
      digest.add(static_cast<std::uint64_t>(share.parts));
      digest.add(static_cast<std::uint64_t>(share.bytes));
      digest.add(static_cast<std::uint64_t>(share.complete));
      if (share.complete) outcome.completed_bytes += share.bytes;
    }
    outcome.digest = digest.value();
  }

  World& world_;
  const WorldSpec& spec_;
  overlay::Primitives primitives_;
  std::vector<Outcome> outcomes_;
  std::size_t issued_ = 0;
  std::size_t resolved_ = 0;
  std::size_t outstanding_peak_ = 0;
};

/// Warm-up: the control peer sends every client one small file and one
/// chat message, evenly spread over spec.warmup, then the world runs
/// until each warm-up transfer has finished, so the broker holds a
/// response-time and rate record for the whole population before the
/// first petition. False if the transfers did not finish in time.
bool warm_up(World& world, const WorldSpec& spec) {
  if (spec.warmup <= 0.0 || world.client_count() == 0) return true;
  const obs::WallProfiler::Span span(world.profiler(), "bench.warmup");
  auto& sim = world.sim();
  overlay::ClientPeer& control = world.control();
  // Shared with the callbacks, which may outlive this call when the
  // world is torn down with warm-up transfers still in flight.
  auto pending = std::make_shared<std::size_t>(world.client_count());
  const Seconds gap = spec.warmup / static_cast<double>(world.client_count());
  for (std::size_t i = 0; i < world.client_count(); ++i) {
    const PeerId peer = world.client(i).id();
    sim.schedule(gap * static_cast<double>(i), [&control, pending, peer] {
      transport::FileTransferConfig config = failover_transfer();
      config.file_size = 256 * peerlab::kKilobyte;
      config.parts = 1;
      control.files().send_file(peer, config,
                                [pending](const transport::TransferResult&) { --*pending; });
      control.messaging().send(peer, 0, [](bool, Seconds) {});
    });
  }
  const Seconds limit = sim.now() + spec.warmup + kDrainLimit;
  while (*pending > 0 && sim.now() < limit) sim.run_until(sim.now() + spec.slice);
  return *pending == 0;
}

/// Runs the serving phase in fixed simulated slices until every
/// petition resolved (or, when abandoning, until half the schedule).
void serve(World& world, const WorldSpec& spec, Petitions& petitions,
           const RoundOptions& options, RoundResult& result) {
  auto& sim = world.sim();
  const Seconds start = sim.now();
  const Seconds last_due = spec.petitions.empty() ? 0.0 : spec.petitions.back().due;
  const Seconds limit = start + last_due + kDrainLimit;
  const Seconds abandon_at = start + 0.5 * last_due;
  petitions.schedule(start);
  const std::uint64_t events_before = sim.executed_events();
  for (std::size_t slice = 0; !petitions.drained(); ++slice) {
    if (options.abandon && sim.now() >= abandon_at) break;
    if (sim.now() >= limit) {
      result.violations.push_back("petitions still unresolved " +
                                  std::to_string(kDrainLimit) +
                                  " simulated s after the last was due");
      break;
    }
    const auto begun = Clock::now();
    {
      const obs::WallProfiler::Span span(world.profiler(), "bench.slice");
      sim.run_until(sim.now() + spec.slice);
    }
    result.slice_s.push_back(seconds_since(begun));
    result.pending_peak = std::max(result.pending_peak, sim.pending_events());
    if (options.traced && slice % kProbeEvery == 0) {
      const overlay::BrokerPeer& broker = world.broker();
      {
        const obs::WallProfiler::Span span(world.profiler(), "bench.probe.snapshot");
        const auto probed = Clock::now();
        { const auto snapshot = broker.snapshot_group(); }
        result.snapshot_s.push_back(seconds_since(probed));
      }
      const obs::WallProfiler::Span span(world.profiler(), "bench.probe.rendezvous");
      result.rendezvous_peak =
          std::max(result.rendezvous_peak, world.broker().rendezvous().size());
    }
  }
  result.events += sim.executed_events() - events_before;
}

void read_registry(const obs::MetricRegistry& registry, RoundResult& result) {
  for (const auto& entry : registry.entries()) {
    switch (entry.kind) {
      case obs::InstrumentKind::kCounter:
        result.registry[entry.name] = static_cast<double>(entry.counter->value());
        break;
      case obs::InstrumentKind::kGauge:
        result.registry[entry.name] = entry.gauge->value();
        break;
      case obs::InstrumentKind::kHistogram:
        result.registry[entry.name + ".p50"] = entry.histogram->quantile(0.5);
        result.registry[entry.name + ".p99"] = entry.histogram->quantile(0.99);
        result.registry[entry.name + ".count"] =
            static_cast<double>(entry.histogram->count());
        break;
    }
  }
}

/// The program counters the conservation checks read (zero while
/// detached).
struct Tally {
  double confirmed = 0.0;
  double failed = 0.0;
  double requested = 0.0;
  double served = 0.0;
  double reissued = 0.0;
  double lost = 0.0;
};

Tally tally(const obs::MetricRegistry* registry) {
  Tally t;
  if (registry == nullptr) return t;
  const auto counter = [registry](std::string_view name) {
    const auto* c = registry->find_counter(name);
    return c == nullptr ? 0.0 : static_cast<double>(c->value());
  };
  t.confirmed = counter("transport.bytes.confirmed");
  t.failed = counter("transport.transfers.failed") + counter("transport.transfers.cancelled");
  t.requested = counter("overlay.selections_requested");
  t.served = counter("overlay.selections_served");
  t.reissued = counter("overlay.selection_reissues") + counter("overlay.selection_failures");
  t.lost = counter("net.datagrams.lost") + counter("net.datagrams.blocked");
  return t;
}

/// Conservation checks over one world's serving phase; only a traced
/// round can make them, since they read the program's own counters.
void check_serving(const Tally& before, const Tally& after, Bytes completed_bytes,
                   Bytes largest_file, const std::string& where,
                   std::vector<std::string>& violations) {
  // Bytes: every confirmed part belongs to a completed share, except
  // the parts a failed transfer confirmed before it died (less than
  // one file each).
  const double confirmed = after.confirmed - before.confirmed;
  const double failed = after.failed - before.failed;
  const double completed = static_cast<double>(completed_bytes);
  if (confirmed < completed ||
      confirmed - completed > failed * static_cast<double>(largest_file)) {
    violations.push_back(where + "transport.bytes.confirmed " + std::to_string(confirmed) +
                         " does not match completed shares " + std::to_string(completed) +
                         " (+ at most " + std::to_string(failed) + " failed transfers)");
  }
  // Selections: requested = served + reissues (+ failures), except that
  // a request or response lost on the wire is retransmitted and served
  // again.
  const double requested = after.requested - before.requested;
  const double served = after.served - before.served;
  const double reissued = after.reissued - before.reissued;
  const double lost = after.lost - before.lost;
  if (served + reissued < requested || served > requested + lost) {
    violations.push_back(where + "selections: requested " + std::to_string(requested) +
                         ", served " + std::to_string(served) + ", reissued/failed " +
                         std::to_string(reissued) + ", datagrams lost " +
                         std::to_string(lost));
  }
}

}  // namespace

RoundResult run_round(const Inputs& inputs, const RoundOptions& options) {
  // Declared before any world: the worlds' instrument handles point
  // into it, so it must outlive them (destroying it first leaves
  // FlowScheduler::cancel bumping a freed counter during teardown).
  std::optional<obs::MetricRegistry> registry;
  if (options.traced) registry.emplace();

  RoundResult result;
  Digest digest;
  const auto round_begun = Clock::now();
  for (std::size_t w = 0; w < inputs.worlds.size(); ++w) {
    const WorldSpec& spec = inputs.worlds[w];
    const std::string where = "world " + std::to_string(w) + ": ";
    auto t = Clock::now();
    auto world = std::make_unique<World>(spec);
    const double build_s = seconds_since(t);
    if (registry) world->attach(*registry);

    t = Clock::now();
    const bool registered = world->boot();
    const double boot_s = seconds_since(t);
    result.build_s += build_s;
    result.boot_s += boot_s;
    result.world_setup_s.push_back(build_s + boot_s);
    if (!registered) result.violations.push_back(where + "not every client registered");
    if (options.setup_only) continue;
    world->arm();

    t = Clock::now();
    if (!warm_up(*world, spec)) result.violations.push_back(where + "warm-up did not drain");
    result.warmup_s += seconds_since(t);

    const Tally before = tally(registry ? &*registry : nullptr);
    auto petitions = std::make_unique<Petitions>(*world, spec);
    t = Clock::now();
    serve(*world, spec, *petitions, options, result);
    result.serve_s += seconds_since(t);
    if (petitions->outstanding_peak() > spec.max_outstanding) {
      result.violations.push_back(where + "saturated: " +
                                  std::to_string(petitions->outstanding_peak()) +
                                  " petitions outstanding (bound " +
                                  std::to_string(spec.max_outstanding) + ")");
    }

    Bytes completed_bytes = 0;
    Bytes largest_file = 0;
    for (std::size_t i = 0; i < petitions->outcomes().size(); ++i) {
      const auto& outcome = petitions->outcomes()[i];
      largest_file = std::max(largest_file, spec.petitions[i].size);
      if (options.abandon) continue;
      ++result.attempted;
      if (outcome.resolutions != 1) {
        result.violations.push_back(where + "petition " + std::to_string(i) + " resolved " +
                                    std::to_string(outcome.resolutions) + " times");
      }
      digest.add(outcome.digest);
      completed_bytes += outcome.completed_bytes;
      if (!outcome.complete) continue;
      ++result.completed;
      result.latency_s.push_back(outcome.latency);
    }
    if (registry && !options.abandon) {
      check_serving(before, tally(&*registry), completed_bytes, largest_file, where,
                    result.violations);
    }

    t = Clock::now();
    petitions.reset();
    world.reset();
    result.teardown_s += seconds_since(t);
  }
  result.total_s = seconds_since(round_begun);
  result.digest = digest.value();
  if (registry) read_registry(*registry, result);
  return result;
}

}  // namespace e2ebench
