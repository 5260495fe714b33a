#include "inputs.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "peerlab/overlay/client.hpp"
#include "peerlab/overlay/directories.hpp"
#include "peerlab/planetlab/catalog.hpp"
#include "peerlab/planetlab/profiles.hpp"

namespace e2ebench {

namespace {

using peerlab::kMegabyte;
using peerlab::NodeId;
using peerlab::PeerId;
using peerlab::sim::Rng;

// Workload sizes at scale 1. Every round serves >= 1,000 petitions so
// the p99 has >= 10 samples beyond it; paper-sweep and churn serve
// more, spread over independent worlds, so their simulated-time
// quantiles vary little from seed to seed.
constexpr int kPaperWorlds = 1008;
constexpr int kPaperPetitionsPerWorld = 4;
constexpr int kCrowdClients = 3000;
constexpr int kCrowdWorlds = 4;
constexpr int kCrowdPetitionsPerWorld = 500;
constexpr int kChurnWorlds = 8;
constexpr int kChurnClients = 1000;
constexpr int kChurnPetitionsPerWorld = 250;
// Synthetic worlds warm the broker's history for this long first.
constexpr Seconds kWarmup = 240.0;

// Independent generator streams, so adding a draw to one input never
// perturbs another.
enum Stream : std::uint64_t {
  kWorldSeeds = 1,
  kProfiles,
  kSchedule,
  kContracts,
  kChurnPlan,
  kAdversaries,
  kPreference,
  kStarts,
};

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

int scaled(int full, double scale, int floor) {
  return std::max(floor, static_cast<int>(std::lround(full * scale)));
}

/// A synthetic client population drawn from the calibrated Table-1
/// profiles: each client copies one of the 25 slice nodes (SC1..SC8
/// with their Figure 2-5 calibration, the rest with the slice profile)
/// under a suffixed hostname, since Topology rejects duplicates. The
/// draw is stratified — a shuffled deck holding every slice node
/// equally often — so seeds vary who sits where, not the population's
/// make-up, and figures compare across seeds.
std::vector<peerlab::net::NodeProfile> population(Rng rng, int clients) {
  namespace planetlab = peerlab::planetlab;
  const auto& table = planetlab::table1();
  std::vector<int> deck;
  for (int i = 0; i < clients; ++i) deck.push_back(i % static_cast<int>(table.size()));
  rng.shuffle(deck);
  std::vector<peerlab::net::NodeProfile> out;
  out.reserve(static_cast<std::size_t>(clients));
  for (int i = 0; i < clients; ++i) {
    const int ordinal = deck[static_cast<std::size_t>(i)];
    const auto& entry = table[static_cast<std::size_t>(ordinal)];
    auto profile = entry.simple_client_index > 0
                       ? planetlab::simple_client_profile(entry.simple_client_index)
                       : planetlab::slice_node_profile(entry, ordinal);
    profile.hostname += "-" + std::to_string(i);
    out.push_back(std::move(profile));
  }
  return out;
}

/// Client start times spread uniformly over one heartbeat period, so
/// the broker's view refreshes continuously rather than in waves.
std::vector<Seconds> staggered_starts(Rng rng, std::size_t clients) {
  const Seconds period = peerlab::overlay::ClientConfig{}.heartbeat_interval;
  std::vector<Seconds> out;
  for (std::size_t i = 0; i < clients; ++i) out.push_back(rng.uniform(0.0, period));
  return out;
}

/// Open-loop Poisson arrivals at `rate` per simulated second.
std::vector<PetitionSpec> poisson_schedule(Rng rng, int petitions, double rate, Bytes size,
                                           int parts) {
  std::vector<PetitionSpec> out;
  Seconds at = 0.0;
  for (int i = 0; i < petitions; ++i) {
    at += rng.exponential(1.0 / rate);
    out.push_back({at, size, parts});
  }
  return out;
}

Inputs paper_sweep(std::uint64_t seed, double scale) {
  const Rng root(seed);
  Rng seeds = root.fork(kWorldSeeds);
  Rng schedule = root.fork(kSchedule);
  Rng preference = root.fork(kPreference);
  Inputs in;
  const int worlds = scaled(kPaperWorlds, scale, 3);
  for (int w = 0; w < worlds; ++w) {
    WorldSpec world;
    world.sim_seed = splitmix(static_cast<std::uint64_t>(seeds.uniform_int(1, INT64_MAX)));
    world.model = static_cast<Model>(w % 3);
    std::vector<int> order{1, 2, 3, 4, 5, 6, 7, 8};
    preference.shuffle(order);
    std::copy(order.begin(), order.end(), world.preference.begin());
    world.slice = 30.0;
    world.max_outstanding = 3;
    // A few 100 MB scatters per world, 300 s apart (below saturation:
    // even SC7's 27 s control plane drains a share well inside that).
    for (int k = 0; k < kPaperPetitionsPerWorld; ++k) {
      PetitionSpec p;
      p.due = 300.0 * k + schedule.uniform(0.0, 60.0);
      p.size = 100 * kMegabyte;
      p.parts = schedule.bernoulli(0.5) ? 4 : 16;
      world.petitions.push_back(p);
    }
    in.worlds.push_back(std::move(world));
  }
  return in;
}

Inputs crowd(std::uint64_t seed, double scale) {
  Inputs in;
  const int worlds = scaled(kCrowdWorlds, scale, 1);
  for (int w = 0; w < worlds; ++w) {
    const Rng root = Rng(seed).fork(static_cast<std::uint64_t>(w));
    WorldSpec world;
    world.sim_seed = splitmix(seed ^ (0xC20DDull + static_cast<std::uint64_t>(w)));
    world.model = Model::kEconomic;
    world.clients = population(root.fork(kProfiles), scaled(kCrowdClients, scale, 16));
    world.start_at = staggered_starts(root.fork(kStarts), world.clients.size());
    world.warmup = kWarmup;
    // Lossless control plane: otherwise ~1% of petitions wait out the
    // 45 s retransmission timer, and the p99 flips between that step
    // and the queueing tail from seed to seed.
    world.datagram_loss = 0.0;
    // About one 5 MB, 4-part distribution per simulated second.
    world.petitions = poisson_schedule(root.fork(kSchedule),
                                       scaled(kCrowdPetitionsPerWorld, scale, 10), 1.0,
                                       5 * kMegabyte, 4);
    // A few petitions are in flight at steady state.
    world.max_outstanding = 64;
    in.worlds.push_back(std::move(world));
  }
  return in;
}

Inputs churn(std::uint64_t seed, double scale) {
  Inputs in;
  const int worlds = scaled(kChurnWorlds, scale, 1);
  for (int w = 0; w < worlds; ++w) {
    const Rng root = Rng(seed).fork(static_cast<std::uint64_t>(w));
    WorldSpec world;
    world.sim_seed = splitmix(seed ^ (0xC4A54ull + static_cast<std::uint64_t>(w)));
    world.model = Model::kEconomic;
    world.defenses = true;
    world.econ = true;
    world.failover = true;
    const int clients = scaled(kChurnClients, scale, 24);
    world.clients = population(root.fork(kProfiles), clients);
    world.start_at = staggered_starts(root.fork(kStarts), world.clients.size());
    world.warmup = kWarmup;
    world.petitions =
        poisson_schedule(root.fork(kSchedule), scaled(kChurnPetitionsPerWorld, scale, 10), 0.5,
                         8 * kMegabyte, 16);
    // Most petitions carry Buyya deadline/budget contracts: the econ
    // engine's assignment hold spreads them, where the bare economic
    // model herds onto the peers that looked idle at the last
    // heartbeat (and, under churn, onto dead ones not yet aged out).
    Rng contracts = root.fork(kContracts);
    for (auto& p : world.petitions) {
      if (!contracts.bernoulli(0.7)) continue;
      p.deadline_slack = contracts.uniform(120.0, 600.0);
      p.budget = contracts.uniform(5.0, 120.0);
    }
    // A crash of a peer the broker still lists sends every petition
    // that picks it through a ~130 s failover: bursts of tens.
    world.max_outstanding = 256;

    std::vector<NodeId> nodes;
    std::vector<PeerId> peers;
    for (int i = 0; i < clients; ++i) {
      nodes.emplace_back(static_cast<std::uint64_t>(3 + i));
      peers.push_back(peerlab::overlay::peer_of(nodes.back()));
    }
    Rng plan = root.fork(kChurnPlan);
    const Seconds start = kBootTime + 30.0;
    // Churn covers warm-up (about kWarmup plus a petition timeout) and
    // the whole schedule.
    const Seconds horizon =
        kBootTime + world.warmup + 120.0 + world.petitions.back().due;
    world.faults = peerlab::net::FaultPlan::random_churn(plan, nodes, /*mttf=*/7200.0,
                                                         /*mttr=*/300.0, start, horizon);
    Rng adversaries = root.fork(kAdversaries);
    world.adversaries = peerlab::adversary::BehaviorPlan::random_adversaries(
        adversaries, peers, 0.02, peerlab::adversary::BehaviorKind::kFreeRider);
    world.adversaries.merge(peerlab::adversary::BehaviorPlan::random_adversaries(
        adversaries, peers, 0.03, peerlab::adversary::BehaviorKind::kStatsLiar));
    in.worlds.push_back(std::move(world));
  }
  return in;
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "paper-sweep") return Workload::kPaperSweep;
  if (name == "crowd") return Workload::kCrowd;
  if (name == "churn") return Workload::kChurn;
  return std::nullopt;
}

const char* to_string(Workload workload) noexcept {
  switch (workload) {
    case Workload::kPaperSweep: return "paper-sweep";
    case Workload::kCrowd: return "crowd";
    case Workload::kChurn: return "churn";
  }
  return "?";
}

Inputs generate(Workload workload, std::uint64_t seed, double scale) {
  switch (workload) {
    case Workload::kPaperSweep: return paper_sweep(seed, scale);
    case Workload::kCrowd: return crowd(seed, scale);
    case Workload::kChurn: return churn(seed, scale);
  }
  return {};
}

}  // namespace e2ebench
