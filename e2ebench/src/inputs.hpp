#pragma once

// Seeded input generator. Everything a workload feeds peerlab — client
// profiles, the petition schedule and its contracts, the churn plan,
// the adversary plan and every simulator seed — is a pure function of
// (workload, seed, scale). The program under test receives only these
// generated inputs; nothing else in a round depends on the seed.

#include <array>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "peerlab/adversary/behavior_plan.hpp"
#include "peerlab/net/fault_plan.hpp"
#include "peerlab/net/network.hpp"
#include "peerlab/net/node.hpp"

namespace e2ebench {

using peerlab::Bytes;
using peerlab::Seconds;

enum class Workload { kPaperSweep, kCrowd, kChurn };

[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);
[[nodiscard]] const char* to_string(Workload workload) noexcept;

/// The paper's three selection models (Figure 6).
enum class Model { kEconomic, kSamePriority, kQuickPeer };

/// One petition: a broker-selected scatter distribution of `size`
/// bytes in `parts` parts, due `due` simulated seconds after the
/// serving phase starts. A non-zero deadline slack makes it a Buyya
/// deadline/budget contract.
struct PetitionSpec {
  Seconds due = 0.0;
  Bytes size = 0;
  int parts = 1;
  Seconds deadline_slack = 0.0;
  double budget = 0.0;
};

/// Simulated seconds of boot before the serving phase starts (as in a
/// planetlab::Deployment's default config).
inline constexpr Seconds kBootTime = 60.0;

struct WorldSpec {
  std::uint64_t sim_seed = 1;
  Model model = Model::kEconomic;
  /// Empty: a planetlab::Deployment (broker + SC1..SC8). Otherwise a
  /// synthetic world assembled from public constructors: the broker on
  /// node 1, the control peer on node 2, client i on node 3 + i.
  std::vector<peerlab::net::NodeProfile> clients;
  /// Synthetic worlds: when each client starts (simulated seconds into
  /// boot), spread over one heartbeat period so heartbeats interleave.
  std::vector<Seconds> start_at;
  /// Quick-peer's frozen impression of SC1..SC8, best first.
  std::array<int, 8> preference{1, 2, 3, 4, 5, 6, 7, 8};
  bool defenses = false;
  bool econ = false;
  /// Synthetic worlds: the network's floor loss per control datagram.
  double datagram_loss = peerlab::net::NetworkConfig{}.datagram_loss;
  /// Synthetic worlds: sizing knobs for churn-hardened transfers and
  /// failover (FileService::distribute with explicit options) instead
  /// of Primitives::distribute_file's defaults.
  bool failover = false;
  /// Synthetic worlds: after boot, the control peer sends every client
  /// one small file and one chat message, spread over this many
  /// simulated seconds, so the broker's history covers the population
  /// before the first petition (0 = no warm-up).
  Seconds warmup = 0.0;
  /// Simulated seconds per timed run_until slice of the serving phase.
  Seconds slice = 10.0;
  /// Outstanding (issued, unresolved) petitions beyond this mean the
  /// world is saturated: the run is not steady and is rejected.
  std::size_t max_outstanding = 0;
  std::vector<PetitionSpec> petitions;
  /// Simulated times measured from t = 0 with boot taking exactly
  /// kBootTime; armed shifted by however long boot really took.
  peerlab::net::FaultPlan faults;
  peerlab::adversary::BehaviorPlan adversaries;
};

struct Inputs {
  std::vector<WorldSpec> worlds;
};

/// `scale` shrinks the workload (1 = full size; the self-test runs
/// 0.01): world, client and petition counts scale, rates do not.
[[nodiscard]] Inputs generate(Workload workload, std::uint64_t seed, double scale);

}  // namespace e2ebench
