// Scale sweep — per-petition selection latency of the candidate-index
// fast path at 10k / 100k / 1M registered clients, for all five
// selection models, against the O(n) snapshot-scan baseline.
//
// Two registry flavors bracket the index's behavior, and a third adds
// the broker's steady-state upkeep:
//
//  - "correlated": a latent per-peer quality q (a random permutation,
//    so distinct and tie-free) drives every attribute strictly
//    monotonically — fast CPUs are also cheap, responsive and well
//    historied. This is the regime the threshold walk is built for:
//    with rank-aligned criterion trees it converges in O(k) pulls and
//    per-petition latency is O((k + pulls) log n) — the sub-linearity
//    shape checks pin that for all five models. (With independent
//    per-attribute noise the walk instead pays for the O(n)-sized
//    fringe of peers near-optimal on one attribute — that regime is
//    the uniform flavor's job.)
//
//  - "uniform": independently drawn attributes with the stats/history
//    subsets bounded, so the frontier trees carry huge tied runs
//    (resp = 0, rate = default) and the threshold bound cannot
//    converge. The walk detects this via its pull budget and finishes
//    with the dense cached-key sweep — O(n), but with a much smaller
//    constant than the scan. Here the checks require the index to beat
//    the scan at every arm; sub-linearity is only required of the
//    models whose fast path never walks (blind/evaluator/preference).
//
//  - "heartbeat": the uniform registry with heartbeat rounds between
//    timed selects. Each round re-upserts 3.6% of the registry (the
//    e2ebench crowd workload's 108 re-keys per petition at 3,000
//    clients) and 2.5% of those re-keys move a key (crowd's measured
//    share): the backlog changes, moving the economic ready time, and
//    a peer with windowed statistics samples its outbox, moving the
//    evaluator cost. Only the selects are timed, each including the
//    flush of the round's dirty slots. That flush is O(n) by
//    construction, so no model is held to sub-linear growth here.
//
// Extra flag: --max-clients N caps the largest arm (CI runs the 10k
// arms only; the full 1M sweep is for the BENCH_5 snapshot).

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "peerlab/core/blind.hpp"
#include "peerlab/core/candidate_index.hpp"
#include "peerlab/core/data_evaluator.hpp"
#include "peerlab/core/economic.hpp"
#include "peerlab/core/hybrid.hpp"
#include "peerlab/core/user_preference.hpp"
#include "peerlab/stats/history.hpp"
#include "peerlab/stats/peer_statistics.hpp"

namespace {

using namespace peerlab;

constexpr Seconds kNow = 1000.0;
/// Uniform flavor: statistics / history are bounded to a fleet subset —
/// broker memory for windowed stats does not scale to 1M peers, and
/// absent records exercise the estimators' fallback arms (and create
/// the tied default-key runs the dense fallback exists for).
constexpr std::size_t kStatsPeers = 4096;
constexpr std::size_t kHistoryPeers = 1024;

struct Population {
  std::vector<PeerId> peers;
  std::vector<double> cpu;
  std::vector<double> price;
  std::vector<bool> idle;
  std::vector<int> queued;
  std::vector<int> transfers;
  std::vector<stats::PeerStatistics> statistics;  // prefix of the fleet
  stats::HistoryStore history{32};
};

Population build_population(std::size_t n, std::uint64_t seed, bool correlated) {
  Population pop;
  std::mt19937_64 rng(seed);
  const std::size_t stats_cap = correlated ? n : kStatsPeers;
  const std::size_t history_cap = correlated ? n : kHistoryPeers;
  pop.peers.reserve(n);
  pop.cpu.reserve(n);
  pop.price.reserve(n);
  pop.idle.reserve(n);
  pop.queued.reserve(n);
  pop.transfers.reserve(n);
  pop.statistics.reserve(std::min(n, stats_cap));
  // Correlated flavor: q is a shuffled permutation scaled into (0, 1) —
  // every peer's q is distinct, so every strictly monotone transform of
  // it is a tie-free key, and all criterion trees share one rank order.
  std::vector<std::uint32_t> quality;
  if (correlated) {
    quality.resize(n);
    for (std::size_t i = 0; i < n; ++i) quality[i] = static_cast<std::uint32_t>(i);
    std::shuffle(quality.begin(), quality.end(), rng);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const PeerId peer(i + 1);
    pop.peers.push_back(peer);
    const double q = correlated
                         ? (static_cast<double>(quality[i]) + 0.5) / static_cast<double>(n)
                         : 0.0;
    if (correlated) {
      pop.cpu.push_back(0.5 + 3.5 * q);
      pop.price.push_back(0.3 + 2.0 * (1.0 - q));
      pop.idle.push_back(true);
      pop.queued.push_back(1);
      pop.transfers.push_back(1);
    } else {
      pop.cpu.push_back(0.5 + 0.001 * static_cast<double>(rng() % 3500));
      pop.price.push_back(0.25 + 0.0005 * static_cast<double>(rng() % 4000));
      pop.idle.push_back((rng() % 3) != 0);
      pop.queued.push_back(static_cast<int>(rng() % 5));
      pop.transfers.push_back(static_cast<int>(rng() % 3));
    }
    if (i < stats_cap) {
      pop.statistics.emplace_back();
      auto& s = pop.statistics.back();
      for (int e = 0; e < 8; ++e) {
        const bool ok = correlated ? (static_cast<double>(rng() % 1000) < 100.0 + 850.0 * q)
                                   : (rng() % 4) != 0;
        s.record_message(kNow - 60.0 * (8 - e), ok);
      }
      s.sample_outbox(correlated ? (1.0 - q) * 20.0 : static_cast<double>(rng() % 20));
      s.record_task_execution((rng() % 3) != 0);
    }
    if (i < history_cap) {
      stats::TaskRecord task;
      task.task = TaskId(i + 1);
      task.peer = peer;
      task.submitted = kNow - 500.0;
      task.started = kNow - 499.0;
      const double exec = correlated ? 1.0 + 4.0 * (1.0 - q)
                                     : 1.0 + 0.1 * static_cast<double>(rng() % 200);
      task.finished = task.started + exec;
      task.ok = true;
      task.work = correlated ? exec * (0.5 + 3.5 * q)
                             : 1.0 + 0.1 * static_cast<double>(rng() % 100);
      pop.history.record_task(task);
      stats::TransferRecord transfer;
      transfer.transfer = TransferId(i + 1);
      transfer.peer = peer;
      if (correlated) {
        transfer.size = static_cast<Bytes>(4) * 1024 * 1024;
        const double rate = 20.0 + 80.0 * q;  // Mbit/s target
        transfer.duration = static_cast<double>(transfer.size) * 8.0 / (rate * 1e6);
      } else {
        transfer.size = static_cast<Bytes>(rng() % 4096 + 256) * 1024;
        transfer.duration = 0.5 + 0.1 * static_cast<double>(rng() % 100);
      }
      transfer.petition_time = kNow - 400.0;
      transfer.ok = true;
      pop.history.record_transfer(transfer);
      pop.history.record_response_time(
          peer, correlated ? 0.01 + 0.2 * (1.0 - q)
                           : 0.01 + 0.001 * static_cast<double>(rng() % 500));
    }
  }
  return pop;
}

/// Registers (or re-registers) peer i from the population's fields.
void upsert(core::CandidateIndex& index, const Population& pop, std::size_t i) {
  index.upsert_peer(pop.peers[i], NodeId(pop.peers[i].value() + 1), pop.cpu[i], pop.price[i],
                    i < pop.statistics.size() ? &pop.statistics[i] : nullptr, kNow, pop.idle[i],
                    pop.queued[i], pop.transfers[i]);
}

/// The heartbeat flavor's upkeep between two timed selects.
class HeartbeatRounds {
 public:
  HeartbeatRounds(Population& pop, core::CandidateIndex& index, std::uint64_t seed)
      : pop_(pop), index_(index), rng_(seed) {}

  void round() {
    const std::size_t n = pop_.peers.size();
    const std::size_t beats = std::max<std::size_t>(1, n * 36 / 1000);
    for (std::size_t b = 0; b < beats; ++b) {
      const std::size_t i = rng_() % n;
      if (rng_() % 1000 < 25) {
        pop_.queued[i] = (pop_.queued[i] + 1) % 5;
        if (i < pop_.statistics.size()) {
          pop_.statistics[i].sample_outbox(static_cast<double>(rng_() % 20));
        }
      }
      upsert(index_, pop_, i);
    }
  }

 private:
  Population& pop_;
  core::CandidateIndex& index_;
  std::mt19937_64 rng_;
};

core::SelectionContext make_context(std::mt19937_64& rng) {
  core::SelectionContext ctx;
  ctx.now = kNow;
  if (rng() % 2 == 0) ctx.work = 1.0 + 0.5 * static_cast<double>(rng() % 20);
  if (rng() % 2 == 0) ctx.payload_size = static_cast<Bytes>(rng() % 8192 + 1) * 1024;
  return ctx;
}

std::vector<core::PeerSnapshot> make_snapshots(const Population& pop) {
  std::vector<core::PeerSnapshot> snaps;
  snaps.reserve(pop.peers.size());
  for (std::size_t i = 0; i < pop.peers.size(); ++i) {
    core::PeerSnapshot snap;
    snap.peer = pop.peers[i];
    snap.node = NodeId(pop.peers[i].value() + 1);
    snap.cpu_ghz = pop.cpu[i];
    snap.price_per_cpu_second = pop.price[i];
    snap.online = true;
    snap.idle = pop.idle[i];
    snap.queued_tasks = pop.queued[i];
    snap.active_transfers = pop.transfers[i];
    snap.statistics = i < pop.statistics.size() ? &pop.statistics[i] : nullptr;
    snap.history = &pop.history;
    snaps.push_back(std::move(snap));
  }
  return snaps;
}

struct Measurement {
  double index_us = 0.0;
  double scan_us = 0.0;
  double pulls_per_petition = 0.0;
  bool fast_path_only = false;
};

double elapsed_us(std::chrono::steady_clock::time_point from,
                  std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// Times `index_reps` index selects (or more, up to a minimum window)
/// and `scan_reps` scans. With `heartbeats`, a heartbeat round runs
/// untimed before each timed select.
Measurement measure_model(core::CandidateIndex& index, core::SelectionModel& model,
                          const std::vector<core::PeerSnapshot>& snaps, std::uint64_t seed,
                          int index_reps, int scan_reps, HeartbeatRounds* heartbeats) {
  Measurement result;
  index.bind_model(&model);
  std::vector<PeerId> out;
  // Warm-up petition absorbs the full re-key flush of the rebind.
  core::SelectionContext warm;
  warm.now = kNow;
  (void)index.try_select(warm, kNow, 4, out);

  // Batch each timed loop until a minimum wall-clock window accumulates:
  // the cheap fast paths finish a whole batch in microseconds, where a
  // single scheduler preemption would otherwise dominate the mean. The
  // expensive arms (dense sweeps, 1M scans) blow past the window in
  // their first batch, so their cost is unchanged.
  constexpr double kMinWindowUs = 20'000.0;
  const auto fallbacks_before = index.scan_fallbacks();
  const auto pulls_before = index.bound_pulls();
  std::mt19937_64 rng(seed);
  long long index_total = 0;
  double index_elapsed = 0.0;
  while (index_total < index_reps || index_elapsed < kMinWindowUs) {
    if (heartbeats != nullptr) {
      heartbeats->round();
      const auto ctx = make_context(rng);
      const auto t0 = std::chrono::steady_clock::now();
      (void)index.try_select(ctx, kNow, 4, out);
      index_elapsed += elapsed_us(t0, std::chrono::steady_clock::now());
      ++index_total;
      continue;
    }
    const auto t0 = std::chrono::steady_clock::now();
    for (int rep = 0; rep < index_reps; ++rep) {
      const auto ctx = make_context(rng);
      (void)index.try_select(ctx, kNow, 4, out);
    }
    const auto t1 = std::chrono::steady_clock::now();
    index_elapsed += elapsed_us(t0, t1);
    index_total += index_reps;
  }
  result.index_us = index_elapsed / static_cast<double>(index_total);
  result.fast_path_only = index.scan_fallbacks() == fallbacks_before;
  result.pulls_per_petition =
      static_cast<double>(index.bound_pulls() - pulls_before) / static_cast<double>(index_total);

  std::mt19937_64 scan_rng(seed);
  long long scan_total = 0;
  double scan_elapsed = 0.0;
  while (scan_total < scan_reps || scan_elapsed < kMinWindowUs) {
    const auto s0 = std::chrono::steady_clock::now();
    for (int rep = 0; rep < scan_reps; ++rep) {
      const auto ctx = make_context(scan_rng);
      (void)model.select_k(snaps, ctx, 4);
    }
    const auto s1 = std::chrono::steady_clock::now();
    scan_elapsed += elapsed_us(s0, s1);
    scan_total += scan_reps;
  }
  result.scan_us = scan_elapsed / scan_total;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace peerlab;
  using namespace peerlab::experiments;
  auto options = bench::parse_options(argc, argv);
  std::size_t max_clients = 1'000'000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--max-clients") == 0 && i + 1 < argc) {
      max_clients = static_cast<std::size_t>(std::atoll(argv[i + 1]));
    }
  }
  bench::BenchMetrics metrics(options, "bench_scale");

  print_figure_header("Scale sweep",
                      "Per-petition selection latency, candidate index vs full scan, "
                      "10k/100k/1M registered clients, correlated + uniform registries, "
                      "uniform with heartbeat rounds");

  std::vector<std::size_t> arms;
  for (const std::size_t n : {std::size_t{10'000}, std::size_t{100'000}, std::size_t{1'000'000}}) {
    if (n <= max_clients) arms.push_back(n);
  }
  if (arms.empty()) arms.push_back(10'000);

  const char* model_names[] = {"blind", "economic", "evaluator", "preference", "hybrid"};
  constexpr int kModels = 5;
  constexpr int kFlavors = 3;  // 0 = correlated, 1 = uniform, 2 = uniform + heartbeats
  const char* flavor_names[] = {"correlated", "uniform", "heartbeat"};
  // per_model[flavor][m] = one Measurement per arm.
  std::vector<std::vector<Measurement>> per_model[kFlavors];
  for (auto& flavor : per_model) flavor.resize(kModels);

  Table table("Per-petition selection latency (k = 4, mean of timed reps)",
              {"clients", "registry", "model", "index us", "scan us", "speedup",
               "pulls/petition"});
  for (const std::size_t n : arms) {
    for (int flavor = 0; flavor < kFlavors; ++flavor) {
      const bool correlated = flavor == 0;
      Population pop = build_population(n, options.base_seed + n + flavor, correlated);
      const auto snaps = make_snapshots(pop);
      core::CandidateIndex index;
      index.attach_metrics(metrics.registry());
      index.set_history(&pop.history);
      for (std::size_t i = 0; i < n; ++i) upsert(index, pop, i);
      HeartbeatRounds heartbeats(pop, index, options.base_seed + n + 29);

      std::vector<PeerId> preference_order;
      std::mt19937_64 pref_rng(options.base_seed + 17);
      for (int i = 0; i < 128; ++i) preference_order.push_back(PeerId(pref_rng() % n + 1));

      std::unique_ptr<core::SelectionModel> models[kModels] = {
          std::make_unique<core::BlindModel>(),
          std::make_unique<core::EconomicSchedulingModel>(),
          std::make_unique<core::DataEvaluatorModel>(core::DataEvaluatorModel::same_priority()),
          std::make_unique<core::UserPreferenceModel>(preference_order),
          std::make_unique<core::HybridModel>(),
      };

      const int index_reps = n >= 1'000'000 ? 50 : (n >= 100'000 ? 150 : 300);
      const int scan_reps = n >= 1'000'000 ? 3 : (n >= 100'000 ? 20 : 100);
      for (int m = 0; m < kModels; ++m) {
        const Measurement res =
            measure_model(index, *models[m], snaps, options.base_seed + m, index_reps, scan_reps,
                          flavor == 2 ? &heartbeats : nullptr);
        per_model[flavor][m].push_back(res);
        table.add_row({std::to_string(n), flavor_names[flavor], model_names[m],
                       cell(res.index_us, 2), cell(res.scan_us, 1),
                       cell(res.scan_us / res.index_us, 1), cell(res.pulls_per_petition, 1)});
      }
    }
  }
  std::printf("%s\n", table.render().c_str());
  table.write_csv("bench_scale.csv");

  bool ok = true;
  for (int flavor = 0; flavor < kFlavors; ++flavor) {
    for (int m = 0; m < kModels; ++m) {
      const auto& rows = per_model[flavor][m];
      const std::string tag = std::string(model_names[m]) + " (" + flavor_names[flavor] + ")";
      for (std::size_t a = 0; a < rows.size(); ++a) {
        ok &= shape_check(tag + " @" + std::to_string(arms[a]) +
                              ": every petition stays on the fast path",
                          rows[a].fast_path_only);
        ok &= shape_check(tag + " @" + std::to_string(arms[a]) + ": index beats the scan",
                          rows[a].index_us < rows[a].scan_us);
      }
      // Sub-linearity: 10×/100× more clients must cost far less than
      // 10×/100× more latency (1/5 of the population growth factor).
      // On the uniform registry economic/hybrid are *designed* to run
      // the O(n) dense sweep, so the growth check applies only where a
      // bounded-pull fast path exists: everywhere on the correlated
      // registry, and to the never-walking models on the uniform one.
      // Heartbeat rounds re-key a fixed share of the registry per
      // select, so that flavor's upkeep is linear for every model.
      const bool linear_by_design = (flavor == 1 && (m == 1 || m == 4)) || flavor == 2;
      if (rows.size() >= 2 && !linear_by_design) {
        const double growth = static_cast<double>(arms.back()) / static_cast<double>(arms[0]);
        const double latency_ratio = rows.back().index_us / rows[0].index_us;
        ok &= shape_check(tag + ": sub-linear latency growth across the sweep",
                          latency_ratio < growth / 5.0);
      }
    }
  }
  return ok ? 0 : 1;
}
