// Differential selection-equivalence harness: CandidateIndex's
// threshold-walk fast path against the extracted scan-based reference
// rankers (selection_reference.hpp), asserting *bit-identical*
// selected-peer sequences.
//
// Each scenario is a fresh index driven by a seeded interleaving of
// heartbeats (register / re-register, field churn, liveness decay),
// statistics mutations, history records, time advances and petitions;
// after every petition the index's answer must equal the reference
// ranking of a broker-style snapshot mirror, element for element. 200
// scenarios per model × 5 models = 1000 scenarios, seeds derived from
// testing::test_seed() (export PEERLAB_TEST_SEED to replay a failure).
//
// The heartbeat-round suites drive a broker's steady state instead: a
// registry of a few hundred peers where, between petitions, most peers
// re-heartbeat with nothing changed, a few move one key, quiet peers
// fall past the liveness horizon, and the whole registry now and then
// flips between rank-correlated keys (threshold walks converge) and
// tied ones (walks blow their budget and back off).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/selection_reference.hpp"
#include "peerlab/core/blind.hpp"
#include "peerlab/core/candidate_index.hpp"
#include "peerlab/core/data_evaluator.hpp"
#include "peerlab/core/economic.hpp"
#include "peerlab/core/hybrid.hpp"
#include "peerlab/core/user_preference.hpp"
#include "peerlab/stats/history.hpp"
#include "peerlab/stats/peer_statistics.hpp"
#include "support/test_seed.hpp"

namespace peerlab::core {
namespace {

constexpr Seconds kInterval = 30.0;
constexpr double kMissed = 3.5;
/// Short stats window so sliding-window evictions actually happen
/// inside a scenario's few simulated hours.
constexpr Seconds kWindow = 600.0;
constexpr int kScenariosPerModel = 200;

struct FuzzPeer {
  PeerId peer;
  NodeId node;
  double cpu_ghz = 1.0;
  double price = 1.0;
  bool idle = true;
  int queued = 0;
  int transfers = 0;
  Seconds last_seen = 0.0;
};

/// Broker twin: registry + statistics + history + index, with the same
/// feed hooks BrokerPeer installs, minus the wire.
class Harness {
 public:
  Harness()
      : index_(CandidateIndex::Config{kInterval, kMissed, /*max_inline_excludes=*/64}) {
    index_.set_history(&history_);
    history_.set_observer([this](PeerId peer) { index_.mark_dirty(peer); });
  }

  void bind(SelectionModel* model) { index_.bind_model(model); }

  void heartbeat(std::mt19937_64& rng) {
    const PeerId peer = pick_or_new(rng);
    auto [it, inserted] = peers_.try_emplace(peer);
    FuzzPeer& p = it->second;
    if (inserted) {
      p.peer = peer;
      p.node = NodeId(peer.value() + 1);
      p.cpu_ghz = 0.5 + 0.25 * static_cast<double>(rng() % 16);
      p.price = 0.25 + 0.25 * static_cast<double>(rng() % 8);
    }
    p.idle = (rng() % 3) != 0;
    p.queued = static_cast<int>(rng() % 5);
    p.transfers = static_cast<int>(rng() % 3);
    p.last_seen = now_;
    index_.upsert_peer(p.peer, p.node, p.cpu_ghz, p.price, find_stats(peer),
                       p.last_seen, p.idle, p.queued, p.transfers);
  }

  void mutate_stats(std::mt19937_64& rng) {
    if (peers_.empty()) return;
    mutate_stats(pick_existing(rng), rng);
  }

  void mutate_stats(PeerId peer, std::mt19937_64& rng) {
    stats::PeerStatistics& s = stats_for(peer);
    switch (rng() % 7) {
      case 0:
        s.record_message(now_, (rng() % 4) != 0);
        break;
      case 1:
        s.sample_outbox(static_cast<double>(rng() % 20));
        break;
      case 2:
        s.sample_inbox(static_cast<double>(rng() % 20));
        break;
      case 3:
        s.set_pending_transfers(static_cast<int>(rng() % 6));
        break;
      case 4:
        s.record_task_accept((rng() % 3) != 0);
        break;
      case 5:
        s.record_task_execution((rng() % 3) != 0);
        break;
      default:
        s.record_file(static_cast<stats::FileOutcome::Value>(rng() % 3));
        break;
    }
  }

  void mutate_history(std::mt19937_64& rng) {
    if (peers_.empty()) return;
    mutate_history(pick_existing(rng), rng);
  }

  void mutate_history(PeerId peer, std::mt19937_64& rng) {
    switch (rng() % 3) {
      case 0:
        history_.record_response_time(peer, 0.01 + 0.01 * static_cast<double>(rng() % 100));
        break;
      case 1: {
        stats::TaskRecord record;
        record.task = TaskId(rng() % 1000 + 1);
        record.peer = peer;
        record.submitted = now_;
        record.started = now_ + 1.0;
        record.finished = now_ + 1.0 + 0.5 * static_cast<double>(rng() % 40 + 1);
        record.ok = (rng() % 4) != 0;
        record.work = 0.5 * static_cast<double>(rng() % 20 + 1);
        history_.record_task(record);
        break;
      }
      default: {
        stats::TransferRecord record;
        record.transfer = TransferId(rng() % 1000 + 1);
        record.peer = peer;
        // Positive sizes and durations: a zero-rate transfer gives an
        // infinite wire-time estimate, which the scan propagates into
        // NaN normalization — undefined in scan and index alike.
        record.size = static_cast<Bytes>(rng() % 4096 + 64) * 1024;
        record.duration = 0.5 + 0.1 * static_cast<double>(rng() % 100);
        record.petition_time = now_;
        record.ok = (rng() % 5) != 0;
        history_.record_transfer(record);
        break;
      }
    }
  }

  void advance(std::mt19937_64& rng) {
    // Mostly small steps, occasionally a jump past the liveness
    // threshold (105 s) or the stats window so peers fall offline and
    // window events expire mid-scenario.
    switch (rng() % 8) {
      case 0:
        now_ += 120.0 + static_cast<double>(rng() % 120);
        break;
      case 1:
        now_ += kWindow * (0.5 + 0.001 * static_cast<double>(rng() % 1000));
        break;
      default:
        now_ += 0.5 + 0.25 * static_cast<double>(rng() % 60);
        break;
    }
  }

  /// Broker snapshot_group() twin at the current time.
  [[nodiscard]] std::vector<PeerSnapshot> snapshots() {
    std::vector<PeerSnapshot> out;
    out.reserve(peers_.size());
    for (auto& [peer, p] : peers_) {
      PeerSnapshot snap;
      snap.peer = p.peer;
      snap.node = p.node;
      snap.cpu_ghz = p.cpu_ghz;
      snap.price_per_cpu_second = p.price;
      snap.online = (now_ - p.last_seen) <= kInterval * kMissed;
      snap.idle = p.idle;
      snap.queued_tasks = p.queued;
      snap.active_transfers = p.transfers;
      snap.statistics = find_stats(peer);
      snap.history = &history_;
      out.push_back(std::move(snap));
    }
    return out;
  }

  [[nodiscard]] SelectionContext make_context(std::mt19937_64& rng, bool allow_excludes,
                                              std::size_t max_excludes = SIZE_MAX) {
    SelectionContext ctx;
    ctx.now = now_;
    if (rng() % 2 == 0) ctx.work = 0.5 * static_cast<double>(rng() % 40);
    if (rng() % 2 == 0) ctx.payload_size = static_cast<Bytes>(rng() % 8192) * 1024;
    if (allow_excludes && !peers_.empty() && rng() % 3 == 0) {
      const std::size_t n = rng() % (std::min(peers_.size(), max_excludes) + 1);
      for (std::size_t i = 0; i < n; ++i) ctx.exclude.push_back(pick_existing(rng));
    }
    return ctx;
  }

  // ---- heartbeat rounds ----

  /// Registers (or re-registers) peers 1..n with an empty backlog.
  /// Correlated: CPU rises and price falls strictly with a shuffled
  /// latent quality, so every criterion tree shares one rank order.
  /// Tied: every peer advertises the same CPU and price. Either way the
  /// fleet is all idle, all busy (so one idle flip decides whether an
  /// idle-preferring model gates at all) or mixed.
  void set_regime(std::size_t n, bool correlated, std::mt19937_64& rng) {
    std::vector<std::size_t> quality(n);
    for (std::size_t i = 0; i < n; ++i) quality[i] = i;
    std::shuffle(quality.begin(), quality.end(), rng);
    const std::uint64_t idle_mix = rng() % 4;  // 0, 1: all idle; 2: all busy; 3: mixed
    for (std::size_t i = 0; i < n; ++i) {
      const PeerId peer(i + 1);
      FuzzPeer& p = peers_[peer];
      p.peer = peer;
      p.node = NodeId(peer.value() + 1);
      const double q = (static_cast<double>(quality[i]) + 0.5) / static_cast<double>(n);
      p.cpu_ghz = correlated ? 0.5 + 3.5 * q : 2.0;
      p.price = correlated ? 0.3 + 2.0 * (1.0 - q) : 1.0;
      p.idle = idle_mix < 2 || (idle_mix == 3 && rng() % 2 == 0);
      p.queued = 0;
      p.transfers = 0;
      reheartbeat(peer);
    }
  }

  /// A heartbeat that changes nothing but the peer's liveness horizon.
  void reheartbeat(PeerId peer) {
    FuzzPeer& p = peers_.at(peer);
    p.last_seen = now_;
    index_.upsert_peer(p.peer, p.node, p.cpu_ghz, p.price, find_stats(peer), p.last_seen,
                       p.idle, p.queued, p.transfers);
  }

  /// Moves one key of one peer: a history sample (rate, response time
  /// or speed), its ready time through idle, backlog or transfers, or
  /// its evaluator cost through a statistics delta.
  void move_one_key(std::mt19937_64& rng) {
    const PeerId peer = pick_existing(rng);
    FuzzPeer& p = peers_.at(peer);
    switch (rng() % 4) {
      case 0:
        mutate_history(peer, rng);
        return;
      case 1:
        mutate_stats(peer, rng);
        return;
      case 2:
        p.idle = !p.idle;
        break;
      default:
        if (rng() % 2 == 0) {
          p.queued = (p.queued + 1 + static_cast<int>(rng() % 3)) % 4;
        } else {
          p.transfers = (p.transfers + 1) % 3;
        }
        break;
    }
    reheartbeat(peer);
  }

  void tick(Seconds dt) { now_ += dt; }

  CandidateIndex& index() { return index_; }
  [[nodiscard]] Seconds now() const { return now_; }
  [[nodiscard]] bool empty() const { return peers_.empty(); }

 private:
  PeerId pick_or_new(std::mt19937_64& rng) {
    if (!peers_.empty() && rng() % 3 != 0) return pick_existing(rng);
    return PeerId(rng() % 24 + 1);
  }

  PeerId pick_existing(std::mt19937_64& rng) {
    auto it = peers_.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(rng() % peers_.size()));
    return it->first;
  }

  const stats::PeerStatistics* find_stats(PeerId peer) const {
    const auto it = statistics_.find(peer);
    return it == statistics_.end() ? nullptr : &it->second;
  }

  stats::PeerStatistics& stats_for(PeerId peer) {
    auto it = statistics_.find(peer);
    if (it == statistics_.end()) {
      it = statistics_.emplace(peer, stats::PeerStatistics(kWindow)).first;
    }
    index_.note_statistics(peer, &it->second);
    return it->second;
  }

  std::map<PeerId, FuzzPeer> peers_;
  std::map<PeerId, stats::PeerStatistics> statistics_;
  stats::HistoryStore history_{64};
  CandidateIndex index_;
  Seconds now_ = 1.0;
};

std::string describe(std::uint64_t seed, int scenario, int petition,
                     const std::vector<PeerId>& got, const std::vector<PeerId>& want) {
  std::ostringstream os;
  os << "seed=" << seed << " scenario=" << scenario << " petition=" << petition << "\n  index:";
  for (const auto p : got) os << ' ' << p.value();
  os << "\n  scan: ";
  for (const auto p : want) os << ' ' << p.value();
  return os.str();
}

/// Runs kScenariosPerModel fuzz scenarios. `make_model` builds the
/// production model, `make_ref` its frozen reference twin,
/// `allow_excludes` is off for blind (a non-empty exclude list is a
/// documented fallback there, exercised in the fallback suite).
template <typename MakeModel, typename MakeRef>
void run_scenarios(MakeModel make_model, MakeRef make_ref, bool allow_excludes) {
  const std::uint64_t base = testing::test_seed();
  for (int scenario = 0; scenario < kScenariosPerModel; ++scenario) {
    const std::uint64_t seed = base + static_cast<std::uint64_t>(scenario) * 7919;
    std::mt19937_64 rng(seed);
    Harness harness;
    // Identically-seeded config streams: the model factory and its
    // reference twin must draw the same randomized config.
    std::mt19937_64 model_rng(seed ^ 0x5bf0363546174861ull);
    std::mt19937_64 ref_rng(seed ^ 0x5bf0363546174861ull);
    auto model = make_model(model_rng);
    auto ref = make_ref(ref_rng);
    harness.bind(model.get());
    const int ops = 40 + static_cast<int>(rng() % 40);
    int petition = 0;
    for (int op = 0; op < ops; ++op) {
      switch (rng() % 6) {
        case 0:
        case 1:
          harness.heartbeat(rng);
          break;
        case 2:
          harness.mutate_stats(rng);
          break;
        case 3:
          harness.mutate_history(rng);
          break;
        case 4:
          harness.advance(rng);
          break;
        default: {
          const auto ctx = harness.make_context(rng, allow_excludes);
          const std::size_t k = rng() % 5 + 1;
          const auto snaps = harness.snapshots();
          std::vector<PeerId> got;
          ASSERT_TRUE(harness.index().try_select(ctx, harness.now(), k, got))
              << "unexpected fallback, seed=" << seed << " scenario=" << scenario;
          const auto want = peerlab::testing::ref_select_k(*ref, snaps, ctx, k);
          ASSERT_EQ(got, want) << describe(seed, scenario, petition, got, want);
          ++petition;
          break;
        }
      }
    }
    ASSERT_GT(petition, 0) << "scenario produced no petitions, seed=" << seed;
  }
}

constexpr int kHeartbeatScenariosPerModel = 24;

/// Runs kHeartbeatScenariosPerModel heartbeat-round scenarios: each
/// round re-heartbeats about an eighth of the registry unchanged, moves
/// one to three keys, advances the clock (now and then past the
/// liveness horizon), sometimes flips the registry's regime, then
/// checks one to three petitions (with up to eight excludes where the
/// model takes them) against the frozen reference. For the walking
/// models (`walks`), the suite must see both converged walks and dense
/// sweeps, or it would pin only one of the two regimes.
template <typename MakeModel, typename MakeRef>
void run_heartbeat_rounds(MakeModel make_model, MakeRef make_ref, bool allow_excludes,
                          bool walks = false) {
  const std::uint64_t base = testing::test_seed() ^ 0x68656172746265ull;
  std::uint64_t petitions = 0;
  std::uint64_t sweeps = 0;
  for (int scenario = 0; scenario < kHeartbeatScenariosPerModel; ++scenario) {
    const std::uint64_t seed = base + static_cast<std::uint64_t>(scenario) * 104729;
    std::mt19937_64 rng(seed);
    Harness harness;
    std::mt19937_64 model_rng(seed ^ 0x5bf0363546174861ull);
    std::mt19937_64 ref_rng(seed ^ 0x5bf0363546174861ull);
    auto model = make_model(model_rng);
    auto ref = make_ref(ref_rng);
    harness.bind(model.get());
    const std::size_t n = 96 + rng() % 160;
    bool correlated = rng() % 2 == 0;
    harness.set_regime(n, correlated, rng);
    const int rounds = 30 + static_cast<int>(rng() % 20);
    int petition = 0;
    for (int round = 0; round < rounds; ++round) {
      if (rng() % 10 == 0) {
        correlated = !correlated;
        harness.set_regime(n, correlated, rng);
      }
      for (std::size_t i = 0; i < n / 8; ++i) harness.reheartbeat(PeerId(rng() % n + 1));
      const int moves = 1 + static_cast<int>(rng() % 3);
      for (int m = 0; m < moves; ++m) harness.move_one_key(rng);
      harness.tick(rng() % 20 == 0 ? 110.0 : 2.0 + static_cast<double>(rng() % 10));
      const int selects = 1 + static_cast<int>(rng() % 3);
      for (int s = 0; s < selects; ++s) {
        const auto ctx = harness.make_context(rng, allow_excludes, /*max_excludes=*/8);
        const std::size_t k = rng() % 5 + 1;
        const auto snaps = harness.snapshots();
        std::vector<PeerId> got;
        ASSERT_TRUE(harness.index().try_select(ctx, harness.now(), k, got))
            << "unexpected fallback, seed=" << seed << " scenario=" << scenario;
        const auto want = peerlab::testing::ref_select_k(*ref, snaps, ctx, k);
        ASSERT_EQ(got, want) << describe(seed, scenario, petition, got, want)
                             << " (heartbeat rounds, round " << round << ")";
        ++petition;
      }
    }
    petitions += static_cast<std::uint64_t>(petition);
    sweeps += harness.index().dense_sweeps();
  }
  if (walks) {
    EXPECT_GT(sweeps, 0u) << "no tie-degenerate petition";
    EXPECT_LT(sweeps, petitions) << "no converged walk";
  }
}

TEST(SelectionIndexEquivalence, Blind) {
  run_scenarios(
      [](std::mt19937_64&) { return std::make_unique<BlindModel>(); },
      [](std::mt19937_64&) { return std::make_unique<peerlab::testing::ReferenceBlind>(); },
      /*allow_excludes=*/false);
}

TEST(SelectionIndexEquivalence, BlindFirstAvailable) {
  run_scenarios(
      [](std::mt19937_64&) {
        return std::make_unique<BlindModel>(BlindModel::Mode::kFirstAvailable);
      },
      [](std::mt19937_64&) {
        return std::make_unique<peerlab::testing::ReferenceBlind>(
            BlindModel::Mode::kFirstAvailable);
      },
      /*allow_excludes=*/false);
}

TEST(SelectionIndexEquivalence, Economic) {
  run_scenarios(
      [](std::mt19937_64& rng) {
        EconomicConfig cfg;
        cfg.prefer_idle = (rng() % 2) == 0;
        return std::make_unique<EconomicSchedulingModel>(cfg);
      },
      [](std::mt19937_64& rng) {
        EconomicConfig cfg;
        cfg.prefer_idle = (rng() % 2) == 0;
        return std::make_unique<peerlab::testing::ReferenceEconomic>(cfg);
      },
      /*allow_excludes=*/true);
}

TEST(SelectionIndexEquivalence, DataEvaluator) {
  run_scenarios(
      [](std::mt19937_64&) {
        return std::make_unique<DataEvaluatorModel>(DataEvaluatorModel::same_priority());
      },
      [](std::mt19937_64&) {
        return std::make_unique<peerlab::testing::ReferenceEvaluator>(
            peerlab::testing::ReferenceEvaluator::same_priority());
      },
      /*allow_excludes=*/true);
}

TEST(SelectionIndexEquivalence, UserPreference) {
  const auto draw_order = [](std::mt19937_64& rng) {
    std::vector<PeerId> order;
    const std::size_t n = rng() % 16;
    for (std::size_t i = 0; i < n; ++i) order.push_back(PeerId(rng() % 24 + 1));
    return order;
  };
  run_scenarios(
      [&](std::mt19937_64& rng) {
        return std::make_unique<UserPreferenceModel>(draw_order(rng));
      },
      [&](std::mt19937_64& rng) {
        return std::make_unique<peerlab::testing::ReferenceUserPreference>(draw_order(rng));
      },
      /*allow_excludes=*/true);
}

TEST(SelectionIndexEquivalence, Hybrid) {
  run_scenarios(
      [](std::mt19937_64& rng) {
        HybridConfig cfg;
        cfg.alpha = 0.1 * static_cast<double>(rng() % 11);
        return std::make_unique<HybridModel>(cfg);
      },
      [](std::mt19937_64& rng) {
        HybridConfig cfg;
        cfg.alpha = 0.1 * static_cast<double>(rng() % 11);
        return std::make_unique<peerlab::testing::ReferenceHybrid>(cfg);
      },
      /*allow_excludes=*/true);
}

TEST(SelectionIndexHeartbeatRounds, Blind) {
  run_heartbeat_rounds(
      [](std::mt19937_64&) { return std::make_unique<BlindModel>(); },
      [](std::mt19937_64&) { return std::make_unique<peerlab::testing::ReferenceBlind>(); },
      /*allow_excludes=*/false);
}

TEST(SelectionIndexHeartbeatRounds, Economic) {
  run_heartbeat_rounds(
      [](std::mt19937_64& rng) {
        EconomicConfig cfg;
        cfg.prefer_idle = (rng() % 2) == 0;
        return std::make_unique<EconomicSchedulingModel>(cfg);
      },
      [](std::mt19937_64& rng) {
        EconomicConfig cfg;
        cfg.prefer_idle = (rng() % 2) == 0;
        return std::make_unique<peerlab::testing::ReferenceEconomic>(cfg);
      },
      /*allow_excludes=*/true, /*walks=*/true);
}

TEST(SelectionIndexHeartbeatRounds, DataEvaluator) {
  run_heartbeat_rounds(
      [](std::mt19937_64&) {
        return std::make_unique<DataEvaluatorModel>(DataEvaluatorModel::same_priority());
      },
      [](std::mt19937_64&) {
        return std::make_unique<peerlab::testing::ReferenceEvaluator>(
            peerlab::testing::ReferenceEvaluator::same_priority());
      },
      /*allow_excludes=*/true);
}

TEST(SelectionIndexHeartbeatRounds, UserPreference) {
  const auto draw_order = [](std::mt19937_64& rng) {
    std::vector<PeerId> order;
    const std::size_t n = rng() % 64;
    for (std::size_t i = 0; i < n; ++i) order.push_back(PeerId(rng() % 256 + 1));
    return order;
  };
  run_heartbeat_rounds(
      [&](std::mt19937_64& rng) {
        return std::make_unique<UserPreferenceModel>(draw_order(rng));
      },
      [&](std::mt19937_64& rng) {
        return std::make_unique<peerlab::testing::ReferenceUserPreference>(draw_order(rng));
      },
      /*allow_excludes=*/true);
}

TEST(SelectionIndexHeartbeatRounds, Hybrid) {
  run_heartbeat_rounds(
      [](std::mt19937_64& rng) {
        HybridConfig cfg;
        cfg.alpha = 0.1 * static_cast<double>(rng() % 11);
        return std::make_unique<HybridModel>(cfg);
      },
      [](std::mt19937_64& rng) {
        HybridConfig cfg;
        cfg.alpha = 0.1 * static_cast<double>(rng() % 11);
        return std::make_unique<peerlab::testing::ReferenceHybrid>(cfg);
      },
      /*allow_excludes=*/true, /*walks=*/true);
}

}  // namespace
}  // namespace peerlab::core
