// HistoryStore memo property: the store memoizes every tail mean per
// peer and drops a peer's memo on that peer's next record. Random
// interleavings of record_*, mean_*, copy/move construction and
// assignment across a few store replicas must answer bit for bit what
// a memo-free recomputation over the same records answers — a stale
// memo (a record that forgot to invalidate, a copy that kept a memo
// its data no longer backs) shows up as a bitwise mismatch.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <random>
#include <utility>
#include <vector>

#include "peerlab/stats/history.hpp"
#include "support/test_seed.hpp"

namespace peerlab::stats {
namespace {

constexpr std::size_t kCapacity = 12;
constexpr int kPeers = 5;
constexpr std::size_t kDepths[] = {0, 1, 3, 16, 100};

/// Memo-free twin: plain per-peer deques and the tail-mean loop.
struct Model {
  struct Peer {
    std::deque<TaskRecord> tasks;
    std::deque<TransferRecord> transfers;
    std::deque<Seconds> responses;
  };
  std::map<PeerId, Peer> peers;

  template <typename T>
  static void push(std::deque<T>& records, const T& record) {
    records.push_back(record);
    while (records.size() > kCapacity) records.pop_front();
  }

  template <typename T, typename Use, typename Extract>
  static std::optional<double> tail_mean(const std::deque<T>& records, std::size_t last_n,
                                         Use use, Extract extract) {
    double sum = 0.0;
    std::size_t n = 0;
    for (auto it = records.rbegin(); it != records.rend() && n < last_n; ++it) {
      if (!use(*it)) continue;
      sum += extract(*it);
      ++n;
    }
    if (n == 0) return std::nullopt;
    return sum / static_cast<double>(n);
  }

  [[nodiscard]] std::optional<double> mean(int estimator, PeerId peer, std::size_t last_n) const {
    const auto it = peers.find(peer);
    if (it == peers.end()) return std::nullopt;
    const Peer& p = it->second;
    switch (estimator) {
      case 0:
        return tail_mean(
            p.tasks, last_n, [](const TaskRecord& r) { return r.ok; },
            [](const TaskRecord& r) { return r.execution_time(); });
      case 1:
        return tail_mean(
            p.tasks, last_n,
            [](const TaskRecord& r) { return r.ok && r.execution_time() > 0.0 && r.work > 0.0; },
            [](const TaskRecord& r) { return r.work / r.execution_time(); });
      case 2:
        return tail_mean(
            p.transfers, last_n,
            [](const TransferRecord& r) { return r.ok && r.duration > 0.0; },
            [](const TransferRecord& r) { return r.achieved_rate(); });
      default:
        return tail_mean(
            p.responses, last_n, [](Seconds) { return true; }, [](Seconds s) { return s; });
    }
  }
};

std::optional<double> store_mean(const HistoryStore& store, int estimator, PeerId peer,
                                 std::size_t last_n) {
  switch (estimator) {
    case 0: return store.mean_execution_time(peer, last_n);
    case 1: return store.mean_effective_speed(peer, last_n);
    case 2: return store.mean_transfer_rate(peer, last_n);
    default: return store.mean_response_time(peer, last_n);
  }
}

bool bitwise_equal(const std::optional<double>& a, const std::optional<double>& b) {
  if (a.has_value() != b.has_value()) return false;
  return !a || std::bit_cast<std::uint64_t>(*a) == std::bit_cast<std::uint64_t>(*b);
}

struct Replica {
  HistoryStore store{kCapacity};
  Model model;
};

void record_random(std::mt19937_64& rng, Replica& replica, Seconds now) {
  const PeerId peer(rng() % kPeers + 1);
  Model::Peer& twin = replica.model.peers[peer];
  switch (rng() % 3) {
    case 0: {
      TaskRecord r;
      r.task = TaskId(rng() % 100 + 1);
      r.peer = peer;
      r.submitted = now;
      r.started = now + 0.125 * static_cast<double>(rng() % 8);
      r.finished = r.started + 0.1 * static_cast<double>(rng() % 50);
      r.ok = rng() % 4 != 0;
      r.work = 0.3 * static_cast<double>(rng() % 20);
      replica.store.record_task(r);
      Model::push(twin.tasks, r);
      break;
    }
    case 1: {
      TransferRecord r;
      r.transfer = TransferId(rng() % 100 + 1);
      r.peer = peer;
      r.size = static_cast<Bytes>(rng() % 4096 + 1) * 517;
      r.duration = 0.07 * static_cast<double>(rng() % 40);
      r.ok = rng() % 4 != 0;
      replica.store.record_transfer(r);
      Model::push(twin.transfers, r);
      break;
    }
    default: {
      const Seconds rt = 0.003 * static_cast<double>(rng() % 300);
      replica.store.record_response_time(peer, rt);
      Model::push(twin.responses, rt);
      break;
    }
  }
}

void run(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  Replica replicas[3];
  // The observer belongs to replica 0's store instance: copies and
  // moves into or out of it must neither ship nor drop it.
  std::size_t notified = 0;
  std::size_t recorded_on_0 = 0;
  replicas[0].store.set_observer([&notified](PeerId) { ++notified; });
  Seconds now = 0.0;
  for (int step = 0; step < 600; ++step) {
    now += 1.0;
    const std::size_t i = rng() % 3;
    const std::size_t j = (i + 1 + rng() % 2) % 3;
    switch (rng() % 10) {
      case 0:
      case 1:
      case 2:
        record_random(rng, replicas[i], now);
        if (i == 0) ++recorded_on_0;
        break;
      case 3:
      case 4:
      case 5:
      case 6: {
        // Repeated queries hit the memo; interleaved depths re-key it.
        for (int q = 0; q < 4; ++q) {
          const int estimator = static_cast<int>(rng() % 4);
          const PeerId peer(rng() % (kPeers + 1) + 1);  // one peer never recorded
          const std::size_t depth = kDepths[rng() % std::size(kDepths)];
          ASSERT_TRUE(bitwise_equal(store_mean(replicas[i].store, estimator, peer, depth),
                                    replicas[i].model.mean(estimator, peer, depth)))
              << "seed=" << seed << " step=" << step << " estimator=" << estimator
              << " peer=" << peer.value() << " depth=" << depth;
        }
        break;
      }
      case 7:
        replicas[j].store = replicas[i].store;  // copy-assign
        replicas[j].model = replicas[i].model;
        break;
      case 8: {
        HistoryStore moved(std::move(replicas[i].store));  // move-construct
        replicas[j].store = std::move(moved);              // move-assign
        replicas[j].model = replicas[i].model;
        replicas[i].store = HistoryStore(replicas[j].store);  // copy-construct, move-assign
        break;
      }
      default: {
        const HistoryStore copy(replicas[i].store);
        const int estimator = static_cast<int>(rng() % 4);
        const PeerId peer(rng() % kPeers + 1);
        ASSERT_TRUE(bitwise_equal(store_mean(copy, estimator, peer, 16),
                                  replicas[i].model.mean(estimator, peer, 16)))
            << "seed=" << seed << " step=" << step << " (copy)";
        break;
      }
    }
  }
  EXPECT_EQ(notified, recorded_on_0) << "seed=" << seed;
  for (auto& replica : replicas) {
    for (int p = 1; p <= kPeers; ++p) {
      for (int estimator = 0; estimator < 4; ++estimator) {
        ASSERT_TRUE(bitwise_equal(store_mean(replica.store, estimator, PeerId(p), 16),
                                  replica.model.mean(estimator, PeerId(p), 16)))
            << "seed=" << seed << " final";
      }
    }
  }
}

TEST(HistoryMemoProperty, MatchesMemoFreeRecomputationBitwise) {
  const std::uint64_t base = peerlab::testing::test_seed();
  for (std::uint64_t i = 0; i < 64; ++i) {
    run(base + i);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace peerlab::stats
