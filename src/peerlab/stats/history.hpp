#pragma once

// Historical data kept by broker peers for their peergroup — the input
// to the scheduling-based (economic) selection model: "the estimated
// [ready] time is computed by the broker peers based on historical data
// kept for the peergroup", and to the user-preference model's notion of
// which peers were quick in past submissions.

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "peerlab/common/ids.hpp"
#include "peerlab/common/units.hpp"

namespace peerlab::stats {

struct TaskRecord {
  TaskId task;
  PeerId peer;
  Seconds submitted = 0.0;
  Seconds started = 0.0;
  Seconds finished = 0.0;
  bool ok = false;
  GigaCycles work = 0.0;

  [[nodiscard]] Seconds execution_time() const noexcept { return finished - started; }
  [[nodiscard]] Seconds turnaround() const noexcept { return finished - submitted; }
};

struct TransferRecord {
  TransferId transfer;
  PeerId peer;
  Bytes size = 0;
  Seconds duration = 0.0;
  Seconds petition_time = 0.0;
  bool ok = false;

  [[nodiscard]] MbitPerSec achieved_rate() const noexcept;
};

namespace detail {

/// One peer's row of the history table, packed into one cache line: the
/// four tail-mean memos (arrays indexed by estimator), then the handles
/// of the peer's record FIFOs. A selection scan reads one line per
/// candidate however many means its model asks for.
struct alignas(64) HistoryRow {
  enum Memo : std::uint8_t { kStale, kEmpty, kValue };
  /// Memoized tail means; a record of the peer stales all four.
  mutable double value[4] = {};
  /// The depth each memo was taken at.
  mutable std::uint32_t last_n[4] = {};
  mutable Memo memo[4] = {kStale, kStale, kStale, kStale};
  /// Pool slot + 1 of the peer's task, transfer and response FIFOs; 0
  /// until that kind's first record.
  std::uint32_t fifo[3] = {};
};
static_assert(sizeof(HistoryRow) == 64, "a history row must occupy exactly one cache line");

}  // namespace detail

class HistoryStore {
 public:
  /// Bounds the per-peer record FIFOs (oldest evicted first).
  HistoryStore() : HistoryStore(256) {}
  explicit HistoryStore(std::size_t per_peer_capacity);

  /// Called after every record_* mutation with the peer touched. One
  /// observer at most (the owning broker's candidate index); pass an
  /// empty function to detach.
  using MutationObserver = std::function<void(PeerId)>;
  void set_observer(MutationObserver observer) { observer_.notify = std::move(observer); }

  /// Rejects peer ids at or past kDensePeerIds with a check.
  void record_task(const TaskRecord& record);
  void record_transfer(const TransferRecord& record);
  /// Control-plane responsiveness observation (petition/offer RTTs).
  void record_response_time(PeerId peer, Seconds elapsed);

  // ---- estimators ----
  // Each tail mean is memoized per peer (keyed by `last_n`) and
  // invalidated by that peer's next record_* call: selection scans ask
  // for the same means several times per candidate and petition, and
  // a memo hit returns the very double the loop computed.

  /// Mean execution time of the peer's last `last_n` successful tasks;
  /// nullopt when the peer has no successful history.
  [[nodiscard]] std::optional<Seconds> mean_execution_time(PeerId peer,
                                                           std::size_t last_n = 16) const {
    return memoized(peer, kExecution, last_n);
  }
  /// Mean effective compute speed (work / execution time) of the
  /// peer's successful tasks.
  [[nodiscard]] std::optional<GigaHertz> mean_effective_speed(PeerId peer,
                                                              std::size_t last_n = 16) const {
    return memoized(peer, kSpeed, last_n);
  }
  /// Mean achieved transfer rate towards the peer.
  [[nodiscard]] std::optional<MbitPerSec> mean_transfer_rate(PeerId peer,
                                                             std::size_t last_n = 16) const {
    return memoized(peer, kRate, last_n);
  }
  /// Mean petition/response latency of the peer.
  [[nodiscard]] std::optional<Seconds> mean_response_time(PeerId peer,
                                                          std::size_t last_n = 16) const {
    return memoized(peer, kResponse, last_n);
  }
  /// Fraction of the peer's recorded tasks that succeeded (1 when no
  /// history — benefit of the doubt, matching RatioCounter).
  [[nodiscard]] double task_success_rate(PeerId peer) const;

  [[nodiscard]] std::vector<TaskRecord> tasks_for(PeerId peer) const;
  [[nodiscard]] std::vector<TransferRecord> transfers_for(PeerId peer) const;
  [[nodiscard]] std::size_t task_count(PeerId peer) const;

  /// Every peer that appears anywhere in the history, in id order.
  [[nodiscard]] std::vector<PeerId> known_peers() const;

 private:
  using Row = detail::HistoryRow;
  enum Estimator : std::uint8_t { kExecution, kSpeed, kRate, kResponse };
  enum Kind : std::uint8_t { kTasks, kTransfers, kResponses };

  /// Every FIFO of one record kind, addressed by a row's handle. A deque
  /// of deques, so that neither growing the row table nor adding a FIFO
  /// moves one: moving a std::deque allocates, and a peer's first record
  /// must cost its row and its FIFO, nothing more.
  template <typename T>
  using Pool = std::deque<std::deque<T>>;

  /// The mutation observer, bound to the store instance and never to
  /// its contents: copies and moves transfer data only. A replicated
  /// snapshot copy must not ship the primary's observer to a standby
  /// (it would dangle once the primary dies), and adopting replicated
  /// state must not silently disconnect the adopter's own index hook.
  struct Observer {
    MutationObserver notify;
    Observer() = default;
    Observer(const Observer&) noexcept {}
    Observer& operator=(const Observer&) noexcept { return *this; }
  };

  /// The memo hit path; a stale memo, or one taken at another depth, is
  /// refreshed out of line. Memoized means travel with the records they
  /// were computed from, so a copied memo is exactly as valid as the
  /// original.
  [[nodiscard]] std::optional<double> memoized(PeerId peer, Estimator e,
                                               std::size_t last_n) const {
    const Row* row = dense_find(rows_, peer);
    if (row == nullptr) return std::nullopt;  // never recorded
    // Depths past 32 bits all read every record: no FIFO holds that many.
    const auto depth = static_cast<std::uint32_t>(std::min<std::size_t>(last_n, UINT32_MAX));
    if (row->memo[e] == Row::kStale || row->last_n[e] != depth) refresh(*row, e, depth);
    if (row->memo[e] == Row::kEmpty) return std::nullopt;
    return row->value[e];
  }
  void refresh(const Row& row, Estimator e, std::uint32_t depth) const;

  /// The peer's row, grown into the table on first touch, memos staled.
  Row& touch(PeerId peer);

  /// The FIFO behind `handle`; nullptr before the kind's first record.
  template <typename T>
  static const std::deque<T>* fifo(const Pool<T>& pool, std::uint32_t handle) {
    return handle == 0 ? nullptr : &pool[handle - 1];
  }
  /// The peer's FIFO of `kind`; nullptr before its first record.
  template <typename T>
  const std::deque<T>* fifo(const Pool<T>& pool, PeerId peer, Kind kind) const {
    const Row* row = dense_find(rows_, peer);
    return row != nullptr ? fifo(pool, row->fifo[kind]) : nullptr;
  }
  /// Appends `value` to the FIFO behind `handle` (made on first use),
  /// evicting the oldest records past the capacity.
  template <typename T>
  void append(Pool<T>& pool, std::uint32_t& handle, const T& value);

  void notify(PeerId peer) const {
    if (observer_.notify) observer_.notify(peer);
  }

  std::size_t capacity_;
  std::vector<Row> rows_;  // index = peer id
  Pool<TaskRecord> tasks_;
  Pool<TransferRecord> transfers_;
  Pool<Seconds> responses_;
  Observer observer_;
};

}  // namespace peerlab::stats
