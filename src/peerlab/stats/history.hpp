#pragma once

// Historical data kept by broker peers for their peergroup — the input
// to the scheduling-based (economic) selection model: "the estimated
// [ready] time is computed by the broker peers based on historical data
// kept for the peergroup", and to the user-preference model's notion of
// which peers were quick in past submissions.

#include <array>
#include <deque>
#include <functional>
#include <optional>
#include <unordered_map>
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

class HistoryStore {
 public:
  /// Bounds the per-peer record deques (oldest evicted first).
  HistoryStore() : HistoryStore(256) {}
  explicit HistoryStore(std::size_t per_peer_capacity);

  // Copies and moves transfer *data only*: the mutation observer is
  // bound to the store instance, never to its contents. A replicated
  // snapshot copy must not ship the primary's observer to a standby
  // (it would dangle once the primary dies), and adopting replicated
  // state must not silently disconnect the adopter's own index hook.
  // Memoized tail means travel with the records they were computed
  // from, so a copied memo is exactly as valid as the original.
  HistoryStore(const HistoryStore& other);
  HistoryStore& operator=(const HistoryStore& other);
  HistoryStore(HistoryStore&& other) noexcept;
  HistoryStore& operator=(HistoryStore&& other) noexcept;

  /// Called after every record_* mutation with the peer touched. One
  /// observer at most (the owning broker's candidate index); pass an
  /// empty function to detach.
  using MutationObserver = std::function<void(PeerId)>;
  void set_observer(MutationObserver observer) { observer_ = std::move(observer); }

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
                                                           std::size_t last_n = 16) const;
  /// Mean effective compute speed (work / execution time) of the
  /// peer's successful tasks.
  [[nodiscard]] std::optional<GigaHertz> mean_effective_speed(PeerId peer,
                                                              std::size_t last_n = 16) const;
  /// Mean achieved transfer rate towards the peer.
  [[nodiscard]] std::optional<MbitPerSec> mean_transfer_rate(PeerId peer,
                                                             std::size_t last_n = 16) const;
  /// Mean petition/response latency of the peer.
  [[nodiscard]] std::optional<Seconds> mean_response_time(PeerId peer,
                                                          std::size_t last_n = 16) const;
  /// Fraction of the peer's recorded tasks that succeeded (1 when no
  /// history — benefit of the doubt, matching RatioCounter).
  [[nodiscard]] double task_success_rate(PeerId peer) const;

  [[nodiscard]] std::vector<TaskRecord> tasks_for(PeerId peer) const;
  [[nodiscard]] std::vector<TransferRecord> transfers_for(PeerId peer) const;
  [[nodiscard]] std::size_t task_count(PeerId peer) const;

  /// Every peer that appears anywhere in the history.
  [[nodiscard]] std::vector<PeerId> known_peers() const;

 private:
  enum Estimator : std::uint8_t { kExecution, kSpeed, kRate, kResponse, kEstimators };

  /// One memoized tail mean; `valid` is cleared by the peer's records.
  struct Memo {
    bool valid = false;
    std::size_t last_n = 0;
    std::optional<double> value;
  };

  /// One record kind's FIFO, allocated on its first record: even an
  /// empty std::deque allocates, and a peer may only ever be seen in
  /// one or two of the three kinds.
  template <typename T>
  using Records = std::optional<std::deque<T>>;

  /// Everything kept about one peer.
  struct PeerHistory {
    Records<TaskRecord> tasks;
    Records<TransferRecord> transfers;
    Records<Seconds> responses;
    mutable std::array<Memo, kEstimators> memo{};
  };

  /// Appends `value`, evicting the oldest records past the capacity.
  template <typename T>
  void append(Records<T>& records, const T& value) {
    if (!records) records.emplace();
    records->push_back(value);
    while (records->size() > capacity_) records->pop_front();
  }

  /// The peer's record, created on first touch, with its memo cleared.
  PeerHistory& touch(PeerId peer);

  /// The memoized estimator `e` of `peer`; `compute` runs on a miss.
  template <typename Compute>
  std::optional<double> memoized(PeerId peer, Estimator e, std::size_t last_n,
                                 Compute compute) const;

  void notify(PeerId peer) const {
    if (observer_) observer_(peer);
  }

  [[nodiscard]] const PeerHistory* find(PeerId peer) const;

  std::size_t capacity_;
  std::unordered_map<PeerId, PeerHistory> peers_;
  MutationObserver observer_;
};

}  // namespace peerlab::stats
