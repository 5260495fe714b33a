#include "peerlab/stats/history.hpp"

#include <algorithm>
#include <utility>

#include "peerlab/common/check.hpp"

namespace peerlab::stats {

MbitPerSec TransferRecord::achieved_rate() const noexcept {
  return rate_for(size, duration);
}

HistoryStore::HistoryStore(std::size_t per_peer_capacity) : capacity_(per_peer_capacity) {
  PEERLAB_CHECK_MSG(capacity_ > 0, "history needs capacity");
}

HistoryStore::HistoryStore(const HistoryStore& other)
    : capacity_(other.capacity_), peers_(other.peers_) {}

HistoryStore& HistoryStore::operator=(const HistoryStore& other) {
  capacity_ = other.capacity_;
  peers_ = other.peers_;
  return *this;  // observer_ untouched: bound to this instance
}

HistoryStore::HistoryStore(HistoryStore&& other) noexcept
    : capacity_(other.capacity_), peers_(std::move(other.peers_)) {}

HistoryStore& HistoryStore::operator=(HistoryStore&& other) noexcept {
  capacity_ = other.capacity_;
  peers_ = std::move(other.peers_);
  return *this;  // observer_ untouched: bound to this instance
}

HistoryStore::PeerHistory& HistoryStore::touch(PeerId peer) {
  PeerHistory& history = peers_[peer];
  history.memo = {};
  return history;
}

const HistoryStore::PeerHistory* HistoryStore::find(PeerId peer) const {
  const auto it = peers_.find(peer);
  return it == peers_.end() ? nullptr : &it->second;
}

void HistoryStore::record_task(const TaskRecord& record) {
  PEERLAB_CHECK_MSG(record.peer.valid(), "task record needs a peer");
  PEERLAB_CHECK_MSG(record.finished >= record.started && record.started >= record.submitted,
                    "task record times out of order");
  append(touch(record.peer).tasks, record);
  notify(record.peer);
}

void HistoryStore::record_transfer(const TransferRecord& record) {
  PEERLAB_CHECK_MSG(record.peer.valid(), "transfer record needs a peer");
  append(touch(record.peer).transfers, record);
  notify(record.peer);
}

void HistoryStore::record_response_time(PeerId peer, Seconds elapsed) {
  PEERLAB_CHECK_MSG(peer.valid() && elapsed >= 0.0, "bad response-time record");
  append(touch(peer).responses, elapsed);
  notify(peer);
}

namespace {
/// Averages f over the last `last_n` entries of `records` that satisfy
/// `use`; nullopt when none qualify (or the kind was never recorded).
template <typename T, typename Use, typename Extract>
std::optional<double> tail_mean(const std::optional<std::deque<T>>& records, std::size_t last_n,
                                Use use, Extract extract) {
  if (!records) return std::nullopt;
  double sum = 0.0;
  std::size_t n = 0;
  for (auto it = records->rbegin(); it != records->rend() && n < last_n; ++it) {
    if (!use(*it)) continue;
    sum += extract(*it);
    ++n;
  }
  if (n == 0) return std::nullopt;
  return sum / static_cast<double>(n);
}
}  // namespace

template <typename Compute>
std::optional<double> HistoryStore::memoized(PeerId peer, Estimator e, std::size_t last_n,
                                             Compute compute) const {
  const PeerHistory* history = find(peer);
  if (history == nullptr) return std::nullopt;
  Memo& memo = history->memo[e];
  if (!memo.valid || memo.last_n != last_n) memo = {true, last_n, compute(*history)};
  return memo.value;
}

std::optional<Seconds> HistoryStore::mean_execution_time(PeerId peer, std::size_t last_n) const {
  return memoized(peer, kExecution, last_n, [last_n](const PeerHistory& h) {
    return tail_mean(
        h.tasks, last_n, [](const TaskRecord& r) { return r.ok; },
        [](const TaskRecord& r) { return r.execution_time(); });
  });
}

std::optional<GigaHertz> HistoryStore::mean_effective_speed(PeerId peer,
                                                            std::size_t last_n) const {
  return memoized(peer, kSpeed, last_n, [last_n](const PeerHistory& h) {
    return tail_mean(
        h.tasks, last_n,
        [](const TaskRecord& r) { return r.ok && r.execution_time() > 0.0 && r.work > 0.0; },
        [](const TaskRecord& r) { return r.work / r.execution_time(); });
  });
}

std::optional<MbitPerSec> HistoryStore::mean_transfer_rate(PeerId peer,
                                                           std::size_t last_n) const {
  return memoized(peer, kRate, last_n, [last_n](const PeerHistory& h) {
    return tail_mean(
        h.transfers, last_n, [](const TransferRecord& r) { return r.ok && r.duration > 0.0; },
        [](const TransferRecord& r) { return r.achieved_rate(); });
  });
}

std::optional<Seconds> HistoryStore::mean_response_time(PeerId peer, std::size_t last_n) const {
  return memoized(peer, kResponse, last_n, [last_n](const PeerHistory& h) {
    return tail_mean(
        h.responses, last_n, [](Seconds) { return true; }, [](Seconds s) { return s; });
  });
}

double HistoryStore::task_success_rate(PeerId peer) const {
  const PeerHistory* history = find(peer);
  if (history == nullptr || !history->tasks) return 1.0;
  const auto& tasks = *history->tasks;
  const auto ok =
      std::count_if(tasks.begin(), tasks.end(), [](const TaskRecord& r) { return r.ok; });
  return static_cast<double>(ok) / static_cast<double>(tasks.size());
}

std::vector<TaskRecord> HistoryStore::tasks_for(PeerId peer) const {
  const PeerHistory* history = find(peer);
  if (history == nullptr || !history->tasks) return {};
  return {history->tasks->begin(), history->tasks->end()};
}

std::vector<TransferRecord> HistoryStore::transfers_for(PeerId peer) const {
  const PeerHistory* history = find(peer);
  if (history == nullptr || !history->transfers) return {};
  return {history->transfers->begin(), history->transfers->end()};
}

std::size_t HistoryStore::task_count(PeerId peer) const {
  const PeerHistory* history = find(peer);
  return history == nullptr || !history->tasks ? 0 : history->tasks->size();
}

std::vector<PeerId> HistoryStore::known_peers() const {
  std::vector<PeerId> peers;
  peers.reserve(peers_.size());
  for (const auto& [peer, history] : peers_) peers.push_back(peer);
  std::sort(peers.begin(), peers.end());
  return peers;
}

}  // namespace peerlab::stats
