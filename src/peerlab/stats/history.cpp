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

HistoryStore::Row& HistoryStore::touch(PeerId peer) {
  Row& row = dense_row(rows_, peer);
  std::fill(std::begin(row.memo), std::end(row.memo), Row::kStale);
  return row;
}

template <typename T>
void HistoryStore::append(Pool<T>& pool, std::uint32_t& handle, const T& value) {
  if (handle == 0) {
    pool.emplace_back();
    handle = static_cast<std::uint32_t>(pool.size());
  }
  std::deque<T>& records = pool[handle - 1];
  records.push_back(value);
  while (records.size() > capacity_) records.pop_front();
}

void HistoryStore::record_task(const TaskRecord& record) {
  PEERLAB_CHECK_MSG(record.peer.valid(), "task record needs a peer");
  PEERLAB_CHECK_MSG(record.finished >= record.started && record.started >= record.submitted,
                    "task record times out of order");
  append(tasks_, touch(record.peer).fifo[kTasks], record);
  notify(record.peer);
}

void HistoryStore::record_transfer(const TransferRecord& record) {
  PEERLAB_CHECK_MSG(record.peer.valid(), "transfer record needs a peer");
  append(transfers_, touch(record.peer).fifo[kTransfers], record);
  notify(record.peer);
}

void HistoryStore::record_response_time(PeerId peer, Seconds elapsed) {
  PEERLAB_CHECK_MSG(peer.valid() && elapsed >= 0.0, "bad response-time record");
  append(responses_, touch(peer).fifo[kResponses], elapsed);
  notify(peer);
}

namespace {
/// Averages f over the last `last_n` entries of `records` that satisfy
/// `use`; nullopt when none qualify (or the kind was never recorded).
template <typename T, typename Use, typename Extract>
std::optional<double> tail_mean(const std::deque<T>* records, std::size_t last_n, Use use,
                                Extract extract) {
  if (records == nullptr) return std::nullopt;
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

void HistoryStore::refresh(const Row& row, Estimator e, std::uint32_t depth) const {
  std::optional<double> mean;
  switch (e) {
    case kExecution:
      mean = tail_mean(
          fifo(tasks_, row.fifo[kTasks]), depth, [](const TaskRecord& r) { return r.ok; },
          [](const TaskRecord& r) { return r.execution_time(); });
      break;
    case kSpeed:
      mean = tail_mean(
          fifo(tasks_, row.fifo[kTasks]), depth,
          [](const TaskRecord& r) { return r.ok && r.execution_time() > 0.0 && r.work > 0.0; },
          [](const TaskRecord& r) { return r.work / r.execution_time(); });
      break;
    case kRate:
      mean = tail_mean(
          fifo(transfers_, row.fifo[kTransfers]), depth,
          [](const TransferRecord& r) { return r.ok && r.duration > 0.0; },
          [](const TransferRecord& r) { return r.achieved_rate(); });
      break;
    case kResponse:
      mean = tail_mean(
          fifo(responses_, row.fifo[kResponses]), depth, [](Seconds) { return true; },
          [](Seconds s) { return s; });
      break;
  }
  row.last_n[e] = depth;
  row.memo[e] = mean ? Row::kValue : Row::kEmpty;
  row.value[e] = mean.value_or(0.0);
}

double HistoryStore::task_success_rate(PeerId peer) const {
  const auto* tasks = fifo(tasks_, peer, kTasks);
  if (tasks == nullptr) return 1.0;
  const auto ok =
      std::count_if(tasks->begin(), tasks->end(), [](const TaskRecord& r) { return r.ok; });
  return static_cast<double>(ok) / static_cast<double>(tasks->size());
}

std::vector<TaskRecord> HistoryStore::tasks_for(PeerId peer) const {
  const auto* tasks = fifo(tasks_, peer, kTasks);
  if (tasks == nullptr) return {};
  return {tasks->begin(), tasks->end()};
}

std::vector<TransferRecord> HistoryStore::transfers_for(PeerId peer) const {
  const auto* transfers = fifo(transfers_, peer, kTransfers);
  if (transfers == nullptr) return {};
  return {transfers->begin(), transfers->end()};
}

std::size_t HistoryStore::task_count(PeerId peer) const {
  const auto* tasks = fifo(tasks_, peer, kTasks);
  return tasks == nullptr ? 0 : tasks->size();
}

std::vector<PeerId> HistoryStore::known_peers() const {
  std::vector<PeerId> peers;
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const Row& row = rows_[i];
    if (row.fifo[kTasks] != 0 || row.fifo[kTransfers] != 0 || row.fifo[kResponses] != 0) {
      peers.emplace_back(i);
    }
  }
  return peers;
}

}  // namespace peerlab::stats
