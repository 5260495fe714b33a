#pragma once

// Per-node task execution engine. Execution time is work divided by
// the node's sampled effective speed (nominal GHz minus the background
// load other PlanetLab slivers impose at that moment), so the same task
// takes visibly longer on an SC7-class node — the effect Figure 7
// reports. Executions can fail (sliver killed, process crash) with a
// configurable probability.

#include <functional>
#include <unordered_map>

#include "peerlab/net/node.hpp"
#include "peerlab/sim/simulator.hpp"
#include "peerlab/tasks/queue.hpp"

namespace peerlab::tasks {

struct ExecutorConfig {
  /// Concurrent executions (PlanetLab-era nodes: 1).
  int slots = 1;
  /// Queue capacity behind the slots.
  std::size_t queue_capacity = 16;
  /// Probability one execution fails.
  double failure_rate = 0.0;
};

struct ExecutionReport {
  Task task;
  TaskState state = TaskState::kFailed;
  Seconds accepted_at = 0.0;
  Seconds started_at = 0.0;
  Seconds finished_at = 0.0;
  /// Effective speed the execution saw (GHz).
  GigaHertz effective_speed = 0.0;

  [[nodiscard]] Seconds execution_time() const noexcept { return finished_at - started_at; }
  [[nodiscard]] Seconds queueing_time() const noexcept { return started_at - accepted_at; }
};

class TaskExecutor {
 public:
  TaskExecutor(sim::Simulator& sim, net::Node& node, ExecutorConfig config = {});

  TaskExecutor(const TaskExecutor&) = delete;
  TaskExecutor& operator=(const TaskExecutor&) = delete;

  using Completion = std::function<void(const ExecutionReport&)>;

  /// Offers a task. Returns false (and reports kRejected through the
  /// callback) when the queue is full; otherwise the callback fires at
  /// completion or failure.
  bool submit(const Task& task, Completion done);

  [[nodiscard]] bool idle() const noexcept { return running_ == 0 && queue_.empty(); }
  [[nodiscard]] int running() const noexcept { return running_; }
  /// Queued + running — the backlog a broker sees.
  [[nodiscard]] int backlog() const noexcept {
    return running_ + static_cast<int>(queue_.depth());
  }
  [[nodiscard]] const TaskQueue& queue() const noexcept { return queue_; }
  [[nodiscard]] std::uint64_t completed() const noexcept { return completed_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }

 private:
  void maybe_start();
  void finish(const Task& task, Seconds accepted_at, Seconds started_at,
              GigaHertz speed, Completion done);

  sim::Simulator& sim_;
  net::Node& node_;
  ExecutorConfig config_;
  TaskQueue queue_;
  std::unordered_map<std::uint64_t, std::pair<Seconds, Completion>> pending_;  // accepted_at
  int running_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace peerlab::tasks
