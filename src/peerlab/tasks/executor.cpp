#include "peerlab/tasks/executor.hpp"

#include <utility>

#include "peerlab/common/check.hpp"

namespace peerlab::tasks {

TaskExecutor::TaskExecutor(sim::Simulator& sim, net::Node& node, ExecutorConfig config)
    : sim_(sim), node_(node), config_(config), queue_(config.queue_capacity) {
  PEERLAB_CHECK_MSG(config_.slots > 0, "executor needs at least one slot");
  PEERLAB_CHECK_MSG(config_.failure_rate >= 0.0 && config_.failure_rate < 1.0,
                    "failure rate must be in [0, 1)");
}

bool TaskExecutor::submit(const Task& task, Completion done) {
  PEERLAB_CHECK_MSG(task.work > 0.0, "task needs positive work");
  PEERLAB_CHECK_MSG(static_cast<bool>(done), "completion callback required");
  if (!queue_.offer(task)) {
    ExecutionReport report;
    report.task = task;
    report.state = TaskState::kRejected;
    report.accepted_at = sim_.now();
    report.finished_at = sim_.now();
    done(report);
    return false;
  }
  pending_.emplace(task.id.value(), std::make_pair(sim_.now(), std::move(done)));
  maybe_start();
  return true;
}

void TaskExecutor::maybe_start() {
  while (running_ < config_.slots) {
    auto next = queue_.pop();
    if (!next) return;
    auto it = pending_.find(next->id.value());
    PEERLAB_CHECK(it != pending_.end());
    const Seconds accepted_at = it->second.first;
    Completion done = std::move(it->second.second);
    pending_.erase(it);

    ++running_;
    const GigaHertz speed = node_.sample_effective_speed();
    const Seconds duration = next->work / speed;
    const Seconds started_at = sim_.now();
    const Task task = *next;
    sim_.schedule(duration, [this, task, accepted_at, started_at, speed,
                             done = std::move(done)]() mutable {
      finish(task, accepted_at, started_at, speed, std::move(done));
    });
  }
}

void TaskExecutor::finish(const Task& task, Seconds accepted_at, Seconds started_at,
                          GigaHertz speed, Completion done) {
  --running_;
  ExecutionReport report;
  report.task = task;
  report.accepted_at = accepted_at;
  report.started_at = started_at;
  report.finished_at = sim_.now();
  report.effective_speed = speed;
  const bool failed = node_.rng().bernoulli(config_.failure_rate);
  report.state = failed ? TaskState::kFailed : TaskState::kCompleted;
  if (failed) {
    ++failed_;
  } else {
    ++completed_;
  }
  // Start the next task before delivering the report so a re-submitting
  // callback sees a consistent backlog.
  maybe_start();
  done(report);
}

}  // namespace peerlab::tasks
