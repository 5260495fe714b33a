#pragma once

// The discrete-event simulator core.
//
// A Simulator owns the virtual clock, the pending-event set and the run
// loop. Everything in peerlab (network flows, protocol timers, task
// executions) advances by scheduling closures. A simulation is
// single-threaded and fully deterministic given its seed; experiment
// harnesses run many independent Simulators in parallel threads instead
// of sharing one.

#include <cstdint>
#include <limits>

#include "peerlab/common/check.hpp"
#include "peerlab/common/units.hpp"
#include "peerlab/sim/event_queue.hpp"
#include "peerlab/sim/rng.hpp"

namespace peerlab::sim {

class Simulator {
 public:
  /// `seed` drives every random draw in this simulation instance.
  explicit Simulator(std::uint64_t seed = 1) : rng_(seed) {}

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time.
  [[nodiscard]] Seconds now() const noexcept { return now_; }

  /// Schedules `action` to run `delay` seconds from now (delay >= 0).
  EventHandle schedule(Seconds delay, Action action) {
    PEERLAB_CHECK_MSG(delay >= 0.0, "cannot schedule into the past");
    return queue_.push(now_ + delay, std::move(action));
  }

  /// Schedules `action` at absolute time `when` (when >= now()).
  EventHandle schedule_at(Seconds when, Action action) {
    PEERLAB_CHECK_MSG(when >= now_, "cannot schedule into the past");
    return queue_.push(when, std::move(action));
  }

  /// Moves a pending event to fire `delay` seconds from now, keeping
  /// its slot and action (see EventQueue::rearm). Firing order matches
  /// what cancel() + schedule(same action) would produce, without the
  /// slot recycling and std::function churn of that pair.
  void reschedule(EventHandle& handle, Seconds delay) {
    PEERLAB_CHECK_MSG(delay >= 0.0, "cannot schedule into the past");
    queue_.rearm(handle, now_ + delay);
  }

  /// Schedules a *daemon* event: periodic background work (heartbeats,
  /// republish timers) that must not keep run() alive. run() exits once
  /// only daemon events remain; a bounded run_until() still fires them.
  EventHandle schedule_daemon(Seconds delay, Action action) {
    PEERLAB_CHECK_MSG(delay >= 0.0, "cannot schedule into the past");
    return queue_.push(now_ + delay, std::move(action), /*daemon=*/true);
  }

  /// Runs until no non-daemon work remains. Returns events executed.
  std::uint64_t run() { return run_until(std::numeric_limits<Seconds>::infinity()); }

  /// Runs events with time <= horizon; advances the clock to the last
  /// executed event (or to `horizon` if finite and the queue drained
  /// earlier events only). Returns events executed.
  std::uint64_t run_until(Seconds horizon);

  /// Executes at most `count` events. Returns events executed.
  std::uint64_t step(std::uint64_t count = 1);

  /// Requests the run loop to exit after the current event.
  void stop() noexcept { stopped_ = true; }

  /// Discards all pending events.
  void clear() noexcept { queue_.clear(); }

  [[nodiscard]] bool idle() const noexcept { return queue_.empty(); }
  [[nodiscard]] std::size_t pending_events() const noexcept { return queue_.size(); }
  [[nodiscard]] std::uint64_t executed_events() const noexcept { return executed_; }

  /// The simulation-wide random source. All stochastic models draw from
  /// it (or from streams forked off it) so a seed fixes the whole run.
  [[nodiscard]] Rng& rng() noexcept { return rng_; }

 private:
  EventQueue queue_;
  Rng rng_;
  Seconds now_ = 0.0;
  std::uint64_t executed_ = 0;
  bool stopped_ = false;
};

}  // namespace peerlab::sim
