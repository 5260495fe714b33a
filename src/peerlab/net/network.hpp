#pragma once

// Network facade: the two planes the overlay sees.
//
//  * Control plane — send_datagram(): small advisory messages
//    (petitions, confirmations, heartbeats, adverts). Delay is
//    propagation + the *destination's* control-plane responsiveness
//    (the quantity the paper's Figure 2 measures per peer: a loaded
//    PlanetLab sliver takes seconds to react). Datagrams can be lost;
//    callers that need reliability run a timer (ReliableChannel).
//
//  * Data plane — start_message(): one bulk JXTA message moved by the
//    fluid FlowScheduler, rate-capped by the large-message degradation
//    model, and subject to whole-message loss: a lost message wastes a
//    random fraction of its transfer time before failing, which is why
//    retransmitting a 100 MB monolith is so much worse than a 6.25 MB
//    part.

#include <functional>
#include <set>
#include <utility>
#include <vector>

#include "peerlab/common/ids.hpp"
#include "peerlab/common/units.hpp"
#include "peerlab/net/degradation.hpp"
#include "peerlab/net/flow_scheduler.hpp"
#include "peerlab/net/topology.hpp"
#include "peerlab/obs/trace_context.hpp"
#include "peerlab/sim/simulator.hpp"

namespace peerlab::obs::trace {
class TraceRecorder;
}  // namespace peerlab::obs::trace

namespace peerlab::net {

struct NetworkConfig {
  FlowSchedulerConfig flows{};
  DegradationModel degradation{};
  /// Floor loss probability for any datagram, on top of size-dependent
  /// loss (models UDP-ish advisory traffic over the wide area).
  double datagram_loss = 0.001;
  /// Probability that a delivered datagram arrives twice (the mirror
  /// knob of datagram_loss: wide-area paths and retransmitting relays
  /// duplicate as well as drop). The copy takes an independently
  /// sampled control delay, so duplicates can arrive out of order.
  /// Responders must be idempotent (see ReliableChannel); this knob
  /// exists to regression-test that property. 0 (the default) draws
  /// nothing from the loss RNG, leaving seeded runs bit-identical.
  double datagram_duplication = 0.0;
  /// Serialization allowance per control datagram.
  Seconds datagram_serialization = 0.001;
  /// How long a bulk send towards a crashed or partitioned endpoint
  /// stalls before its failure callback fires (the sender's transport
  /// noticing the dead peer; a TCP-connect-timeout stand-in).
  Seconds fault_stall = 5.0;
};

class Network {
 public:
  Network(sim::Simulator& sim, Topology topology, NetworkConfig config = {});

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  [[nodiscard]] sim::Simulator& simulator() noexcept { return sim_; }
  [[nodiscard]] Topology& topology() noexcept { return topology_; }
  [[nodiscard]] const Topology& topology() const noexcept { return topology_; }
  [[nodiscard]] FlowScheduler& flows() noexcept { return flows_; }
  [[nodiscard]] const FlowScheduler& flows() const noexcept { return flows_; }
  [[nodiscard]] const DegradationModel& degradation() const noexcept {
    return config_.degradation;
  }
  [[nodiscard]] const NetworkConfig& config() const noexcept { return config_; }

  /// Sends a control datagram. `on_delivered` fires at the arrival
  /// instant, or never if the datagram is lost.
  void send_datagram(NodeId src, NodeId dst, Bytes size, std::function<void()> on_delivered);

  /// Moves one bulk message. `on_done(ok, elapsed)` fires when the
  /// message lands (ok = true) or when a loss aborts it part-way
  /// (ok = false); `elapsed` is measured from this call either way.
  /// Returns the flow id for cancellation; the id refers to the
  /// underlying flow once it starts.
  FlowId start_message(NodeId src, NodeId dst, Bytes size,
                       std::function<void(bool ok, Seconds elapsed)> on_done);

  /// As above, but the bulk message rides `trace`'s causal chain: with
  /// a trace recorder attached and an active context, the flow's
  /// start/finish/abort land on the chain as kFlowStart/kFlowFinish/
  /// kFlowAbort events.
  FlowId start_message(NodeId src, NodeId dst, Bytes size, const obs::trace::TraceContext& trace,
                       std::function<void(bool ok, Seconds elapsed)> on_done);

  /// Cancels an in-flight message; its callback never fires.
  void cancel_message(FlowId id) { flows_.cancel(id); }

  // ---- fault surface (driven by FaultInjector; see DESIGN.md §10) ----

  [[nodiscard]] bool node_up(NodeId node) const noexcept;
  /// Both endpoints up and no partition between them.
  [[nodiscard]] bool reachable(NodeId src, NodeId dst) const noexcept {
    return node_up(src) && node_up(dst) && !partitioned(src, dst);
  }

  /// Takes a node down (crash): every in-flight bulk message touching
  /// it aborts atomically — one batched rate recomputation — with each
  /// message's on_done(false, ...) firing; datagrams from/to the node
  /// are dropped until restore_node(). Idempotent.
  void crash_node(NodeId node);
  void restore_node(NodeId node);

  /// Cuts / heals the bidirectional link between two nodes. A cut
  /// aborts in-flight bulk messages between them and drops datagrams
  /// either way until healed.
  void partition(NodeId a, NodeId b);
  void heal(NodeId a, NodeId b);
  [[nodiscard]] bool partitioned(NodeId a, NodeId b) const noexcept;

  /// Bandwidth brownout: scales the node's access capacity by `factor`
  /// in (0, 1]; 1 restores nominal. Only the flow components touching
  /// the node re-level; everything else keeps its rates.
  void set_capacity_factor(NodeId node, double factor);

  /// Samples the end-to-end delay of one control datagram without
  /// sending (used by models estimating responsiveness).
  [[nodiscard]] Seconds sample_control_delay(NodeId src, NodeId dst);

  /// Attaches (or detaches with nullptr) the causal-trace recorder.
  /// Traced bulk messages then emit flow lifecycle events and the flow
  /// scheduler records ambient re-levels. One pointer test per site
  /// when detached.
  void set_trace(obs::trace::TraceRecorder* recorder) noexcept {
    trace_ = recorder;
    flows_.set_trace(recorder);
  }
  [[nodiscard]] obs::trace::TraceRecorder* trace() const noexcept { return trace_; }

  /// Registers the network's instruments (datagram/message counters,
  /// control-delay histogram, accumulated brownout seconds) in
  /// `registry` and the flow scheduler's alongside; zero-cost when
  /// never called. A non-null `profiler` adds nested re-level/water-fill
  /// spans (see obs::WallProfiler).
  /// The unnamed bool is ignored; e2ebench/src/workloads.cpp still passes it.
  void attach_metrics(obs::MetricRegistry& registry, bool = false,
                      obs::WallProfiler* profiler = nullptr);
  void detach_metrics() noexcept {
    m_ = Metrics();
    flows_.detach_metrics();
  }

  /// Statistics for tests and reporting.
  [[nodiscard]] std::uint64_t datagrams_sent() const noexcept { return datagrams_sent_; }
  [[nodiscard]] std::uint64_t datagrams_lost() const noexcept { return datagrams_lost_; }
  /// Datagrams delivered a second time by the duplication knob.
  [[nodiscard]] std::uint64_t datagrams_duplicated() const noexcept {
    return datagrams_duplicated_;
  }
  [[nodiscard]] std::uint64_t messages_started() const noexcept { return messages_started_; }
  [[nodiscard]] std::uint64_t messages_lost() const noexcept { return messages_lost_; }
  /// Datagrams dropped and bulk messages failed because an endpoint was
  /// down or partitioned (subset of the lost counters above).
  [[nodiscard]] std::uint64_t datagrams_blocked() const noexcept { return datagrams_blocked_; }
  [[nodiscard]] std::uint64_t messages_blocked() const noexcept { return messages_blocked_; }
  /// Bulk messages torn down mid-flight by a crash or partition.
  [[nodiscard]] std::uint64_t messages_aborted() const noexcept { return messages_aborted_; }

 private:
  /// Cached instrument handles; all null while detached.
  struct Metrics {
    obs::Counter* datagrams_sent = nullptr;
    obs::Counter* datagrams_lost = nullptr;
    obs::Counter* datagrams_blocked = nullptr;
    obs::Counter* datagrams_duplicated = nullptr;
    obs::Counter* messages_started = nullptr;
    obs::Counter* messages_lost = nullptr;
    obs::Counter* messages_blocked = nullptr;
    obs::Counter* messages_aborted = nullptr;
    obs::Gauge* brownout_seconds = nullptr;
    obs::Histogram* datagram_delay_s = nullptr;
  };

  /// Closes the open brownout interval of `node` (if any) into the
  /// brownout-seconds gauge; called on every factor change.
  void account_brownout(NodeId node, double new_factor);

  sim::Simulator& sim_;
  Topology topology_;
  NetworkConfig config_;
  FlowScheduler flows_;
  sim::Rng loss_rng_;
  obs::trace::TraceRecorder* trace_ = nullptr;
  Metrics m_;
  /// Start time of each node's ongoing brownout; NaN = not degraded.
  std::vector<Seconds> brownout_since_;
  std::vector<std::uint8_t> node_down_;  // index = node id; 1 = down
  std::set<std::pair<std::uint64_t, std::uint64_t>> partitions_;  // (min, max) node ids
  std::uint64_t datagrams_sent_ = 0;
  std::uint64_t datagrams_lost_ = 0;
  std::uint64_t datagrams_duplicated_ = 0;
  std::uint64_t messages_started_ = 0;
  std::uint64_t messages_lost_ = 0;
  std::uint64_t datagrams_blocked_ = 0;
  std::uint64_t messages_blocked_ = 0;
  std::uint64_t messages_aborted_ = 0;
};

}  // namespace peerlab::net
