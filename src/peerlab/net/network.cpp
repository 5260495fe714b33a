#include "peerlab/net/network.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "peerlab/common/check.hpp"
#include "peerlab/obs/trace.hpp"

namespace peerlab::net {

using obs::trace::TraceKind;

Network::Network(sim::Simulator& sim, Topology topology, NetworkConfig config)
    : sim_(sim),
      topology_(std::move(topology)),
      config_(config),
      flows_(sim, topology_, config.flows),
      loss_rng_(sim.rng().fork(0x10055ull)) {
  PEERLAB_CHECK_MSG(config_.datagram_loss >= 0.0 && config_.datagram_loss < 1.0,
                    "datagram_loss must be in [0, 1)");
  PEERLAB_CHECK_MSG(
      config_.datagram_duplication >= 0.0 && config_.datagram_duplication < 1.0,
      "datagram_duplication must be in [0, 1)");
}

void Network::attach_metrics(obs::MetricRegistry& registry, bool,
                             obs::WallProfiler* profiler) {
  m_.datagrams_sent = &registry.counter("net.datagrams.sent", "datagrams");
  m_.datagrams_lost = &registry.counter("net.datagrams.lost", "datagrams");
  m_.datagrams_blocked = &registry.counter("net.datagrams.blocked", "datagrams");
  m_.datagrams_duplicated = &registry.counter("net.datagrams.duplicated", "datagrams");
  m_.messages_started = &registry.counter("net.messages.started", "messages");
  m_.messages_lost = &registry.counter("net.messages.lost", "messages");
  m_.messages_blocked = &registry.counter("net.messages.blocked", "messages");
  m_.messages_aborted = &registry.counter("net.messages.aborted", "messages");
  m_.brownout_seconds = &registry.gauge("net.brownout_seconds", "s");
  obs::Histogram::Options delay_opts;
  delay_opts.lo = 1e-4;  // control delays run 1 ms .. tens of seconds
  delay_opts.hi = 1e3;
  m_.datagram_delay_s = &registry.histogram("net.datagram_delay_s", "s", delay_opts);
  flows_.attach_metrics(registry, profiler);
}

void Network::account_brownout(NodeId node, double new_factor) {
  if (m_.brownout_seconds == nullptr) return;
  if (brownout_since_.size() <= node.value()) {
    brownout_since_.resize(topology_.size() + 1,
                           std::numeric_limits<Seconds>::quiet_NaN());
  }
  Seconds& since = brownout_since_[node.value()];
  // Close the running degraded interval (a factor change ends one
  // segment and may start another), then open a new one unless the
  // node is back to nominal.
  if (!std::isnan(since)) {
    m_.brownout_seconds->add(sim_.now() - since);
    since = std::numeric_limits<Seconds>::quiet_NaN();
  }
  if (new_factor < 1.0) since = sim_.now();
}

bool Network::node_up(NodeId node) const noexcept {
  const std::uint64_t i = node.value();
  return i >= node_down_.size() || node_down_[i] == 0;
}

void Network::crash_node(NodeId node) {
  PEERLAB_CHECK_MSG(topology_.contains(node), "crash target must exist");
  if (!node_up(node)) return;
  if (node_down_.size() <= node.value()) node_down_.resize(topology_.size() + 1, 0);
  node_down_[node.value()] = 1;
  // All in-flight messages touching the node die together: the batch
  // guard coalesces the dirty components so each survivor component
  // re-levels exactly once, then every victim's failure callback fires
  // (spec.on_abort, wired in start_message).
  const auto batch = flows_.start_batch();
  const std::size_t aborted = flows_.abort_touching(node);
  messages_aborted_ += aborted;
  if (m_.messages_aborted != nullptr) m_.messages_aborted->add(aborted);
}

void Network::set_capacity_factor(NodeId node, double factor) {
  account_brownout(node, factor);
  flows_.set_capacity_factor(node, factor);
}

void Network::restore_node(NodeId node) {
  PEERLAB_CHECK_MSG(topology_.contains(node), "restore target must exist");
  if (node.value() < node_down_.size()) node_down_[node.value()] = 0;
}

void Network::partition(NodeId a, NodeId b) {
  PEERLAB_CHECK_MSG(topology_.contains(a) && topology_.contains(b) && a != b,
                    "partition needs two distinct existing nodes");
  if (!partitions_.emplace(std::min(a.value(), b.value()), std::max(a.value(), b.value()))
           .second) {
    return;
  }
  const std::size_t aborted = flows_.abort_between(a, b);
  messages_aborted_ += aborted;
  if (m_.messages_aborted != nullptr) m_.messages_aborted->add(aborted);
}

void Network::heal(NodeId a, NodeId b) {
  partitions_.erase({std::min(a.value(), b.value()), std::max(a.value(), b.value())});
}

bool Network::partitioned(NodeId a, NodeId b) const noexcept {
  return partitions_.count({std::min(a.value(), b.value()), std::max(a.value(), b.value())}) >
         0;
}

Seconds Network::sample_control_delay(NodeId src, NodeId dst) {
  return topology_.propagation(src, dst) + topology_.node(dst).sample_control_delay() +
         config_.datagram_serialization;
}

void Network::send_datagram(NodeId src, NodeId dst, Bytes size,
                            std::function<void()> on_delivered) {
  PEERLAB_CHECK_MSG(size >= 0, "datagram size must be non-negative");
  ++datagrams_sent_;
  if (m_.datagrams_sent != nullptr) m_.datagrams_sent->add(1);
  if (!reachable(src, dst)) {
    ++datagrams_lost_;
    ++datagrams_blocked_;
    if (m_.datagrams_lost != nullptr) {
      m_.datagrams_lost->add(1);
      m_.datagrams_blocked->add(1);
    }
    return;  // dead/partitioned endpoint; sender's timer handles it
  }
  const double p_deliver =
      (1.0 - config_.datagram_loss) * topology_.node(dst).delivery_probability(size);
  if (!loss_rng_.bernoulli(p_deliver)) {
    ++datagrams_lost_;
    if (m_.datagrams_lost != nullptr) m_.datagrams_lost->add(1);
    return;  // silently dropped; sender's timer handles it
  }
  const Seconds delay = sample_control_delay(src, dst);
  if (m_.datagram_delay_s != nullptr) m_.datagram_delay_s->record(delay);
  // A crash between send and arrival kills the destination's software
  // before the datagram lands, so deliverability is re-checked at the
  // arrival instant.
  auto arrival = [this, dst, cb = std::move(on_delivered)] {
    if (!node_up(dst)) {
      ++datagrams_lost_;
      ++datagrams_blocked_;
      if (m_.datagrams_lost != nullptr) {
        m_.datagrams_lost->add(1);
        m_.datagrams_blocked->add(1);
      }
      return;
    }
    if (cb) cb();
  };
  // The duplication decision draws only when the knob is armed, so the
  // default configuration consumes an identical RNG sequence.
  if (config_.datagram_duplication > 0.0 &&
      loss_rng_.bernoulli(config_.datagram_duplication)) {
    ++datagrams_duplicated_;
    if (m_.datagrams_duplicated != nullptr) m_.datagrams_duplicated->add(1);
    // The copy rides an independently sampled delay: it may land before
    // or after the original, exercising responder idempotency both ways.
    sim_.schedule(sample_control_delay(src, dst), arrival);
  }
  sim_.schedule(delay, std::move(arrival));
}

FlowId Network::start_message(NodeId src, NodeId dst, Bytes size,
                              std::function<void(bool, Seconds)> on_done) {
  return start_message(src, dst, size, obs::trace::TraceContext{}, std::move(on_done));
}

FlowId Network::start_message(NodeId src, NodeId dst, Bytes size,
                              const obs::trace::TraceContext& trace,
                              std::function<void(bool, Seconds)> on_done) {
  PEERLAB_CHECK_MSG(size > 0, "bulk message size must be positive");
  ++messages_started_;
  if (m_.messages_started != nullptr) m_.messages_started->add(1);
  const Seconds begun = sim_.now();

  if (!reachable(src, dst)) {
    // The destination is dead or unreachable: no bytes move; the
    // sender's transport notices after a connect-timeout-ish stall.
    ++messages_lost_;
    ++messages_blocked_;
    if (m_.messages_lost != nullptr) {
      m_.messages_lost->add(1);
      m_.messages_blocked->add(1);
    }
    if (trace_ != nullptr && trace.active()) {
      // No flow ever starts; the chain records the immediate abort.
      trace_->emit(src, TraceKind::kFlowAbort, trace, 0, static_cast<std::uint64_t>(size));
    }
    sim_.schedule(config_.fault_stall, [this, begun, cb = std::move(on_done)] {
      if (cb) cb(false, sim_.now() - begun);
    });
    return FlowId();
  }

  const auto& src_profile = topology_.node(src).profile();
  const MbitPerSec nominal =
      std::min(src_profile.uplink_mbps, topology_.node(dst).profile().downlink_mbps);
  const MbitPerSec cap = config_.degradation.cap(nominal, size);

  // Whole-message loss: decide up-front whether this copy survives; a
  // lost copy burns a random fraction of its wire time first.
  const double p_deliver = topology_.node(dst).delivery_probability(size);
  const bool survives = loss_rng_.bernoulli(p_deliver);
  Bytes flow_size = size;
  if (!survives) {
    ++messages_lost_;
    if (m_.messages_lost != nullptr) m_.messages_lost->add(1);
    const double fraction = loss_rng_.uniform(0.15, 0.95);
    flow_size = std::max<Bytes>(1, static_cast<Bytes>(static_cast<double>(size) * fraction));
  }

  FlowSpec spec;
  spec.src = src;
  spec.dst = dst;
  spec.size = flow_size;
  spec.rate_cap = cap;
  // Completion and fault-abort share the caller's callback; exactly one
  // of the two paths ever fires (the scheduler drops both closures when
  // the flow leaves).
  auto shared_cb = std::make_shared<std::function<void(bool, Seconds)>>(std::move(on_done));
  spec.on_complete = [this, begun, survives, src, dst, size, trace,
                      shared_cb](Seconds /*flow_duration*/) {
    const Seconds elapsed = sim_.now() - begun + topology_.propagation(src, dst);
    if (trace_ != nullptr && trace.active()) {
      trace_->emit(dst, TraceKind::kFlowFinish, trace, static_cast<std::uint64_t>(size),
                   survives ? 1 : 0);
    }
    if (*shared_cb) (*shared_cb)(survives, elapsed);
  };
  spec.on_abort = [this, begun, src, size, trace, shared_cb](Seconds /*elapsed*/) {
    if (trace_ != nullptr && trace.active()) {
      trace_->emit(src, TraceKind::kFlowAbort, trace, 0, static_cast<std::uint64_t>(size));
    }
    if (*shared_cb) (*shared_cb)(false, sim_.now() - begun);
  };
  const FlowId id = flows_.start(std::move(spec));
  if (trace_ != nullptr && trace.active()) {
    trace_->emit(src, TraceKind::kFlowStart, trace, id.value(), static_cast<std::uint64_t>(size));
  }
  return id;
}

}  // namespace peerlab::net
