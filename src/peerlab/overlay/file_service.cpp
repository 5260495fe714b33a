#include "peerlab/overlay/file_service.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "peerlab/common/check.hpp"
#include "peerlab/obs/trace.hpp"

namespace peerlab::overlay {

using obs::trace::TraceKind;

FileService::FileService(transport::Endpoint& endpoint, OverlayDirectories& directories,
                         Reporter reporter)
    : endpoint_(endpoint),
      peer_(endpoint, directories.transfers),
      reporter_(std::move(reporter)) {
  PEERLAB_CHECK_MSG(static_cast<bool>(reporter_), "file service needs a reporter");
}

void FileService::attach_metrics(obs::MetricRegistry& registry) {
  m_.distributions = &registry.counter("overlay.distributions", "runs");
  m_.distributions_complete = &registry.counter("overlay.distributions_complete", "runs");
  m_.failovers = &registry.counter("overlay.failovers", "shares");
  m_.backoff_retries = &registry.counter("overlay.backoff_retries", "retries");
  obs::Histogram::Options makespan_opts;
  makespan_opts.lo = 0.1;  // a scatter runs seconds .. hours
  makespan_opts.hi = 1e5;
  m_.makespan_s = &registry.histogram("overlay.distribution.makespan_s", "s", makespan_opts);
  peer_.attach_metrics(registry);
}

sim::Simulator& FileService::sim() noexcept { return endpoint_.fabric().simulator(); }

net::FlowScheduler& FileService::flows() noexcept {
  return endpoint_.fabric().network().flows();
}

TransferId FileService::send_file(PeerId dst, const transport::FileTransferConfig& config,
                                  Completion done) {
  ++started_;
  return peer_.send_file(
      node_of(dst), config, [this, dst, ctx = config.trace, done = std::move(done)](
                                const transport::TransferResult& result) {
        // Erase unconditionally: whatever the outcome, the marker must
        // not outlive the transfer (see cancel()).
        const bool was_cancelled = cancelled_.erase(result.id.value()) > 0;
        StatsDelta delta;
        delta.subject = dst;
        delta.trace = ctx;  // the broker's kStatsApply joins the chain
        if (result.complete) {
          ++completed_;
          delta.file_done = 1;
          stats::TransferRecord record;
          record.transfer = result.id;
          record.peer = dst;
          record.size = 0;
          for (const auto& part : result.parts) record.size += part.size;
          record.duration = result.transmission_time();
          record.petition_time = result.petition_time();
          record.ok = true;
          delta.transfer_records.push_back(record);
          delta.response_times.push_back(result.petition_time());
        } else if (was_cancelled) {
          delta.file_cancel = 1;
        } else {
          delta.file_fail = 1;
        }
        reporter_(std::move(delta));
        if (done) done(result);
      });
}

void FileService::cancel(TransferId id) {
  // Guarding on the transfer still being in flight keeps cancelled_
  // bounded: a marker for a finished (or unknown) transfer would never
  // be erased, because its completion callback has already fired.
  if (!peer_.sending(id)) return;
  cancelled_.insert(id.value());
  peer_.cancel(id);
}

struct FileService::DistributionState {
  transport::FileTransferConfig base;
  DistributionOptions options;
  DistributionCallback done;
  DistributionResult result;

  struct Share {
    PeerId original;
    PeerId current;
    int parts = 0;
    Bytes bytes = 0;
    int failovers = 0;
    /// Share span under the distribution's chain (inactive = untraced).
    obs::trace::TraceContext ctx;
    // Outcome of the latest attempt, copied from its TransferResult so
    // a failed replacement petition can still report the share.
    bool complete = false;
    Bytes bytes_moved = 0;
    Seconds petition_time = 0.0;
    Seconds transmission_time = 0.0;
  };
  std::vector<Share> shares;
  /// Every peer ever assigned a share; replacement petitions exclude
  /// all of them so a share never lands on a peer that already failed
  /// (or currently holds) part of this file.
  std::vector<PeerId> used;
  int outstanding = 0;
  /// Root of the distribution's causal chain (inactive = untraced).
  obs::trace::TraceContext ctx;
};

void FileService::distribute(Bytes file_size, int parts, const std::vector<PeerId>& peers,
                             const transport::FileTransferConfig& base,
                             DistributionCallback done, DistributionOptions options) {
  PEERLAB_CHECK_MSG(file_size > 0 && parts >= 1, "distribution needs a file and parts");
  PEERLAB_CHECK_MSG(!peers.empty(), "distribution needs at least one peer");
  PEERLAB_CHECK_MSG(static_cast<bool>(done), "completion callback required");
  PEERLAB_CHECK_MSG(options.max_failovers_per_share >= 0, "failover budget must be >= 0");
  PEERLAB_CHECK_MSG(options.backoff_initial >= 0.0 && options.backoff_cap >= 0.0 &&
                        options.backoff_factor >= 1.0,
                    "backoff must be non-negative and non-shrinking");
  for (std::size_t i = 0; i < peers.size(); ++i) {
    for (std::size_t j = i + 1; j < peers.size(); ++j) {
      PEERLAB_CHECK_MSG(peers[i] != peers[j], "distribution peers must be distinct");
    }
  }

  const Bytes part_size = file_size / parts;
  PEERLAB_CHECK_MSG(part_size > 0, "more parts than bytes");

  auto state = std::make_shared<DistributionState>();
  state->base = base;
  state->options = options;
  state->done = std::move(done);
  state->result.started = std::numeric_limits<Seconds>::infinity();

  // Round-robin part assignment; the last share absorbs the remainder.
  // Peers are distinct (checked above), so each peer's count follows
  // from its position: parts/n plus one for the first parts%n peers.
  // Sorting by peer reproduces the id-ascending share order the
  // std::map this replaces used to iterate in.
  const std::size_t fanout = peers.size();
  std::vector<std::pair<PeerId, int>> share_parts;
  share_parts.reserve(fanout);
  for (std::size_t j = 0; j < fanout && j < static_cast<std::size_t>(parts); ++j) {
    const int count = parts / static_cast<int>(fanout) +
                      (j < static_cast<std::size_t>(parts) % fanout ? 1 : 0);
    share_parts.push_back({peers[j], count});
  }
  std::sort(share_parts.begin(), share_parts.end());
  state->shares.reserve(share_parts.size());
  state->used.reserve(share_parts.size());
  Bytes assigned = 0;
  for (const auto& [peer, n] : share_parts) {
    DistributionState::Share share;
    share.original = peer;
    share.current = peer;
    share.parts = n;
    share.bytes = static_cast<Bytes>(n) * part_size;
    assigned += share.bytes;
    state->shares.push_back(share);
    state->used.push_back(peer);
  }
  state->shares.back().bytes += file_size - assigned;  // rounding remainder
  state->outstanding = static_cast<int>(state->shares.size());
  if (m_.distributions != nullptr) m_.distributions->add(1);
  if (trace_ != nullptr) {
    // Every distribution mints a fresh TraceId; the whole fan-out —
    // selections, petitions, parts, confirms, failovers, stats — rides
    // this one chain.
    state->ctx = trace_->root();
    trace_->emit(endpoint_.node(), TraceKind::kDistStart, state->ctx,
                 static_cast<std::uint64_t>(file_size), static_cast<std::uint64_t>(parts));
  }

  // One rate recomputation for the whole fan-out, not one per share.
  const auto batch = flows().start_batch();
  for (std::size_t i = 0; i < state->shares.size(); ++i) launch_share(state, i);
}

void FileService::launch_share(const std::shared_ptr<DistributionState>& state,
                               std::size_t index) {
  auto& share = state->shares[index];
  transport::FileTransferConfig cfg = state->base;
  cfg.file_size = share.bytes;
  cfg.parts = share.parts;
  if (trace_ != nullptr && state->ctx.active()) {
    // Fresh span per launch attempt: a failover re-launch is visibly a
    // different leg of the same chain.
    share.ctx = trace_->child_of(state->ctx);
    trace_->emit(endpoint_.node(), TraceKind::kShareLaunch, share.ctx, share.current.value(),
                 static_cast<std::uint64_t>(share.bytes), state->ctx.span);
    cfg.trace = share.ctx;
  }
  send_file(share.current, cfg,
            [this, state, index](const transport::TransferResult& result) {
              share_finished(state, index, result);
            });
}

void FileService::share_finished(const std::shared_ptr<DistributionState>& state,
                                 std::size_t index,
                                 const transport::TransferResult& result) {
  auto& share = state->shares[index];
  state->result.started = std::min(state->result.started, result.started);
  state->result.finished = std::max(state->result.finished, result.finished);
  share.complete = result.complete;
  share.bytes_moved = 0;
  for (const auto& part : result.parts) share.bytes_moved += part.size;
  share.petition_time = result.petition_time();
  share.transmission_time = result.transmission_time();

  if (result.complete || !replacement_ ||
      share.failovers >= state->options.max_failovers_per_share) {
    finalize_share(state, index);
    return;
  }

  // Failed share: back off (capped exponential in the share's failover
  // count), then re-petition the broker for a substitute. The backoff
  // sits *before* the petition so the broker has had silence enough to
  // age the dead peer out of its registry.
  Seconds delay = state->options.backoff_initial;
  for (int i = 0; i < share.failovers; ++i) delay *= state->options.backoff_factor;
  delay = std::min(delay, state->options.backoff_cap);
  ++share.failovers;
  ++state->result.failovers;
  ++failovers_;
  if (m_.backoff_retries != nullptr) m_.backoff_retries->add(1);
  if (trace_ != nullptr && share.ctx.active()) {
    trace_->emit(endpoint_.node(), TraceKind::kShareFailover, share.ctx, share.current.value(),
                 static_cast<std::uint64_t>(share.failovers));
  }

  sim().schedule(delay, [this, state, index] {
    replacement_(state->shares[index].bytes, state->used, state->shares[index].ctx,
                 [this, state, index](PeerId replacement) {
                   if (!replacement.valid()) {
                     // Nobody left to take the share: report it as-is.
                     if (trace_ != nullptr && state->shares[index].ctx.active()) {
                       trace_->emit(endpoint_.node(), TraceKind::kShareGaveUp,
                                    state->shares[index].ctx,
                                    state->shares[index].current.value(),
                                    static_cast<std::uint64_t>(state->shares[index].failovers));
                     }
                     finalize_share(state, index);
                     return;
                   }
                   if (m_.failovers != nullptr) m_.failovers->add(1);
                   state->shares[index].current = replacement;
                   state->used.push_back(replacement);
                   launch_share(state, index);
                 });
  });
}

void FileService::finalize_share(const std::shared_ptr<DistributionState>& state,
                                 std::size_t index) {
  const auto& share = state->shares[index];
  DistributionResult::PeerShare out;
  out.peer = share.current;
  out.original = share.original;
  out.parts = share.parts;
  out.bytes = share.bytes_moved;
  out.complete = share.complete;
  out.failovers = share.failovers;
  out.petition_time = share.petition_time;
  out.transmission_time = share.transmission_time;
  state->result.shares.push_back(out);

  if (--state->outstanding != 0) return;
  state->result.complete = true;
  for (const auto& s : state->result.shares) state->result.complete &= s.complete;
  if (trace_ != nullptr && state->ctx.active()) {
    trace_->emit(endpoint_.node(), TraceKind::kDistDone, state->ctx,
                 state->result.complete ? 1 : 0,
                 static_cast<std::uint64_t>(state->result.failovers));
  }
  // Deterministic share order for consumers (peers are distinct by the
  // exclusion discipline, so the order is total).
  std::sort(state->result.shares.begin(), state->result.shares.end(),
            [](const auto& a, const auto& b) { return a.peer < b.peer; });
  if (m_.makespan_s != nullptr) {
    if (m_.distributions_complete != nullptr && state->result.complete) {
      m_.distributions_complete->add(1);
    }
    m_.makespan_s->record(state->result.makespan());
  }
  state->done(state->result);
}

}  // namespace peerlab::overlay
