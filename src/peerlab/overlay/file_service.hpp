#pragma once

// File sharing & transmission primitive. Wraps the transport-level
// petition/part/confirm protocol and feeds the broker the observations
// the selection models need: per-peer petition times, achieved rates,
// and completed/cancelled/failed outcomes.
//
// distribute() is the scatter workload behind the paper's Figure 6,
// hardened for churn: when a share fails (petition retries exhausted,
// a part's retransmission budget spent, or the receiver crashing
// mid-transfer), the service asks its replacement provider — wired by
// ClientPeer to a broker re-petition that excludes every peer already
// used — for a substitute and re-sends the share after a capped
// exponential backoff. A share is only reported incomplete once its
// failover budget is spent or the broker has nobody left to offer.

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "peerlab/overlay/directories.hpp"
#include "peerlab/transport/file_transfer.hpp"

namespace peerlab::overlay {

/// Failover policy for FileService::distribute(); the defaults ride
/// out one broker heartbeat-aging period before giving up on a share.
struct DistributionOptions {
  /// Replacement peers a single share may consume before it is
  /// reported incomplete. 0 disables failover.
  int max_failovers_per_share = 3;
  /// Capped exponential backoff before each replacement petition
  /// (gives the broker time to age the dead peer out).
  Seconds backoff_initial = 10.0;
  double backoff_factor = 2.0;
  Seconds backoff_cap = 120.0;
};

class FileService {
 public:
  /// `report` sends one StatsDelta towards the broker (the owning
  /// client provides its reporting path).
  using Reporter = std::function<void(StatsDelta)>;

  FileService(transport::Endpoint& endpoint, OverlayDirectories& directories,
              Reporter reporter);

  FileService(const FileService&) = delete;
  FileService& operator=(const FileService&) = delete;

  using Completion = std::function<void(const transport::TransferResult&)>;

  /// Sends a file to another peer; reports the outcome to the broker.
  TransferId send_file(PeerId dst, const transport::FileTransferConfig& config,
                       Completion done);

  /// Cancels an outgoing transfer (recorded as a cancellation). A no-op
  /// for unknown or already-finished transfers.
  void cancel(TransferId id);

  /// Scatter distribution: the file's parts are spread round-robin
  /// over `peers` and each peer's share is sent as one concurrent
  /// multi-part transfer — the workload behind the paper's Figure 6.
  struct DistributionResult {
    bool complete = false;
    Seconds started = 0.0;
    Seconds finished = 0.0;
    /// Failed shares handed to a replacement peer (0 on a clean run).
    int failovers = 0;
    struct PeerShare {
      /// Peer that finally held (or last attempted) the share.
      PeerId peer;
      /// Peer the share was first assigned to (== peer when no failover).
      PeerId original;
      int parts = 0;
      Bytes bytes = 0;
      bool complete = false;
      /// Replacement attempts consumed by this share.
      int failovers = 0;
      Seconds petition_time = 0.0;
      Seconds transmission_time = 0.0;
    };
    std::vector<PeerShare> shares;

    [[nodiscard]] Seconds makespan() const noexcept { return finished - started; }
  };
  using DistributionCallback = std::function<void(const DistributionResult&)>;

  /// Asks the overlay for a substitute peer able to take a failed
  /// share of `share_bytes`, never one of `exclude`; answers an
  /// invalid PeerId when nobody qualifies. ClientPeer installs a
  /// broker-backed provider; without one, failover is disabled. The
  /// exclusion list is a view into the distribution's bookkeeping —
  /// copy it if the provider needs it past the call. `trace` is the
  /// failed share's causal context (inactive = untraced): the
  /// replacement petition rides the same chain, so a postmortem shows
  /// the failed share AND the selection that re-homed it.
  using ReplacementProvider = std::function<void(
      Bytes share_bytes, std::span<const PeerId> exclude,
      const obs::trace::TraceContext& trace, std::function<void(PeerId)> done)>;
  void set_replacement_provider(ReplacementProvider provider) {
    replacement_ = std::move(provider);
  }

  /// `base` supplies the protocol knobs; its file_size/parts fields
  /// are overridden per share. `peers` must be non-empty and distinct.
  void distribute(Bytes file_size, int parts, const std::vector<PeerId>& peers,
                  const transport::FileTransferConfig& base, DistributionCallback done,
                  DistributionOptions options = DistributionOptions());

  [[nodiscard]] transport::FileTransferPeer& transfer_peer() noexcept { return peer_; }
  [[nodiscard]] std::uint64_t transfers_started() const noexcept { return started_; }
  [[nodiscard]] std::uint64_t transfers_completed() const noexcept { return completed_; }
  /// Shares re-homed to a replacement peer across all distributions.
  [[nodiscard]] std::uint64_t failovers_attempted() const noexcept { return failovers_; }
  /// Outstanding cancellation markers (bounded by in-flight transfers).
  [[nodiscard]] std::size_t pending_cancellations() const noexcept {
    return cancelled_.size();
  }

  /// Registers the distribution instruments (failovers, backoff
  /// retries, per-distribution makespan) in `registry` and the wrapped
  /// transfer peer's counters alongside. Zero-cost when never called.
  void attach_metrics(obs::MetricRegistry& registry);

  /// Attaches (or detaches with nullptr) the causal-trace recorder and
  /// forwards it to the wrapped transfer peer. Every subsequent
  /// distribute() then mints a fresh TraceId and the whole fan-out —
  /// shares, failovers, transfers, stats feedback — rides that chain.
  void attach_trace(obs::trace::TraceRecorder* recorder) noexcept {
    trace_ = recorder;
    peer_.attach_trace(recorder);
  }

 private:
  /// Cached instrument handles; all null while detached.
  struct Metrics {
    obs::Counter* distributions = nullptr;
    obs::Counter* distributions_complete = nullptr;
    obs::Counter* failovers = nullptr;
    obs::Counter* backoff_retries = nullptr;
    obs::Histogram* makespan_s = nullptr;
  };

  struct DistributionState;

  void launch_share(const std::shared_ptr<DistributionState>& state, std::size_t index);
  void share_finished(const std::shared_ptr<DistributionState>& state, std::size_t index,
                      const transport::TransferResult& result);
  void finalize_share(const std::shared_ptr<DistributionState>& state, std::size_t index);

  [[nodiscard]] sim::Simulator& sim() noexcept;
  [[nodiscard]] net::FlowScheduler& flows() noexcept;

  transport::Endpoint& endpoint_;
  transport::FileTransferPeer peer_;
  Metrics m_;
  obs::trace::TraceRecorder* trace_ = nullptr;
  Reporter reporter_;
  ReplacementProvider replacement_;
  std::set<std::uint64_t> cancelled_;  // TransferId values we cancelled
  std::uint64_t started_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t failovers_ = 0;
};

}  // namespace peerlab::overlay
