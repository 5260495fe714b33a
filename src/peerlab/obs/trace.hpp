#pragma once

// Causal petition tracing (DESIGN.md §16). A TraceRecorder collects
// structured, sim-time-stamped TraceRecords into per-node rings so a
// whole causal chain — petition minted by FileService, broker ranking,
// candidate-index pulls, confirms/refusals, flow lifecycle, failover
// re-homing, stats feedback — can be reconstructed for one TraceId.
//
// How it stays cheap and reproducible:
//  * per-node rings of POD TraceRecords, preallocated on first use per
//    node and then alloc-free: emit() is a couple of stores plus the
//    global sequence increment, never a heap touch;
//  * one global monotonic sequence number totally orders the merged
//    stream, which (with the deterministic sequential trace/span ids)
//    makes same-seed trace dumps byte-identical;
//  * detached recorders cost one pointer test at every site, matching
//    the MetricRegistry attachment rule, so untraced figure runs stay
//    byte-identical to pristine builds.
//
// The recorder doubles as a flight recorder: arm_postmortem() names a
// JSON path, and on crash, quarantine, watchdog violation, or any
// fired PEERLAB_CHECK the last N retained events (filtered to the
// implicated trace ids when known) are dumped beside the metrics
// snapshot. scripts/trace_analyze.py consumes both the JSONL dump and
// the postmortem file.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "peerlab/common/ids.hpp"
#include "peerlab/common/units.hpp"
#include "peerlab/obs/trace_context.hpp"

namespace peerlab::sim {
class Simulator;
}  // namespace peerlab::sim

namespace peerlab::obs {
class Counter;
class MetricRegistry;
}  // namespace peerlab::obs

namespace peerlab::obs::trace {

/// Stage markers on the causal chain. Stable names (to_string) are the
/// dump/analyzer contract; renames are schema changes.
enum class TraceKind : std::uint8_t {
  // Distribution lifecycle (FileService).
  kDistStart,
  kDistDone,
  kShareLaunch,
  kShareFailover,
  kShareGaveUp,
  // Selection path (client <-> broker).
  kSelectRequest,
  kSelectServe,
  kSelectRank,
  kIndexPull,
  kIndexAudit,
  kReputationExclude,
  /// Econ engine admission verdict: value = feasible candidates, aux =
  /// candidates appraised (0 when the petition was exhausted — every
  /// candidate blew its deadline or budget).
  kEconRank,
  kSelectDeliver,
  kSelectFail,
  kSelectReissue,
  // Transfer protocol (FileTransferPeer).
  kPetitionSend,
  kPetitionRecv,
  kPetitionRefuse,
  kPetitionAck,
  kPartSend,
  kPartLost,
  kPartDelivered,
  kConfirmSend,
  kConfirmWithheld,
  kConfirmDelayed,
  kConfirmRecv,
  kConfirmQuery,
  kTransferDone,
  kTransferFail,
  kTransferCancel,
  // Stats feedback (client -> broker reputation/registry).
  kStatsReport,
  kStatsApply,
  // Transport datagrams carrying an active context.
  kMsgSend,
  kMsgDeliver,
  // Flow lifecycle and scheduler re-levels (ambient: a = flow id).
  kFlowStart,
  kFlowFinish,
  kFlowAbort,
  kRelevel,
  // Faults and membership (ambient).
  kCrash,
  kRestart,
  kPartitionCut,
  kPartitionHeal,
  kBrownout,
  kRehome,
  kFailover,
  kQuarantine,
  // Watchdog verdicts.
  kViolation,
};

[[nodiscard]] const char* to_string(TraceKind kind) noexcept;

/// Failure codes carried in TraceRecord::b by terminal transfer events,
/// mapping FileTransferPeer's failure strings to stable numbers.
enum class TransferFailure : std::uint8_t {
  kNone = 0,
  kPetitionUnanswered = 1,
  kPartRetransmission = 2,
  kConfirmationLost = 3,
  kCancelled = 4,
  kOther = 5,
};

[[nodiscard]] TransferFailure transfer_failure_code(const std::string& failure) noexcept;

/// One event. POD; rings store these by value.
struct TraceRecord {
  Seconds time = 0.0;
  std::uint64_t seq = 0;    // global emission order (deterministic)
  std::uint64_t trace = 0;  // 0 = ambient event
  std::uint64_t a = 0;      // kind-specific (correlation, peer, flow...)
  std::uint64_t b = 0;      // kind-specific (part index, size, code...)
  NodeId node;
  std::uint32_t span = 0;
  std::uint32_t parent = 0;  // parent span (0 = root / unknown)
  TraceKind kind = TraceKind::kDistStart;
};

class TraceRecorder {
 public:
  struct Options {
    /// Per-node ring capacity (records). A node's ring starts small
    /// and doubles up to this cap as it fills (amortized O(1) per
    /// emit, so a mostly-idle node never pays for the full ring);
    /// at capacity, emits overwrite oldest-first and count as drops.
    std::size_t ring_capacity = 8192;
    /// Events (merged, newest-first window) included in a postmortem.
    std::size_t postmortem_events = 256;
  };

  explicit TraceRecorder(sim::Simulator& sim);
  TraceRecorder(sim::Simulator& sim, Options options);
  ~TraceRecorder();

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  // --- id minting (deterministic: n-th mint is always n) ------------
  [[nodiscard]] std::uint64_t mint() noexcept { return ++last_trace_; }
  [[nodiscard]] std::uint32_t new_span() noexcept { return ++last_span_; }
  /// Fresh root context: new trace, new root span, zero hops.
  [[nodiscard]] TraceContext root() noexcept;
  /// Child context: same trace, fresh span, same hop count.
  [[nodiscard]] TraceContext child_of(const TraceContext& parent) noexcept;

  // --- emission -----------------------------------------------------
  /// Records an event on `ctx`'s chain. `parent` is the parent span id
  /// when the caller just opened a child span (0 otherwise).
  void emit(NodeId node, TraceKind kind, const TraceContext& ctx, std::uint64_t a = 0,
            std::uint64_t b = 0, std::uint32_t parent = 0);
  /// Records an event outside any chain (faults, re-levels, elections).
  void emit_ambient(NodeId node, TraceKind kind, std::uint64_t a = 0, std::uint64_t b = 0);

  /// Online consumer (the invariant watchdog). Called synchronously
  /// after each record is stored; at most one subscriber.
  class Subscriber {
   public:
    virtual ~Subscriber() = default;
    virtual void on_trace(const TraceRecord& record) = 0;
  };
  void set_subscriber(Subscriber* subscriber) noexcept { subscriber_ = subscriber; }

  /// Current sim time (convenience for subscribers).
  [[nodiscard]] Seconds now() const;

  // --- accounting ---------------------------------------------------
  [[nodiscard]] std::uint64_t recorded() const noexcept { return recorded_; }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }
  [[nodiscard]] std::uint64_t traces_minted() const noexcept { return last_trace_; }

  /// Registers trace.* instruments; emission then also bumps them.
  void attach_metrics(MetricRegistry& registry);

  // --- inspection / dumps -------------------------------------------
  /// All retained records, merged across node rings in emission order.
  [[nodiscard]] std::vector<TraceRecord> events() const;
  /// Retained records of one trace, in emission order.
  [[nodiscard]] std::vector<TraceRecord> chain(std::uint64_t trace) const;

  /// Byte-stable JSONL dump: a schema header line, then one record per
  /// line in emission order. Same-seed runs produce identical bytes.
  [[nodiscard]] std::string jsonl() const;
  void write_jsonl(const std::string& path) const;

  // --- flight recorder ----------------------------------------------
  /// Arms postmortem dumping: the first trigger writes `path`; later
  /// triggers are counted but do not overwrite the earliest failure.
  /// Also installs the PEERLAB_CHECK failure observer so any fired
  /// assertion dumps before the InvariantError unwinds.
  void arm_postmortem(std::string path);
  /// Metrics registry whose snapshot is embedded in postmortems.
  void set_metrics_snapshot(const MetricRegistry* registry) noexcept { snapshot_ = registry; }
  /// Dumps the last postmortem_events retained events — filtered to
  /// `traces` when non-empty — with `reason`/`detail` and the metrics
  /// snapshot. No-op (beyond counting) when unarmed or already fired.
  void postmortem(const char* reason, const char* detail = "",
                  const std::vector<std::uint64_t>& traces = {});
  [[nodiscard]] std::uint64_t postmortems() const noexcept { return postmortems_; }
  [[nodiscard]] const std::string& postmortem_path() const noexcept { return postmortem_path_; }

 private:
  struct Ring {
    std::vector<TraceRecord> slots;  // sized to capacity at creation
    std::size_t size = 0;
    std::size_t head = 0;  // oldest slot once full
  };

  Ring& ring_for(NodeId node);
  void store(const TraceRecord& record);

  sim::Simulator& sim_;
  Options options_;
  std::vector<std::unique_ptr<Ring>> rings_;  // indexed by node id value
  Subscriber* subscriber_ = nullptr;
  std::uint64_t last_trace_ = 0;
  std::uint32_t last_span_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t recorded_ = 0;
  std::uint64_t dropped_ = 0;
  // Metrics handles (null until attach_metrics).
  Counter* events_counter_ = nullptr;
  Counter* drop_counter_ = nullptr;
  Counter* trace_counter_ = nullptr;
  // Flight recorder.
  std::string postmortem_path_;
  bool postmortem_armed_ = false;
  bool postmortem_written_ = false;
  std::uint64_t postmortems_ = 0;
  const MetricRegistry* snapshot_ = nullptr;
};

}  // namespace peerlab::obs::trace
