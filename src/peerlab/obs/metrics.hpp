#pragma once

// Unified metrics: a MetricRegistry owning typed instruments.
//
// Subsystems register an instrument once by name/unit and keep the
// returned handle (a stable pointer); the hot-path update is then an
// array increment with no lookup. Attachment is zero-cost when
// detached: an instrumented subsystem holds null handles until a
// registry is attached, and every record site is gated on one pointer
// test.
//
// Instruments:
//  * Counter   — monotonic 64-bit count (datagrams sent, failovers).
//  * Gauge     — last-written double plus a running sum, for level
//                quantities (brownout seconds, active flows).
//  * Histogram — log-bucketed distribution with a *fixed* bucket array
//                (HDR-style: power-of-two octaves split into linear
//                sub-buckets), exact count/sum/min/max and
//                p50/p90/p99 readout. record() never allocates.
//
// The registry is single-threaded like the simulation that feeds it;
// cross-repetition aggregation goes through merge() under the caller's
// lock (see experiments::harness).

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace peerlab::obs {

class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept { value_ += n; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }
  void merge(const Counter& other) noexcept { value_ += other.value_; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void set(double v) noexcept { value_ = v; }
  void add(double v) noexcept { value_ += v; }
  [[nodiscard]] double value() const noexcept { return value_; }
  /// Cross-run aggregation sums: gauges in this codebase are
  /// accumulated level-seconds (brownout time), not instantaneous
  /// readings, so the sum is the meaningful combination.
  void merge(const Gauge& other) noexcept { value_ += other.value_; }

 private:
  double value_ = 0.0;
};

/// Log-bucketed histogram. Buckets cover [lo, hi): each power-of-two
/// octave starting at `lo` is split into `sub_buckets` linear
/// sub-buckets, so relative resolution is ~1/sub_buckets everywhere.
/// Samples below `lo` land in a dedicated underflow bucket; samples at
/// or above `hi` in an overflow bucket — totals are conserved. The
/// bucket array is sized once at construction; record() is a couple of
/// flops plus an array increment.
class Histogram {
 public:
  struct Options {
    double lo = 1e-6;     // smallest resolvable value (first octave base)
    double hi = 1e6;      // values >= hi clamp into the overflow bucket
    int sub_buckets = 8;  // linear sub-buckets per octave
  };

  Histogram();
  explicit Histogram(Options options);

  void record(double v) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  [[nodiscard]] double min() const noexcept { return count_ == 0 ? 0.0 : min_; }
  [[nodiscard]] double max() const noexcept { return count_ == 0 ? 0.0 : max_; }

  /// Quantile estimate, q in [0, 1]: finds the bucket holding the
  /// q-th sample and interpolates linearly inside it. Exact for the
  /// min (q where the first sample sits) up to bucket resolution;
  /// returns 0 for an empty histogram.
  [[nodiscard]] double quantile(double q) const noexcept;

  /// Merges another histogram recorded with the same Options; checked.
  void merge(const Histogram& other);

  // Bucket introspection (tests, exporters). Index 0 is the underflow
  // bucket (< lo); the last index is the overflow bucket (>= hi).
  [[nodiscard]] std::size_t bucket_count() const noexcept { return counts_.size(); }
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const noexcept { return counts_[i]; }
  /// Index of the bucket `v` lands in.
  [[nodiscard]] std::size_t bucket_index(double v) const noexcept;
  /// Inclusive lower / exclusive upper value bound of bucket `i`.
  [[nodiscard]] double bucket_lo(std::size_t i) const noexcept;
  [[nodiscard]] double bucket_hi(std::size_t i) const noexcept;

  [[nodiscard]] const Options& options() const noexcept { return options_; }

 private:
  Options options_;
  int octaves_ = 0;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

enum class InstrumentKind : std::uint8_t { kCounter, kGauge, kHistogram };

[[nodiscard]] const char* to_string(InstrumentKind kind) noexcept;

/// Owns every instrument of one measured world. Instruments are
/// registered once by name (re-requesting the same name returns the
/// same instrument; requesting it as a different kind is an invariant
/// error) and live at stable addresses for the registry's lifetime.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  Counter& counter(std::string_view name, std::string_view unit = "");
  Gauge& gauge(std::string_view name, std::string_view unit = "");
  Histogram& histogram(std::string_view name, std::string_view unit = "",
                       Histogram::Options options = Histogram::Options());

  /// Lookup without creating; nullptr when absent or a different kind.
  [[nodiscard]] const Counter* find_counter(std::string_view name) const noexcept;
  [[nodiscard]] const Gauge* find_gauge(std::string_view name) const noexcept;
  [[nodiscard]] const Histogram* find_histogram(std::string_view name) const noexcept;

  /// Folds another registry in: same-named instruments combine
  /// (counters/gauges add, histograms merge), unseen ones are created.
  /// This is how per-repetition registries aggregate into one.
  void merge(const MetricRegistry& other);

  struct Entry {
    std::string name;
    std::string unit;
    InstrumentKind kind;
    // Exactly one of these is non-null, matching `kind`.
    const Counter* counter = nullptr;
    const Gauge* gauge = nullptr;
    const Histogram* histogram = nullptr;
  };
  /// Entries in registration order (deterministic export layout).
  [[nodiscard]] std::vector<Entry> entries() const;
  [[nodiscard]] std::size_t size() const noexcept { return order_.size(); }

  /// Final summary as JSON: a flat "metrics" map (counters and gauges
  /// by name; histograms expanded to name.count/.mean/.p50/.p90/.p99/
  /// .min/.max) compatible with scripts/bench_compare.py snapshots,
  /// plus a "histograms" object with the full readout per histogram.
  [[nodiscard]] std::string json(std::string_view label = "") const;
  void write_json(const std::string& path, std::string_view label = "") const;

  /// Plain-text instrument inventory, one "name<TAB>kind<TAB>unit"
  /// line per instrument in registration order. docs/METRICS.md is
  /// diffed against this dump (tests/obs/metrics_doc_test), so the
  /// catalogue cannot silently drift from the code.
  [[nodiscard]] std::string describe() const;

 private:
  static constexpr std::size_t kUnassigned = static_cast<std::size_t>(-1);

  struct Slot {
    std::string name;
    std::string unit;
    InstrumentKind kind;
    std::size_t index = kUnassigned;  // into the per-kind storage below
  };

  Slot& slot_for(std::string_view name, std::string_view unit, InstrumentKind kind);

  std::map<std::string, Slot, std::less<>> by_name_;
  std::vector<const Slot*> order_;
  // Stable storage: unique_ptr per instrument so handles never move.
  std::vector<std::unique_ptr<Counter>> counters_;
  std::vector<std::unique_ptr<Gauge>> gauges_;
  std::vector<std::unique_ptr<Histogram>> histograms_;
};

}  // namespace peerlab::obs
