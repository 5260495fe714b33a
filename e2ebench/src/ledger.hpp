#pragma once

// Measurement plumbing for the end-to-end petition benchmark: the host
// clock, order statistics, the petition digest, peak memory, and the
// reporter that prints every metric as `metric <name> <value> <unit>`.
//
// Every host timing is taken as seconds of std::chrono::steady_clock
// and converted to its reported unit in exactly one place
// (Reporter::time), so a unit label can never disagree with the scale
// of its value.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace e2ebench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Nearest-rank quantile, q in [0, 1]: the smallest sample with at
/// least q of the samples at or below it. 0 for an empty set.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Peak resident set size of this process so far, in MiB.
[[nodiscard]] double peak_rss_mib();

/// FNV-1a over 64-bit words; doubles contribute their bit patterns, so
/// any change in a simulated time changes the digest.
class Digest {
 public:
  void add(std::uint64_t word) noexcept;
  void add(double value) noexcept;
  [[nodiscard]] std::uint64_t value() const noexcept { return state_; }

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ull;
};

/// Time units a host timing may be reported in.
enum class TimeUnit { kSeconds, kMilliseconds, kMicroseconds, kNanoseconds };

/// Collects metrics and prints them one per line, in insertion order.
class Reporter {
 public:
  /// A host or simulated duration measured in seconds, reported in
  /// `unit` (the value is scaled here, never by the caller).
  void time(const std::string& name, double seconds, TimeUnit unit);
  /// Events per second.
  void rate(const std::string& name, double per_second);
  void count(const std::string& name, double value, const std::string& unit = "count");
  void ratio(const std::string& name, double value);
  void mebibytes(const std::string& name, double value);

  /// Writes `metric <name> <value> <unit>` lines to stdout.
  void print() const;

 private:
  struct Line {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Line> lines_;
};

}  // namespace e2ebench
