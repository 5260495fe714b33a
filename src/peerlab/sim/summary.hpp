#pragma once

// Streaming summary statistics, used by the experiment harness to
// aggregate repetition results.

#include <cstddef>

namespace peerlab::sim {

/// Online mean/variance (Welford) plus min/max. O(1) per sample.
class Summary {
 public:
  void add(double x) noexcept;
  void merge(const Summary& other) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] double mean() const noexcept { return count_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }
  [[nodiscard]] double sum() const noexcept { return mean_ * static_cast<double>(count_); }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace peerlab::sim
