#pragma once

// One entry point per figure of the paper's evaluation (Section 4).
// Each builds fresh worlds per repetition (seeded from RunOptions)
// and returns summary statistics; the bench binaries print the tables
// and verify the shapes. See DESIGN.md §5-6 for the experiment index
// and metric notes.

#include <array>

#include "peerlab/experiments/world.hpp"

namespace peerlab::experiments {

/// One summary per SimpleClient SC1..SC8.
using PerPeer = std::array<sim::Summary, 8>;

// ---- Figure 2: time for a peer to receive a transfer petition ----
[[nodiscard]] PerPeer run_fig2_petition(const RunOptions& options);

// ---- Figure 3: transmission time of a 50 MB file (single part) ----
[[nodiscard]] PerPeer run_fig3_transfer50(const RunOptions& options);

// ---- Figure 4: time to complete the reception of the last MB ----
[[nodiscard]] PerPeer run_fig4_last_mb(const RunOptions& options);

// ---- Figure 5: 100 MB sent whole vs 4 parts vs 16 parts ----
struct Fig5Result {
  PerPeer whole;    // seconds
  PerPeer four;     // seconds
  PerPeer sixteen;  // seconds
};
[[nodiscard]] Fig5Result run_fig5_granularity(const RunOptions& options);

// ---- Figure 6: selection models x granularity ----

struct Fig6Result {
  /// Mean per-part selection-and-dispatch overhead (seconds); see
  /// DESIGN.md §6 for the metric definition.
  std::array<sim::Summary, 3> four_parts;
  std::array<sim::Summary, 3> sixteen_parts;
};
[[nodiscard]] Fig6Result run_fig6_models(const RunOptions& options);

// ---- Figure 7: just execution vs transmission & execution ----
struct Fig7Result {
  PerPeer just_execution;            // seconds
  PerPeer transmission_execution;    // seconds
};
[[nodiscard]] Fig7Result run_fig7_execution(const RunOptions& options);

// ---- shared workload parameters (the paper's) ----
inline constexpr Bytes kFig3FileSize = 50 * kMegabyte;
inline constexpr Bytes kFig5FileSize = 100 * kMegabyte;
/// Figure 7's processing job: sized so a healthy peer takes a few
/// minutes and SC7 tens of minutes (the paper's y-axis range).
inline constexpr GigaCycles kFig7Work = 300.0;
inline constexpr Bytes kFig7InputSize = 100 * kMegabyte;

}  // namespace peerlab::experiments
