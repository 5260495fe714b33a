#include "peerlab/experiments/harness.hpp"

namespace peerlab::experiments {

std::uint64_t repetition_seed(const RunOptions& options, int rep) {
  // Wide spacing so forked per-component streams of adjacent
  // repetitions never collide.
  return options.base_seed + 0x9E3779B9ull * static_cast<std::uint64_t>(rep + 1);
}

void fold_metrics(const RunOptions& options, Repetition& rep) {
  // World::finish stages a registry only while options.metrics is set.
  for (const auto& [registry, suffix] : rep.staged) {
    for (const auto& entry : registry->entries()) {
      const std::string name = entry.name + suffix;
      switch (entry.kind) {
        case obs::InstrumentKind::kCounter:
          options.metrics->counter(name, entry.unit).merge(*entry.counter);
          break;
        case obs::InstrumentKind::kGauge:
          options.metrics->gauge(name, entry.unit).merge(*entry.gauge);
          break;
        case obs::InstrumentKind::kHistogram:
          options.metrics->histogram(name, entry.unit, entry.histogram->options())
              .merge(*entry.histogram);
          break;
      }
    }
  }
  rep.staged.clear();
}

sim::Summary summarize(const std::vector<double>& samples) {
  sim::Summary summary;
  for (const double x : samples) summary.add(x);
  return summary;
}

}  // namespace peerlab::experiments
