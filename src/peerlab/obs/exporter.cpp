#include "peerlab/obs/exporter.hpp"

#include <fstream>
#include <sstream>

#include "peerlab/common/check.hpp"

namespace peerlab::obs {

SnapshotExporter::SnapshotExporter(sim::Simulator& sim, const MetricRegistry& registry)
    : SnapshotExporter(sim, registry, Options()) {}

SnapshotExporter::SnapshotExporter(sim::Simulator& sim, const MetricRegistry& registry,
                                   Options options)
    : sim_(sim), registry_(registry), options_(options) {
  PEERLAB_CHECK_MSG(options_.period > 0.0, "snapshot period must be positive");
  arm();
}

SnapshotExporter::~SnapshotExporter() { timer_.cancel(); }

void SnapshotExporter::arm() {
  timer_ = sim_.schedule_daemon(options_.period, [this] {
    snapshot_now();
    arm();
  });
}

void SnapshotExporter::snapshot_now() {
  const Seconds now = sim_.now();
  for (const MetricRegistry::Entry& e : registry_.entries()) {
    switch (e.kind) {
      case InstrumentKind::kCounter:
        rows_.push_back({now, e.name, "value", static_cast<double>(e.counter->value())});
        break;
      case InstrumentKind::kGauge:
        rows_.push_back({now, e.name, "value", e.gauge->value()});
        break;
      case InstrumentKind::kHistogram: {
        const Histogram& h = *e.histogram;
        rows_.push_back({now, e.name, "count", static_cast<double>(h.count())});
        rows_.push_back({now, e.name, "mean", h.mean()});
        rows_.push_back({now, e.name, "p50", h.quantile(0.50)});
        rows_.push_back({now, e.name, "p90", h.quantile(0.90)});
        rows_.push_back({now, e.name, "p99", h.quantile(0.99)});
        rows_.push_back({now, e.name, "min", h.min()});
        rows_.push_back({now, e.name, "max", h.max()});
        break;
      }
    }
  }
  ++snapshots_;
}

namespace {

// RFC-4180: quote a field when it contains a comma, quote or newline;
// double any embedded quotes.
void csv_field(std::ostream& out, const std::string& s) {
  if (s.find_first_of(",\"\n\r") == std::string::npos) {
    out << s;
    return;
  }
  out << '"';
  for (char c : s) {
    if (c == '"') out << '"';
    out << c;
  }
  out << '"';
}

}  // namespace

std::string SnapshotExporter::csv() const {
  std::ostringstream out;
  out.precision(17);
  out << "time,metric,stat,value\n";
  for (const Row& row : rows_) {
    out << row.time << ',';
    csv_field(out, row.metric);
    out << ',' << row.stat << ',' << row.value << '\n';
  }
  return out.str();
}

void SnapshotExporter::write_csv(const std::string& path) const {
  std::ofstream out(path);
  PEERLAB_CHECK_MSG(out.good(), "cannot open snapshot CSV output path");
  out << csv();
}

std::string SnapshotExporter::json(std::string_view label) const {
  return registry_.json(label);
}

void SnapshotExporter::write_json(const std::string& path, std::string_view label) const {
  std::ofstream out(path);
  PEERLAB_CHECK_MSG(out.good(), "cannot open metrics JSON output path");
  out << json(label);
}

}  // namespace peerlab::obs
