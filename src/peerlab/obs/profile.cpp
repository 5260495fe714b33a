#include "peerlab/obs/profile.hpp"

#include <algorithm>
#include <cstdio>
#include <vector>

namespace peerlab::obs {

WallProfiler::Site& WallProfiler::site(std::string_view name) {
  auto it = sites_.find(name);
  if (it != sites_.end()) return it->second;
  Histogram::Options opts;
  opts.lo = 1e-9;  // spans range from sub-microsecond re-levels to whole runs
  opts.hi = 1e3;
  Site s;
  s.wall = &registry_->histogram("profile." + std::string(name) + ".wall_s", "s", opts);
  s.self = &registry_->gauge("profile." + std::string(name) + ".self_s", "s");
  return sites_.emplace(std::string(name), s).first->second;
}

std::string profile_table(const MetricRegistry& registry) {
  struct Row {
    std::string site;
    std::uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
    double mean_s = 0.0;
    double p99_s = 0.0;
  };
  constexpr std::string_view kPrefix = "profile.";
  constexpr std::string_view kWall = ".wall_s";
  std::vector<Row> rows;
  for (const MetricRegistry::Entry& e : registry.entries()) {
    if (e.kind != InstrumentKind::kHistogram) continue;
    if (e.name.rfind(kPrefix, 0) != 0) continue;
    // Accept `profile.<site>.wall_s` and the merged per-variant form
    // `profile.<site>.wall_s<suffix>` that experiments::fold_metrics
    // produces (e.g. `...wall_s.economic`); the suffix stays part of
    // the displayed site so per-variant rows remain distinct.
    const std::size_t wall_pos = e.name.find(kWall, kPrefix.size());
    if (wall_pos == std::string::npos) continue;
    const std::string site = e.name.substr(kPrefix.size(), wall_pos - kPrefix.size());
    const std::string suffix = e.name.substr(wall_pos + kWall.size());
    if (site.empty() || (!suffix.empty() && suffix.front() != '.')) continue;
    Row row;
    row.site = site + suffix;
    row.count = e.histogram->count();
    row.total_s = e.histogram->sum();
    row.mean_s = e.histogram->mean();
    row.p99_s = e.histogram->quantile(0.99);
    const Gauge* self =
        registry.find_gauge(std::string(kPrefix) + site + ".self_s" + suffix);
    row.self_s = self != nullptr ? self->value() : row.total_s;
    rows.push_back(std::move(row));
  }
  if (rows.empty()) return "";
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.self_s > b.self_s; });

  std::size_t width = 4;  // "site"
  for (const Row& r : rows) width = std::max(width, r.site.size());
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-*s %12s %12s %12s %12s %12s\n",
                static_cast<int>(width), "site", "count", "total_s", "self_s",
                "mean_us", "p99_us");
  out += line;
  for (const Row& r : rows) {
    std::snprintf(line, sizeof(line), "%-*s %12llu %12.6f %12.6f %12.3f %12.3f\n",
                  static_cast<int>(width), r.site.c_str(),
                  static_cast<unsigned long long>(r.count), r.total_s, r.self_s,
                  r.mean_s * 1e6, r.p99_s * 1e6);
    out += line;
  }
  return out;
}

}  // namespace peerlab::obs
