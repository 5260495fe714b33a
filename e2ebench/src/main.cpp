// End-to-end petition benchmark driver.
//
//   e2ebench --workload <paper-sweep|crowd|churn> --seed N --seconds S --trace 0|1
//            [--scale F] [--abandon]
//
// Runs rounds of the seeded workload (see inputs.hpp, workloads.hpp)
// until S host seconds have passed and at least kMinRounds rounds are
// in, checks every round's outputs and that all rounds agree bit for
// bit, and prints
//
//   digest <workload> <seed> <hex>       each petition's peers + completion bits
//   petitions <attempted> <completed>    summed over every round
//   metric <name> <value> <unit>         one line per metric
//
// --trace 0 measures with observability detached and prints the
// end-to-end metrics. --trace 1 alternates detached and traced rounds
// and prints the per-layer metrics plus a per-layer table on stderr.
// Exit code 1 on any violated check, 2 on bad usage. --abandon tears
// every world down mid-flight once traced and once detached, and
// prints nothing but "abandon ok" (the sanitizer self-test).

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "inputs.hpp"
#include "ledger.hpp"
#include "workloads.hpp"

namespace e2ebench {
namespace {

/// Measured rounds per run, at least (per kind when traced).
constexpr std::size_t kMinRounds = 3;
/// Hard cap on measuring, so a run always exits well inside 180 s.
constexpr double kMaxMeasureSeconds = 120.0;
/// Set-up-only rounds before the measured ones: at least the minimum,
/// more while they fit in kSetupSeconds, at most the maximum.
constexpr std::size_t kMinSetupRounds = 6;
constexpr std::size_t kMaxSetupRounds = 60;
constexpr double kSetupSeconds = 2.0;

struct Options {
  std::optional<Workload> workload;
  std::uint64_t seed = 1;
  double seconds = -1.0;  // required, except with --abandon
  bool trace = false;
  double scale = 1.0;
  bool abandon = false;
};

bool parse(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--abandon") {
      options.abandon = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = parse_workload(value);
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else if (arg == "--scale") {
      options.scale = std::strtod(value.c_str(), nullptr);
    } else {
      return false;
    }
  }
  return options.workload.has_value() && options.scale > 0.0 &&
         (options.abandon || options.seconds >= 0.0);
}

template <typename F>
double median_of(const std::vector<RoundResult>& rounds, F&& f) {
  std::vector<double> values;
  values.reserve(rounds.size());
  for (const auto& round : rounds) values.push_back(f(round));
  return median(std::move(values));
}

/// Each part's fastest host time so far, where a part is a unit of work
/// every round repeats bit for bit (a world's set-up, a serving slice).
/// The host's noise only ever slows a part down, and it comes in phases
/// of seconds that a median over a few rounds still straddles; each
/// part's fastest time is the steadiest estimate of the program's own
/// cost, and the finer the parts, the more rounds each fastest time
/// can be drawn from.
class Fastest {
 public:
  /// False, and nothing recorded, when `per_part` has another number of
  /// parts than the first round had.
  bool add(const std::vector<double>& per_part) {
    if (best_.empty()) best_ = per_part;
    if (per_part.size() != best_.size()) return false;
    for (std::size_t i = 0; i < best_.size(); ++i) best_[i] = std::min(best_[i], per_part[i]);
    return true;
  }
  /// Summed over parts.
  [[nodiscard]] double sum() const {
    double total = 0.0;
    for (const double seconds : best_) total += seconds;
    return total;
  }

 private:
  std::vector<double> best_;
};

/// The end-to-end host measurements a run accumulates.
struct Host {
  Fastest setup;
  Fastest serve;
  /// Peak RSS once every world has run once, before the benchmark's own
  /// per-round records pile up.
  double peak_rss_mib = 0.0;
};

double per(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

/// Rounds must agree bit for bit: same inputs, same program.
void check_agreement(const std::vector<RoundResult>& rounds, std::vector<std::string>& out) {
  const RoundResult& first = rounds.front();
  for (std::size_t i = 1; i < rounds.size(); ++i) {
    const RoundResult& r = rounds[i];
    if (r.digest != first.digest || r.latency_s != first.latency_s ||
        r.completed != first.completed || r.events != first.events) {
      out.push_back("round " + std::to_string(i) + " diverged from round 0");
    }
  }
}

void end_to_end(const std::vector<RoundResult>& detached, const Host& host, Reporter& report) {
  const RoundResult& first = detached.front();
  report.rate("petitions_per_s", per(static_cast<double>(first.completed), host.serve.sum()));
  report.time("setup_s", host.setup.sum(), TimeUnit::kSeconds);
  report.mebibytes("peak_rss_mb", host.peak_rss_mib);
  report.ratio("completed_ratio", per(static_cast<double>(first.completed),
                                      static_cast<double>(first.attempted)));
  report.time("petition_sim_s_p50", quantile(first.latency_s, 0.50), TimeUnit::kSeconds);
}

/// Host seconds a traced round spent in each layer's own spans
/// (exclusive time), plus what no span covers.
struct Layers {
  double planetlab, warmup, sim, net, overlay, jxta, other;
};

Layers layers_of(const RoundResult& r) {
  Layers l{};
  l.planetlab = r.build_s + r.value("profile.bench.boot.self_s") + r.teardown_s;
  l.warmup = r.value("profile.bench.warmup.self_s");
  l.sim = r.value("profile.bench.slice.self_s");
  l.net = r.value("profile.flows.relevel.self_s") + r.value("profile.flows.waterfill.self_s");
  l.overlay = r.value("profile.selection.rank.self_s") + r.value("profile.bench.issue.self_s") +
              r.value("profile.bench.probe.snapshot.self_s");
  l.jxta = r.value("profile.bench.probe.rendezvous.self_s");
  l.other = r.total_s - (l.planetlab + l.warmup + l.sim + l.net + l.overlay + l.jxta);
  return l;
}

void per_layer(const std::vector<RoundResult>& detached, const std::vector<RoundResult>& traced,
               const std::vector<RoundResult>& setups, Reporter& report) {
  const RoundResult& t = traced.front();
  const double petitions = static_cast<double>(t.attempted);

  // sim: host cost of the event loop, measured detached.
  report.count("sim.events", static_cast<double>(t.events));
  report.time("sim.host_ns_per_event", median_of(detached, [](const RoundResult& r) {
                return per(r.serve_s, static_cast<double>(r.events));
              }), TimeUnit::kNanoseconds);
  std::vector<double> slices;
  for (const auto& r : detached) slices.insert(slices.end(), r.slice_s.begin(), r.slice_s.end());
  report.time("sim.slice_ms_p50", quantile(slices, 0.50), TimeUnit::kMilliseconds);
  report.time("sim.slice_ms_p99", quantile(slices, 0.99), TimeUnit::kMilliseconds);
  report.count("sim.pending_peak", static_cast<double>(t.pending_peak));
  // The simulated-time tail: deterministic per seed, but it straddles
  // protocol-timeout steps and flips from seed to seed, too unsteady to
  // carry a bound (WORKLOADS.md), so it is reported here.
  report.time("petition_sim_s_p90", quantile(t.latency_s, 0.90), TimeUnit::kSeconds);
  report.time("petition_sim_s_p99", quantile(t.latency_s, 0.99), TimeUnit::kSeconds);

  // planetlab: world build and boot, measured detached.
  report.time("planetlab.build_s", median_of(setups, [](const RoundResult& r) {
                return r.build_s;
              }), TimeUnit::kSeconds);
  report.time("planetlab.boot_s", median_of(setups, [](const RoundResult& r) {
                return r.boot_s;
              }), TimeUnit::kSeconds);

  // net
  report.count("net.flows.started", t.value("net.flows.started"));
  report.count("net.flows.flows_releveled", t.value("net.flows.flows_releveled"));
  report.time("net.flows.relevel.self_s", median_of(traced, [](const RoundResult& r) {
                return r.value("profile.flows.relevel.self_s");
              }), TimeUnit::kSeconds);
  report.time("net.flows.waterfill.self_s", median_of(traced, [](const RoundResult& r) {
                return r.value("profile.flows.waterfill.self_s");
              }), TimeUnit::kSeconds);
  report.count("net.flows.aborted", t.value("net.flows.aborted"));
  report.count("net.datagrams.sent", t.value("net.datagrams.sent"));

  // transport
  report.count("transport.transfers.failed", t.value("transport.transfers.failed"));
  report.count("transport.bytes.confirmed", t.value("transport.bytes.confirmed"), "B");

  // jxta
  report.count("jxta.rendezvous_entries", static_cast<double>(t.rendezvous_peak));

  // overlay
  report.count("overlay.heartbeats", t.value("overlay.heartbeats"));
  report.count("overlay.stats_reports", t.value("overlay.stats_reports"));
  report.time("overlay.selection.rank_us_p50", median_of(traced, [](const RoundResult& r) {
                return r.value("profile.selection.rank.wall_s.p50");
              }), TimeUnit::kMicroseconds);
  report.time("overlay.selection.rank_us_p99", median_of(traced, [](const RoundResult& r) {
                return r.value("profile.selection.rank.wall_s.p99");
              }), TimeUnit::kMicroseconds);
  std::vector<double> snapshots;
  for (const auto& r : traced) {
    snapshots.insert(snapshots.end(), r.snapshot_s.begin(), r.snapshot_s.end());
  }
  report.time("overlay.snapshot_us", median(snapshots), TimeUnit::kMicroseconds);
  report.count("overlay.failovers", t.value("overlay.failovers"));
  report.count("overlay.backoff_retries", t.value("overlay.backoff_retries"));
  report.count("overlay.selection_reissues", t.value("overlay.selection_reissues"));

  // core: the broker's candidate index
  report.count("selection.index.rekeys_per_petition",
               per(t.value("selection.index.rekeys"), petitions), "1/petition");
  report.count("selection.index.pulls_per_petition",
               per(t.value("selection.index.pulls"), petitions), "1/petition");
  report.count("selection.index.dense_sweeps", t.value("selection.index.dense_sweeps"));
  report.count("selection.index.rebuilds", t.value("selection.index.rebuilds"));
  report.ratio("selection.index.fast_path_ratio",
               per(t.value("selection.index.fast_path"), t.value("overlay.selections_served")));

  // econ, defenses, adversaries, faults
  report.ratio("econ.admitted_ratio",
               per(t.value("econ.admitted"),
                   t.value("econ.admitted") + t.value("econ.rejected")));
  report.count("econ.exhausted", t.value("econ.exhausted"));
  report.count("reputation.quarantines", t.value("reputation.quarantines"));
  report.count("adversary.refusals", t.value("adversary.refusals"));
  report.count("faults.crashes", t.value("faults.crashes"));

  // obs
  report.ratio("obs.overhead_ratio",
               per(median_of(traced, [](const RoundResult& r) { return r.total_s; }),
                   median_of(detached, [](const RoundResult& r) { return r.total_s; })));
  report.ratio("unattributed_share", median_of(traced, [](const RoundResult& r) {
                 return per(layers_of(r).sim, r.total_s);
               }));
}

void print_layer_table(Workload workload, const std::vector<RoundResult>& detached,
                       const std::vector<RoundResult>& traced) {
  const double total = median_of(traced, [](const RoundResult& r) { return r.total_s; });
  const double bare = median_of(detached, [](const RoundResult& r) { return r.total_s; });
  const auto row = [&](const char* layer, const char* what, double Layers::*field) {
    const double s = median_of(traced, [&](const RoundResult& r) { return layers_of(r).*field; });
    std::fprintf(stderr, "  %-10s %10.4f s %6.1f%%  %s\n", layer, s, 100.0 * per(s, total), what);
  };
  std::fprintf(stderr, "per-layer self time, %s (median of %zu traced rounds, %.4f s each)\n",
               to_string(workload), traced.size(), total);
  row("planetlab", "world build + boot + teardown", &Layers::planetlab);
  row("warm-up", "history warm-up of synthetic worlds (event loop)", &Layers::warmup);
  row("net", "flows.relevel + flows.waterfill", &Layers::net);
  row("overlay", "selection.rank + petition issue + snapshot probe", &Layers::overlay);
  row("jxta", "rendezvous probe", &Layers::jxta);
  row("sim", "event loop outside any span (unattributed)", &Layers::sim);
  row("other", "benchmark bookkeeping", &Layers::other);
  std::fprintf(stderr, "  %-10s %10.4f s %6.1f%%  traced minus detached round time\n", "obs",
               total - bare, 100.0 * per(total - bare, total));
}

int run(const Options& options) {
  const Inputs inputs = generate(*options.workload, options.seed, options.scale);
  if (options.abandon) {
    for (const bool traced : {true, false}) {
      RoundOptions round;
      round.traced = traced;
      round.abandon = true;
      static_cast<void>(run_round(inputs, round));
    }
    std::printf("abandon ok\n");
    return 0;
  }

  std::vector<RoundResult> detached;
  std::vector<RoundResult> traced;
  const auto begun = Clock::now();
  // Set-up is short next to serving; extra set-up-only rounds give it
  // enough samples.
  std::vector<RoundResult> setups;
  std::vector<std::string> violations;
  Host host;
  const auto record_setup = [&setups, &host, &violations](const RoundResult& r) {
    RoundResult setup;
    setup.build_s = r.build_s;
    setup.boot_s = r.boot_s;
    setups.push_back(std::move(setup));
    if (!host.setup.add(r.world_setup_s)) violations.push_back("rounds built different worlds");
  };
  while (setups.size() < kMinSetupRounds ||
         (seconds_since(begun) < kSetupSeconds && setups.size() < kMaxSetupRounds)) {
    RoundOptions round;
    round.setup_only = true;
    const RoundResult r = run_round(inputs, round);
    violations.insert(violations.end(), r.violations.begin(), r.violations.end());
    record_setup(r);
  }
  while (true) {
    const double elapsed = seconds_since(begun);
    const bool have_traced = !options.trace || traced.size() >= kMinRounds;
    const bool have_rounds = detached.size() >= kMinRounds && have_traced;
    if (have_rounds && elapsed >= options.seconds) break;
    if (!detached.empty() && (!options.trace || !traced.empty()) &&
        elapsed >= kMaxMeasureSeconds) {
      break;
    }
    RoundOptions round;
    round.traced = options.trace && traced.size() < detached.size();
    (round.traced ? traced : detached).push_back(run_round(inputs, round));
    if (round.traced) continue;
    record_setup(detached.back());
    if (!host.serve.add(detached.back().slice_s)) {
      violations.push_back("rounds served in different numbers of slices");
    }
    if (detached.size() == 1) host.peak_rss_mib = peak_rss_mib();
  }

  std::vector<RoundResult> all = detached;
  all.insert(all.end(), traced.begin(), traced.end());
  for (const auto& r : all) violations.insert(violations.end(), r.violations.begin(), r.violations.end());
  check_agreement(all, violations);

  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  for (const auto& r : all) {
    attempted += r.attempted;
    completed += r.completed;
  }
  std::printf("digest %s %" PRIu64 " %016" PRIx64 "\n", to_string(*options.workload),
              options.seed, detached.front().digest);
  std::printf("petitions %" PRIu64 " %" PRIu64 "\n", attempted, completed);
  Reporter report;
  if (options.trace) {
    per_layer(detached, traced, setups, report);
    print_layer_table(*options.workload, detached, traced);
  } else {
    end_to_end(detached, host, report);
  }
  report.print();
  std::fprintf(stderr, "%zu detached + %zu traced rounds in %.2f s\n", detached.size(),
               traced.size(), seconds_since(begun));
  for (const auto& v : violations) std::fprintf(stderr, "violation: %s\n", v.c_str());
  return violations.empty() ? 0 : 1;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  e2ebench::Options options;
  if (!e2ebench::parse(argc, argv, options)) {
    std::fprintf(stderr,
                 "usage: e2ebench --workload <paper-sweep|crowd|churn> --seed N --seconds S "
                 "--trace 0|1 [--scale F] [--abandon]\n");
    return 2;
  }
  return e2ebench::run(options);
}
