// Ablation: how much history does the economic model need? The
// scheduling-based model estimates ready time and service time from
// "historical data kept for the peergroup"; this sweep varies the
// estimator depth and the warm-up volume and reports the quality of
// the resulting placements.

#include "bench_common.hpp"
#include "peerlab/core/economic.hpp"
#include "peerlab/planetlab/deployment.hpp"

using namespace peerlab;
using namespace peerlab::experiments;

namespace {

struct StreamResult {
  int completed = 0;
  double mean_turnaround = 0.0;
  int straggler_picks = 0;
};

StreamResult run_stream(std::uint64_t seed, std::size_t history_depth, int warmup_jobs) {
  sim::Simulator sim(seed);
  planetlab::Deployment dep(sim);
  dep.boot();
  core::EconomicConfig cfg;
  cfg.history_depth = history_depth;
  dep.broker().set_selection_model(std::make_unique<core::EconomicSchedulingModel>(cfg));
  overlay::Primitives api(dep.control());

  // Warm-up: seed the broker's history with real observations.
  for (int w = 0; w < warmup_jobs; ++w) {
    const int target = 1 + (w % 8);
    sim.schedule(static_cast<double>(w) * 150.0, [&, target] {
      overlay::TaskSubmission sub;
      sub.executor = dep.sc_peer(target);
      sub.work = 60.0;
      dep.control().task_service().submit(sub, [](const overlay::TaskOutcome&) {});
    });
  }
  sim.run();

  StreamResult result;
  double turnaround_sum = 0.0;
  constexpr int kJobs = 16;
  const PeerId straggler = dep.sc_peer(7);
  for (int j = 0; j < kJobs; ++j) {
    sim.schedule(sim.now() + static_cast<double>(j) * 90.0, [&, straggler] {
      api.submit_task_auto(120.0, 0, [&, straggler](const overlay::TaskOutcome& o) {
        if (o.executor == straggler) ++result.straggler_picks;
        if (o.accepted && o.ok) {
          ++result.completed;
          turnaround_sum += o.turnaround();
        }
      });
    });
  }
  sim.run();
  if (result.completed > 0) result.mean_turnaround = turnaround_sum / result.completed;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = peerlab::bench::parse_options(argc, argv);
  peerlab::bench::refuse_observability(options, "bench_ablation_history");
  print_figure_header("Ablation", "Economic model: history depth x warm-up volume");

  Table table("16-job stream, economic model (mean of " +
                  std::to_string(options.repetitions) + " runs)",
              {"history depth", "warmup jobs", "completed", "turnaround (s)", "SC7 picks"});
  double cold_turnaround = 0.0, warm_turnaround = 0.0;
  for (const int warmup : {0, 16}) {
    for (const std::size_t depth : {std::size_t{1}, std::size_t{4}, std::size_t{16},
                                    std::size_t{64}}) {
      sim::Summary completed, turnaround, straggler;
      for (int rep = 0; rep < options.repetitions; ++rep) {
        const auto result =
            run_stream(repetition_seed(options, rep) ^ depth, depth, warmup);
        completed.add(result.completed);
        turnaround.add(result.mean_turnaround);
        straggler.add(result.straggler_picks);
      }
      table.add_row({std::to_string(depth), std::to_string(warmup),
                     cell(completed.mean(), 1), cell(turnaround.mean(), 1),
                     cell(straggler.mean(), 1)});
      if (warmup == 0 && depth == 16) cold_turnaround = turnaround.mean();
      if (warmup == 16 && depth == 16) warm_turnaround = turnaround.mean();
    }
  }
  std::printf("%s\n", table.render().c_str());
  table.write_csv("bench_ablation_history.csv");

  bool ok = true;
  ok &= shape_check("warmed-up history does not hurt placement quality",
                    warm_turnaround <= cold_turnaround * 1.5);
  ok &= shape_check("turnarounds are sane", cold_turnaround > 0.0 && warm_turnaround > 0.0);
  return ok ? 0 : 1;
}
