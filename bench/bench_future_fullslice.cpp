// Future work (Section 5): "extend the empirical study ... by using a
// larger number of peer nodes" and "measure the peer selection effect
// on real P2P large scale applications". This bench deploys the full
// 25-node Table-1 slice (with two federated brokers) and runs a
// 60-job application stream under each selection model.

#include <map>

#include "bench_common.hpp"

using namespace peerlab;
using namespace peerlab::experiments;

namespace {

struct StreamResult {
  int completed = 0;
  double mean_turnaround = 0.0;
  double makespan = 0.0;
  int distinct_executors = 0;
};

constexpr Model kModels[4] = {Model::kBlind, Model::kEconomic, Model::kSamePriority,
                              Model::kHybrid};

StreamResult run_stream(const RunOptions& options, std::uint64_t seed, int model) {
  planetlab::DeploymentOptions opts;
  opts.full_slice = true;
  opts.brokers = 2;
  opts.boot_time = 90.0;
  World world(options, seed, opts);
  sim::Simulator& sim = world.sim();
  world.dep().boot();
  world.bind(kModels[model]);
  overlay::Primitives api(world.dep().control());

  StreamResult result;
  double turnaround_sum = 0.0;
  std::map<PeerId, int> executors;
  constexpr int kJobs = 60;
  for (int j = 0; j < kJobs; ++j) {
    sim.schedule(static_cast<double>(j) * 20.0, [&] {
      api.submit_task_auto(90.0, megabytes(5.0), [&](const overlay::TaskOutcome& o) {
        if (o.accepted && o.ok) {
          ++result.completed;
          turnaround_sum += o.turnaround();
          result.makespan = std::max(result.makespan, o.completed);
          ++executors[o.executor];
        }
      });
    });
  }
  world.run();
  if (result.completed > 0) {
    result.mean_turnaround = turnaround_sum / result.completed;
  }
  result.distinct_executors = static_cast<int>(executors.size());
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  auto options = peerlab::bench::parse_options(argc, argv);
  if (options.repetitions > 3) options.repetitions = 3;  // 25-node worlds are heavier
  print_figure_header("Future work", "Selection models on the full 25-node slice");

  const char* names[4] = {"blind", "economic", "data-evaluator", "hybrid"};
  Table table("60-job stream, 25 peers, 2 federated brokers (mean of " +
                  std::to_string(options.repetitions) + " runs)",
              {"model", "completed", "mean turnaround (s)", "makespan (min)",
               "distinct executors"});
  double best = 1e18, worst = 0.0, min_completed = 1e18;
  for (int m = 0; m < 4; ++m) {
    sim::Summary completed, turnaround, makespan, spread;
    for (int rep = 0; rep < options.repetitions; ++rep) {
      const auto r = run_stream(options, repetition_seed(options, rep) + m, m);
      completed.add(r.completed);
      turnaround.add(r.mean_turnaround);
      makespan.add(to_minutes(r.makespan));
      spread.add(r.distinct_executors);
    }
    table.add_row({names[m], cell(completed.mean(), 1), cell(turnaround.mean(), 1),
                   cell(makespan.mean(), 1), cell(spread.mean(), 1)});
    best = std::min(best, turnaround.mean());
    worst = std::max(worst, turnaround.mean());
    min_completed = std::min(min_completed, completed.mean());
  }
  std::printf("%s\n", table.render().c_str());
  table.write_csv("bench_future_fullslice.csv");

  // The paper's conclusion, at scale: the selection model materially
  // changes what the application feels — and the overlay absorbs the
  // load under every model.
  bool ok = true;
  ok &= shape_check("every model completes (nearly) the whole stream",
                    min_completed >= 54.0);
  ok &= shape_check("model choice changes mean turnaround by >1.3x (measured " +
                        cell(worst / best, 1) + "x)",
                    worst / best > 1.3);
  return ok ? 0 : 1;
}
