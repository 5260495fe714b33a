// Ablation: data-evaluator weight sensitivity. The paper lets weights
// be "user defined or pre-specified"; this sweep runs the same job
// stream under differently-focused weight vectors and reports what the
// application feels. Message-focused weights track control-plane
// health; queue-focused weights track instantaneous load; the
// same-priority blend is the paper's default.

#include <map>

#include "bench_common.hpp"
#include "peerlab/core/data_evaluator.hpp"
#include "peerlab/planetlab/deployment.hpp"

using namespace peerlab;
using namespace peerlab::experiments;

namespace {

struct WeightSet {
  const char* name;
  std::vector<core::CriterionWeight> weights;
};

std::vector<WeightSet> weight_sets() {
  using stats::Criterion;
  std::vector<WeightSet> sets;
  {
    WeightSet s{"same-priority (paper)", {}};
    for (std::size_t i = 0; i < stats::kCriterionCount; ++i) {
      s.weights.push_back({static_cast<Criterion>(i), 1.0});
    }
    sets.push_back(std::move(s));
  }
  sets.push_back({"message-focused",
                  {{Criterion::kMsgSuccessSession, 1.0},
                   {Criterion::kMsgSuccessTotal, 1.0},
                   {Criterion::kMsgSuccessWindow, 1.0}}});
  sets.push_back({"queue-focused",
                  {{Criterion::kOutboxNow, 1.0},
                   {Criterion::kInboxNow, 1.0},
                   {Criterion::kPendingTransfers, 2.0}}});
  sets.push_back({"task-focused",
                  {{Criterion::kTaskExecSuccessTotal, 2.0},
                   {Criterion::kTaskAcceptTotal, 1.0}}});
  sets.push_back({"file-focused",
                  {{Criterion::kFileSentTotal, 2.0},
                   {Criterion::kFileCancelTotal, 1.0},
                   {Criterion::kPendingTransfers, 1.0}}});
  return sets;
}

struct StreamResult {
  int completed = 0;
  double mean_turnaround = 0.0;
  std::map<int, int> picks;  // SC index -> jobs
};

StreamResult run_stream(std::uint64_t seed, const std::vector<core::CriterionWeight>& weights) {
  sim::Simulator sim(seed);
  planetlab::DeploymentOptions opts;
  opts.client.heartbeat_interval = 10.0;  // fresh queue samples
  planetlab::Deployment dep(sim, opts);
  dep.boot();
  dep.broker().set_selection_model(std::make_unique<core::DataEvaluatorModel>(
      core::DataEvaluatorModel(weights)));
  overlay::Primitives api(dep.control());

  StreamResult result;
  double turnaround_sum = 0.0;
  // Jobs arrive faster than they drain, so queue-aware weightings can
  // spread load while stats-blind ones pile onto the tie-break winner.
  constexpr int kJobs = 16;
  for (int j = 0; j < kJobs; ++j) {
    sim.schedule(static_cast<double>(j) * 15.0, [&] {
      api.submit_task_auto(120.0, megabytes(20.0), [&](const overlay::TaskOutcome& o) {
        if (o.accepted && o.ok) {
          ++result.completed;
          turnaround_sum += o.turnaround();
        }
        for (int i = 1; i <= 8; ++i) {
          if (o.executor.valid() &&
              o.executor.value() == static_cast<std::uint64_t>(i + 2)) {
            ++result.picks[i];
          }
        }
      });
    });
  }
  sim.run();
  if (result.completed > 0) {
    result.mean_turnaround = turnaround_sum / result.completed;
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = peerlab::bench::parse_options(argc, argv);
  peerlab::bench::refuse_observability(options, "bench_ablation_weights");
  print_figure_header("Ablation", "Data-evaluator weight sensitivity");

  Table table("16-job burst per weight vector (mean of " +
                  std::to_string(options.repetitions) + " runs)",
              {"weights", "completed", "mean turnaround (s)", "distinct peers", "SC7 picks"});
  double queue_focused_turnaround = 0.0, message_focused_turnaround = 0.0;
  bool all_complete = true;
  for (const auto& set : weight_sets()) {
    sim::Summary completed, turnaround, straggler, spread;
    for (int rep = 0; rep < options.repetitions; ++rep) {
      const auto result = run_stream(repetition_seed(options, rep), set.weights);
      completed.add(result.completed);
      turnaround.add(result.mean_turnaround);
      spread.add(static_cast<double>(result.picks.size()));
      const auto it = result.picks.find(7);
      straggler.add(it == result.picks.end() ? 0.0 : it->second);
    }
    table.add_row({set.name, cell(completed.mean(), 1), cell(turnaround.mean(), 1),
                   cell(spread.mean(), 1), cell(straggler.mean(), 1)});
    if (std::string(set.name) == "queue-focused") {
      queue_focused_turnaround = turnaround.mean();
    }
    if (std::string(set.name) == "message-focused") {
      message_focused_turnaround = turnaround.mean();
    }
    all_complete &= completed.mean() >= 15.0;
  }
  std::printf("%s\n", table.render().c_str());
  table.write_csv("bench_ablation_weights.csv");

  bool ok = true;
  ok &= shape_check("every weighting completes (nearly) the whole stream", all_complete);
  ok &= shape_check("queue-aware weights beat load-blind weights under bursty load",
                    queue_focused_turnaround < message_focused_turnaround);
  return ok ? 0 : 1;
}
