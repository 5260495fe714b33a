// The scenario drivers (churn, adversarial, economic) with a registry
// attached, run serially and on four threads: the results must agree
// field for field and the metrics exports byte for byte, because the
// worlds' registries fold in (repetition, world) order whatever order
// the threads finish in. The failover sweeps must also keep every
// distribution complete.
//
// Four repetitions, because an economic series comes from one world
// per repetition and two addends sum alike in either order: an
// out-of-order fold shows in its export only from three repetitions
// on (and four threads make it show on nearly every run).

#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "peerlab/experiments/adversarial.hpp"
#include "peerlab/experiments/churn.hpp"
#include "peerlab/experiments/economic.hpp"
#include "peerlab/obs/metrics.hpp"

namespace peerlab::experiments {
namespace {

/// Runs `driver` at four repetitions on `threads` threads; returns its
/// result and the metrics export.
template <typename Driver>
auto observed_run(Driver driver, unsigned threads) {
  RunOptions options;
  options.repetitions = 4;
  options.threads = threads;
  obs::MetricRegistry registry;
  options.metrics = &registry;
  auto result = driver(options);
  return std::make_pair(std::move(result), registry.json("scenario"));
}

void expect_same(const sim::Summary& a, const sim::Summary& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.variance(), b.variance());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
}

TEST(ScenarioDrivers, ChurnThreadedRunMatchesSerial) {
  const auto [serial, serial_json] = observed_run(run_bench_churn, 1);
  const auto [threaded, threaded_json] = observed_run(run_bench_churn, 4);
  EXPECT_EQ(serial_json, threaded_json);
  for (std::size_t m = 0; m < serial.cells.size(); ++m) {
    for (std::size_t level = 0; level < static_cast<std::size_t>(kChurnLevels); ++level) {
      SCOPED_TRACE(std::string(kModelNames[m]) + "/" + kChurnLabels[level]);
      const ChurnCell& a = serial.cells[m][level];
      const ChurnCell& b = threaded.cells[m][level];
      expect_same(a.makespan, b.makespan);
      expect_same(a.failovers, b.failovers);
      expect_same(a.crashes, b.crashes);
      expect_same(a.broker_makespan, b.broker_makespan);
      expect_same(a.broker_penalty, b.broker_penalty);
      expect_same(a.broker_elections, b.broker_elections);
      EXPECT_EQ(a.complete_runs, b.complete_runs);
      EXPECT_EQ(a.runs, b.runs);
      EXPECT_EQ(a.broker_complete_runs, b.broker_complete_runs);
      EXPECT_EQ(a.broker_runs, b.broker_runs);
      EXPECT_EQ(a.completion_rate(), 1.0);
      EXPECT_EQ(a.broker_completion_rate(), 1.0);
    }
  }
}

TEST(ScenarioDrivers, AdversarialThreadedRunMatchesSerial) {
  const auto [serial, serial_json] = observed_run(run_bench_adversarial, 1);
  const auto [threaded, threaded_json] = observed_run(run_bench_adversarial, 4);
  EXPECT_EQ(serial_json, threaded_json);
  for (std::size_t m = 0; m < static_cast<std::size_t>(kAdvModels); ++m) {
    for (std::size_t level = 0; level < static_cast<std::size_t>(kAdvLevels); ++level) {
      for (const bool defended : {false, true}) {
        SCOPED_TRACE(std::string(kAdvModelNames[m]) + "/" + kAdvLabels[level] +
                     (defended ? "/defended" : ""));
        const auto pick = [defended](const AdversarialCell& cell) -> const AdversarialArm& {
          return defended ? cell.defended : cell.undefended;
        };
        const AdversarialArm& a = pick(serial.cells[m][level]);
        const AdversarialArm& b = pick(threaded.cells[m][level]);
        expect_same(a.makespan, b.makespan);
        expect_same(a.failovers, b.failovers);
        expect_same(a.refusals, b.refusals);
        expect_same(a.lies_caught, b.lies_caught);
        expect_same(a.quarantines, b.quarantines);
        EXPECT_EQ(a.complete_runs, b.complete_runs);
        EXPECT_EQ(a.runs, b.runs);
        EXPECT_EQ(a.completion_rate(), 1.0);
      }
    }
  }
}

TEST(ScenarioDrivers, EconomicThreadedRunMatchesSerial) {
  const auto [serial, serial_json] = observed_run(run_bench_economic, 1);
  const auto [threaded, threaded_json] = observed_run(run_bench_economic, 4);
  EXPECT_EQ(serial_json, threaded_json);
  for (std::size_t m = 0; m < static_cast<std::size_t>(kEconModels); ++m) {
    for (std::size_t load = 0; load < static_cast<std::size_t>(kEconLoads); ++load) {
      SCOPED_TRACE(std::string(kEconModelNames[m]) + "/" + kEconLoadLabels[load]);
      const EconArm& a = serial.cells[m][load];
      const EconArm& b = threaded.cells[m][load];
      EXPECT_EQ(a.ledger.jobs(), b.ledger.jobs());
      EXPECT_EQ(a.ledger.completions(), b.ledger.completions());
      EXPECT_EQ(a.ledger.deadline_jobs(), b.ledger.deadline_jobs());
      EXPECT_EQ(a.ledger.deadline_misses(), b.ledger.deadline_misses());
      EXPECT_EQ(a.ledger.budget_jobs(), b.ledger.budget_jobs());
      EXPECT_EQ(a.ledger.budget_violations(), b.ledger.budget_violations());
      EXPECT_EQ(a.ledger.total_cost(), b.ledger.total_cost());
      expect_same(a.cost, b.cost);
      expect_same(a.completion_time, b.completion_time);
      EXPECT_EQ(a.runs, b.runs);
    }
  }
}

}  // namespace
}  // namespace peerlab::experiments
