#include "peerlab/experiments/harness.hpp"

#include <gtest/gtest.h>

#include <set>

#include "peerlab/common/check.hpp"
#include "peerlab/sim/rng.hpp"

namespace peerlab::experiments {
namespace {

TEST(Harness, RepetitionSeedsAreDistinctAndStable) {
  RunOptions options;
  std::set<std::uint64_t> seeds;
  for (int rep = 0; rep < 100; ++rep) {
    seeds.insert(repetition_seed(options, rep));
  }
  EXPECT_EQ(seeds.size(), 100u);
  EXPECT_EQ(repetition_seed(options, 7), repetition_seed(options, 7));
  RunOptions other;
  other.base_seed = 9999;
  EXPECT_NE(repetition_seed(options, 0), repetition_seed(other, 0));
}

TEST(Harness, ResultsArriveInRepetitionOrder) {
  RunOptions options;
  options.repetitions = 16;
  options.threads = 4;
  const auto results =
      run_repetitions<int>(options, [](Repetition& rep) { return rep.index * 10; });
  ASSERT_EQ(results.size(), 16u);
  for (int rep = 0; rep < 16; ++rep) {
    EXPECT_EQ(results[static_cast<std::size_t>(rep)], rep * 10);
  }
}

TEST(Harness, ParallelAndSerialProduceIdenticalResults) {
  auto body = [](Repetition& rep) {
    sim::Rng rng(rep.seed);
    double sum = 0.0;
    for (int i = 0; i <= rep.index; ++i) sum += rng.uniform();
    return sum;
  };
  RunOptions serial;
  serial.repetitions = 12;
  serial.threads = 1;
  RunOptions parallel = serial;
  parallel.threads = 6;
  const auto a = run_repetitions<double>(serial, body);
  const auto b = run_repetitions<double>(parallel, body);
  EXPECT_EQ(a, b);
}

TEST(Harness, WorkerExceptionsPropagate) {
  RunOptions options;
  options.repetitions = 4;
  options.threads = 2;
  EXPECT_THROW(run_repetitions<int>(options,
                                    [](Repetition& rep) -> int {
                                      if (rep.index == 2) throw std::runtime_error("boom");
                                      return rep.index;
                                    }),
               std::runtime_error);
}

TEST(Harness, RejectsZeroRepetitions) {
  RunOptions options;
  options.repetitions = 0;
  EXPECT_THROW(run_repetitions<int>(options, [](Repetition&) { return 0; }),
               InvariantError);
}

TEST(Harness, SummarizeMatchesManualStats) {
  const auto summary = summarize({1.0, 2.0, 3.0, 4.0});
  EXPECT_EQ(summary.count(), 4u);
  EXPECT_DOUBLE_EQ(summary.mean(), 2.5);
  EXPECT_DOUBLE_EQ(summary.min(), 1.0);
  EXPECT_DOUBLE_EQ(summary.max(), 4.0);
}

}  // namespace
}  // namespace peerlab::experiments
