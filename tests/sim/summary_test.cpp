#include "peerlab/sim/summary.hpp"

#include <gtest/gtest.h>

#include "peerlab/sim/rng.hpp"

namespace peerlab::sim {
namespace {

TEST(Summary, EmptyIsZero) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Summary, SingleSample) {
  Summary s;
  s.add(4.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 4.0);
  EXPECT_DOUBLE_EQ(s.min(), 4.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Summary, KnownMoments) {
  Summary s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(Summary, MergeEqualsPooledStream) {
  Rng r(31);
  Summary whole, left, right;
  for (int i = 0; i < 1000; ++i) {
    const double x = r.normal(3.0, 2.0);
    whole.add(x);
    (i % 2 == 0 ? left : right).add(x);
  }
  Summary merged = left;
  merged.merge(right);
  EXPECT_EQ(merged.count(), whole.count());
  EXPECT_NEAR(merged.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(merged.variance(), whole.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(merged.min(), whole.min());
  EXPECT_DOUBLE_EQ(merged.max(), whole.max());
}

TEST(Summary, MergeWithEmptySides) {
  Summary a, b;
  a.add(1.0);
  a.merge(b);  // merging empty changes nothing
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);  // merging into empty copies
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.0);
}

}  // namespace
}  // namespace peerlab::sim
