// ReputationBook unit behaviour: penalties and rewards, exponential
// decay toward neutral, quarantine arming / expiry / probation, the
// throttle-shortfall detector against a peer's own rate record, and
// the peer-indexed table's order and id bound.

#include <gtest/gtest.h>

#include <vector>

#include "peerlab/common/check.hpp"
#include "peerlab/obs/metrics.hpp"
#include "peerlab/overlay/reputation.hpp"

namespace peerlab::overlay {
namespace {

/// Decay and quarantine switched off: score arithmetic in isolation.
ReputationConfig flat_config() {
  ReputationConfig cfg;
  cfg.enabled = true;
  cfg.decay_half_life = 0.0;
  cfg.quarantine_below = 0.0;  // never triggers
  return cfg;
}

TEST(ReputationBook, UnknownPeerScoresInitialAndIsNotQuarantined) {
  const ReputationBook book(flat_config());
  EXPECT_DOUBLE_EQ(book.score(PeerId(7), 100.0), 1.0);
  EXPECT_FALSE(book.quarantined(PeerId(7), 100.0));
  std::vector<PeerId> out;
  book.append_quarantined(100.0, out);
  EXPECT_TRUE(out.empty());
}

TEST(ReputationBook, FailuresSubtractAndSuccessesAddBack) {
  ReputationBook book(flat_config());
  const PeerId p(3);
  book.record_failure(p, 0.0);
  EXPECT_DOUBLE_EQ(book.score(p, 0.0), 1.0 - book.config().failure_penalty);
  book.record_success(p, 0.0);
  EXPECT_DOUBLE_EQ(book.score(p, 0.0),
                   1.0 - book.config().failure_penalty + book.config().success_reward);
  // The reward cannot push a spotless peer above full trust.
  const PeerId clean(4);
  book.record_success(clean, 0.0);
  EXPECT_DOUBLE_EQ(book.score(clean, 0.0), 1.0);
  EXPECT_EQ(book.failures_recorded(), 1u);
  EXPECT_EQ(book.successes_recorded(), 2u);
}

TEST(ReputationBook, ScoreDecaysTowardNeutralWithTheConfiguredHalfLife) {
  ReputationConfig cfg = flat_config();
  cfg.decay_half_life = 600.0;
  ReputationBook book(cfg);
  const PeerId p(3);
  book.record_failure(p, 0.0);  // 0.75
  EXPECT_DOUBLE_EQ(book.score(p, 0.0), 0.75);
  // One half-life halves the distance to 1.0; two quarter it.
  EXPECT_NEAR(book.score(p, 600.0), 0.875, 1e-12);
  EXPECT_NEAR(book.score(p, 1200.0), 0.9375, 1e-12);
  // Queries never mutate: asking at a later time first does not change
  // the answer for an earlier one.
  EXPECT_DOUBLE_EQ(book.score(p, 0.0), 0.75);
}

TEST(ReputationBook, ZeroHalfLifeDisablesDecay) {
  ReputationBook book(flat_config());
  const PeerId p(3);
  book.record_failure(p, 0.0);
  EXPECT_DOUBLE_EQ(book.score(p, 1e6), 0.75);
}

TEST(ReputationBook, RepeatedLiesArmQuarantineAndExpiryLiftsToProbation) {
  ReputationConfig cfg;
  cfg.enabled = true;
  cfg.decay_half_life = 0.0;
  cfg.quarantine_duration = 100.0;
  ReputationBook book(cfg);
  const PeerId liar(5);
  book.record_lie(liar, 0.0);  // 0.6
  EXPECT_FALSE(book.quarantined(liar, 0.0));
  book.record_lie(liar, 0.0);  // 0.2 < 0.3 -> quarantined until 100
  EXPECT_TRUE(book.quarantined(liar, 0.0));
  EXPECT_TRUE(book.quarantined(liar, 99.9));
  EXPECT_EQ(book.quarantines_imposed(), 1u);
  EXPECT_EQ(book.lies_recorded(), 2u);

  std::vector<PeerId> out;
  book.append_quarantined(50.0, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], liar);

  // Expiry: free again, and on probation rather than still in the hole
  // (otherwise the next minor slip would re-quarantine forever).
  EXPECT_FALSE(book.quarantined(liar, 100.0));
  EXPECT_DOUBLE_EQ(book.score(liar, 100.0), cfg.probation_score);
  out.clear();
  book.append_quarantined(150.0, out);
  EXPECT_TRUE(out.empty());

  // A fresh offense after probation can re-arm quarantine.
  book.record_lie(liar, 150.0);  // 0.5 - 0.4 = 0.1 < 0.3
  EXPECT_TRUE(book.quarantined(liar, 150.0));
  EXPECT_EQ(book.quarantines_imposed(), 2u);
}

TEST(ReputationBook, QuarantinedPeersComeOutInAscendingIdOrder) {
  ReputationConfig cfg;
  cfg.enabled = true;
  cfg.decay_half_life = 0.0;
  ReputationBook book(cfg);
  // First seen out of id order, and one innocent peer in between: the
  // excludes must not depend on observation order (or on a standard
  // library's hash iteration order).
  for (const std::uint64_t id : {9, 3, 12, 7, 2, 40}) {
    book.record_lie(PeerId(id), 0.0);
    if (id != 12) book.record_lie(PeerId(id), 0.0);
  }
  std::vector<PeerId> out = {PeerId(1)};  // a requester's own exclude
  book.append_quarantined(10.0, out);
  const std::vector<PeerId> want = {PeerId(1), PeerId(2),  PeerId(3),
                                    PeerId(7), PeerId(9), PeerId(40)};
  EXPECT_EQ(out, want);
}

TEST(ReputationBook, RejectsPeerIdsPastTheDenseBound) {
  ReputationBook book(flat_config());
  const PeerId corrupt(kDensePeerIds);
  EXPECT_THROW(book.record_failure(corrupt, 0.0), InvariantError);
  EXPECT_THROW(book.record_lie(corrupt, 0.0), InvariantError);
  // Queries about an id no table reaches answer as for a stranger.
  EXPECT_DOUBLE_EQ(book.score(corrupt, 0.0), book.config().initial);
  EXPECT_FALSE(book.quarantined(corrupt, 0.0));
}

TEST(ReputationBook, TransferShortfallAgainstOwnTrackRecordIsAThrottle) {
  ReputationBook book(flat_config());
  const PeerId p(6);
  stats::TransferRecord good;
  good.transfer = TransferId(1);
  good.peer = p;
  good.size = megabytes(1.0);
  good.duration = 1.0;  // ~8 Mbps establishes the track record
  good.ok = true;
  book.record_transfer(p, good, 0.0);
  EXPECT_EQ(book.successes_recorded(), 1u);
  EXPECT_EQ(book.shortfalls_recorded(), 0u);

  stats::TransferRecord slow = good;
  slow.transfer = TransferId(2);
  slow.duration = 10.0;  // ~0.8 Mbps, far under half its own record
  book.record_transfer(p, slow, 0.0);
  EXPECT_EQ(book.shortfalls_recorded(), 1u);
  EXPECT_EQ(book.successes_recorded(), 1u);  // not rewarded
  // The first success clamped at full trust, so only the shortfall shows.
  EXPECT_DOUBLE_EQ(book.score(p, 0.0), 1.0 - book.config().shortfall_penalty);

  // A failed transfer is a plain failure regardless of rate history.
  stats::TransferRecord failed = good;
  failed.transfer = TransferId(3);
  failed.ok = false;
  book.record_transfer(p, failed, 0.0);
  EXPECT_EQ(book.failures_recorded(), 1u);
}

TEST(ReputationBook, AttachedCountersTrackEveryObservation) {
  obs::MetricRegistry registry;
  ReputationConfig cfg;
  cfg.enabled = true;
  cfg.decay_half_life = 0.0;
  ReputationBook book(cfg);
  book.attach_metrics(registry);
  const PeerId p(9);
  book.record_success(p, 0.0);
  book.record_failure(p, 0.0);
  book.record_lie(p, 0.0);   // 0.4 -> no quarantine yet
  book.record_lie(p, 0.0);   // 0.0 -> quarantined
  EXPECT_EQ(registry.counter("reputation.successes").value(), 1u);
  EXPECT_EQ(registry.counter("reputation.failures").value(), 1u);
  EXPECT_EQ(registry.counter("reputation.lies").value(), 2u);
  EXPECT_EQ(registry.counter("reputation.quarantines").value(), 1u);
}

}  // namespace
}  // namespace peerlab::overlay
