#include "peerlab/overlay/reputation.hpp"

#include <algorithm>
#include <cmath>

namespace peerlab::overlay {

double ReputationBook::projected(const Entry& entry, Seconds now) const {
  double value = entry.value;
  Seconds stamp = entry.stamp;
  if (entry.quarantine_until > 0.0 && now >= entry.quarantine_until &&
      value < config_.probation_score) {
    // Quarantine served: the peer re-enters on probation, not in the
    // hole it dug — otherwise a decayed score re-arms quarantine on
    // the next minor slip forever.
    value = config_.probation_score;
    stamp = std::max(stamp, entry.quarantine_until);
  }
  if (config_.decay_half_life > 0.0 && now > stamp) {
    value = 1.0 - (1.0 - value) * std::exp2(-(now - stamp) / config_.decay_half_life);
  }
  return value;
}

double ReputationBook::score(PeerId peer, Seconds now) const {
  const Entry* entry = find(peer);
  return entry == nullptr ? config_.initial : projected(*entry, now);
}

bool ReputationBook::quarantined(PeerId peer, Seconds now) const {
  const Entry* entry = find(peer);
  return entry != nullptr && now < entry->quarantine_until;
}

void ReputationBook::append_quarantined(Seconds now, std::vector<PeerId>& out) const {
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (now < entries_[i].quarantine_until) out.emplace_back(i);
  }
}

void ReputationBook::adjust(PeerId peer, Seconds now, double delta) {
  Entry& entry = dense_row(entries_, peer);
  if (!entry.observed) entry = Entry{config_.initial, now, 0.0, 0.0, true};
  const double value = projected(entry, now);
  if (entry.quarantine_until > 0.0 && now >= entry.quarantine_until) {
    entry.quarantine_until = 0.0;  // quarantine served, probation folded in
  }
  entry.value = std::clamp(value + delta, 0.0, 1.0);
  entry.stamp = now;
  if (entry.value < config_.quarantine_below && entry.quarantine_until <= now) {
    entry.quarantine_until = now + config_.quarantine_duration;
    ++quarantines_;
    if (m_.quarantines != nullptr) m_.quarantines->add(1);
    if (quarantine_observer_) quarantine_observer_(peer, entry.quarantine_until);
  }
}

void ReputationBook::record_success(PeerId peer, Seconds now) {
  ++successes_;
  if (m_.successes != nullptr) m_.successes->add(1);
  adjust(peer, now, config_.success_reward);
}

void ReputationBook::record_failure(PeerId peer, Seconds now) {
  ++failures_;
  if (m_.failures != nullptr) m_.failures->add(1);
  adjust(peer, now, -config_.failure_penalty);
}

void ReputationBook::record_lie(PeerId peer, Seconds now) {
  ++lies_;
  if (m_.lies != nullptr) m_.lies->add(1);
  adjust(peer, now, -config_.lie_penalty);
}

void ReputationBook::record_transfer(PeerId peer, const stats::TransferRecord& record,
                                     Seconds now) {
  if (!record.ok) {
    record_failure(peer, now);
    return;
  }
  const MbitPerSec rate = record.achieved_rate();
  const Entry* seen = find(peer);
  const MbitPerSec ewma = seen != nullptr ? seen->rate_ewma : 0.0;
  if (ewma > 0.0 && rate < config_.shortfall_threshold * ewma) {
    // Completed but far below the peer's own demonstrated throughput:
    // the signature of a throttling free-rider, not a slow link (the
    // baseline is this peer's history, not the fleet's).
    ++shortfalls_;
    if (m_.shortfalls != nullptr) m_.shortfalls->add(1);
    adjust(peer, now, -config_.shortfall_penalty);
  } else {
    record_success(peer, now);
  }
  Entry& entry = dense_row(entries_, peer);  // observed by now
  entry.rate_ewma = entry.rate_ewma > 0.0 ? 0.7 * entry.rate_ewma + 0.3 * rate : rate;
}

void ReputationBook::attach_metrics(obs::MetricRegistry& registry) {
  m_.failures = &registry.counter("reputation.failures", "events");
  m_.successes = &registry.counter("reputation.successes", "events");
  m_.lies = &registry.counter("reputation.lies", "events");
  m_.shortfalls = &registry.counter("reputation.shortfalls", "events");
  m_.quarantines = &registry.counter("reputation.quarantines", "events");
}

}  // namespace peerlab::overlay
