#include "peerlab/jxta/rendezvous.hpp"

#include <algorithm>
#include <iterator>
#include <utility>

#include "peerlab/common/check.hpp"

namespace peerlab::jxta {

Advertisement* RendezvousIndex::find(PeerId publisher, AdvertisementKind kind,
                                     std::string_view name) {
  const auto it = adverts_.find(publisher);
  if (it == adverts_.end()) return nullptr;
  for (Advertisement& adv : it->second) {
    if (adv.kind == kind && adv.name == name) return &adv;
  }
  return nullptr;
}

AdvertisementId RendezvousIndex::publish(const Advertisement& adv, Seconds expires_at) {
  PEERLAB_CHECK_MSG(adv.publisher.valid(), "advertisement needs a publisher");
  PEERLAB_CHECK_MSG(expires_at > sim_.now(), "advertisement already expired");
  ++publishes_;
  Advertisement* edition = find(adv.publisher, adv.kind, adv.name);
  if (edition == nullptr) {
    edition = &adverts_[adv.publisher].emplace_back(adv);
    ++size_;
  } else {
    *edition = adv;  // assigns into the standing edition's storage
  }
  edition->id = ids_.next();
  edition->published_at = sim_.now();
  edition->expires_at = expires_at;
  return edition->id;
}

bool RendezvousIndex::revoke(PeerId publisher, AdvertisementKind kind,
                             const std::string& name) {
  const auto it = adverts_.find(publisher);
  if (it == adverts_.end()) return false;
  auto& editions = it->second;
  const auto edition = std::find_if(editions.begin(), editions.end(),
                                    [&](const Advertisement& adv) {
                                      return adv.kind == kind && adv.name == name;
                                    });
  if (edition == editions.end()) return false;
  editions.erase(edition);
  if (editions.empty()) adverts_.erase(it);
  --size_;
  return true;
}

std::size_t RendezvousIndex::revoke_all(PeerId publisher) {
  const auto it = adverts_.find(publisher);
  if (it == adverts_.end()) return 0;
  const std::size_t removed = it->second.size();
  adverts_.erase(it);
  size_ -= removed;
  return removed;
}

std::vector<Advertisement> RendezvousIndex::query(const AdvertisementQuery& query) const {
  ++queries_;
  std::vector<Advertisement> out;
  for (const auto& [publisher, editions] : adverts_) {
    for (const Advertisement& adv : editions) {
      if (query.matches(adv, sim_.now())) out.push_back(adv);
    }
  }
  // Deterministic order for callers that pick "the first" match.
  std::sort(out.begin(), out.end(),
            [](const Advertisement& a, const Advertisement& b) { return a.id < b.id; });
  return out;
}

std::size_t RendezvousIndex::sweep() {
  std::size_t swept = 0;
  const Seconds now = sim_.now();
  for (auto it = adverts_.begin(); it != adverts_.end();) {
    auto& editions = it->second;
    const auto live = std::remove_if(editions.begin(), editions.end(),
                                     [now](const Advertisement& adv) { return adv.expired(now); });
    swept += static_cast<std::size_t>(editions.end() - live);
    editions.erase(live, editions.end());
    it = editions.empty() ? adverts_.erase(it) : std::next(it);
  }
  size_ -= swept;
  return swept;
}

}  // namespace peerlab::jxta
