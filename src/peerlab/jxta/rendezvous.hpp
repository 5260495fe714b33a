#pragma once

// Rendezvous service: the advertisement index a JXTA rendezvous peer
// (our Broker) maintains for its edge peers. Edge peers push their
// advertisements here and route discovery queries through it.
// Expiry is lazy (checked on query) plus an explicit sweep.
//
// Every client republishes its peer advertisement with each heartbeat,
// so the standing edition is found by publisher, kind and name without
// building a key and is overwritten in place, reusing its storage.

#include <string_view>
#include <unordered_map>
#include <vector>

#include "peerlab/jxta/advertisement.hpp"
#include "peerlab/sim/simulator.hpp"

namespace peerlab::jxta {

class RendezvousIndex {
 public:
  explicit RendezvousIndex(sim::Simulator& sim) : sim_(sim) {}

  /// Stores (or refreshes) an advertisement. An advert with the same
  /// publisher + kind + name replaces the previous edition in place
  /// (fresh id, publish time and expiry); an unchanged republish
  /// allocates nothing.
  AdvertisementId publish(const Advertisement& adv) { return publish(adv, adv.expires_at); }
  /// As publish(adv), with the edition's expiry given apart from `adv`,
  /// whose own stamps are ignored.
  AdvertisementId publish(const Advertisement& adv, Seconds expires_at);

  /// Removes a publisher's advertisement of the given kind and name.
  /// Returns true when something was removed.
  bool revoke(PeerId publisher, AdvertisementKind kind, const std::string& name);

  /// Removes everything a peer ever published (peer departure/churn).
  std::size_t revoke_all(PeerId publisher);

  /// All live advertisements matching the query.
  [[nodiscard]] std::vector<Advertisement> query(const AdvertisementQuery& query) const;

  /// Drops expired entries; returns how many were swept.
  std::size_t sweep();

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::uint64_t publishes() const noexcept { return publishes_; }
  [[nodiscard]] std::uint64_t queries() const noexcept { return queries_; }

 private:
  /// The publisher's standing edition of (kind, name), if any.
  [[nodiscard]] Advertisement* find(PeerId publisher, AdvertisementKind kind,
                                    std::string_view name);

  sim::Simulator& sim_;
  /// Editions by publisher; a peer publishes a handful at most.
  std::unordered_map<PeerId, std::vector<Advertisement>> adverts_;
  std::size_t size_ = 0;
  IdAllocator<AdvertisementId> ids_;
  std::uint64_t publishes_ = 0;
  mutable std::uint64_t queries_ = 0;
};

}  // namespace peerlab::jxta
