#pragma once

// Discovery service: the JXTA primitive that lets a peer publish
// advertisements and find others'. Edge peers keep a local cache and
// delegate wide queries to their rendezvous (broker) over the control
// plane, with retry — discovery traffic crosses the same lossy
// wide-area links everything else does.

#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "peerlab/jxta/rendezvous.hpp"
#include "peerlab/transport/reliable_channel.hpp"

namespace peerlab::jxta {

/// In-process registry: which node hosts which rendezvous index, plus
/// the payload store that carries query results across the simulated
/// control plane (messages themselves are payload-free).
class RendezvousDirectory {
 public:
  void enroll(NodeId node, RendezvousIndex& index);
  void withdraw(NodeId node);
  [[nodiscard]] RendezvousIndex* find(NodeId node) const noexcept;

  /// Parks a query result; returns its claim ticket.
  std::uint64_t park(std::vector<Advertisement> payload);
  /// Claims (and removes) a parked result; empty if expired/unknown.
  [[nodiscard]] std::vector<Advertisement> claim(std::uint64_t ticket);

  /// Parks a query body so the rendezvous can read it. Query tickets
  /// are peeked, not claimed: request retransmissions must stay
  /// idempotent.
  std::uint64_t park_query(AdvertisementQuery query);
  [[nodiscard]] const AdvertisementQuery* peek_query(std::uint64_t ticket) const;
  void release_query(std::uint64_t ticket);

 private:
  std::unordered_map<NodeId, RendezvousIndex*> indexes_;
  std::unordered_map<std::uint64_t, std::vector<Advertisement>> parked_;
  std::deque<std::uint64_t> order_;  // FIFO eviction of stale payloads
  std::unordered_map<std::uint64_t, AdvertisementQuery> queries_;
  std::deque<std::uint64_t> query_order_;
  std::uint64_t next_ticket_ = 0;
};

class DiscoveryService {
 public:
  /// `self` identifies the publishing peer; `rendezvous` is the node
  /// hosting this peer's rendezvous index (its broker).
  DiscoveryService(transport::Endpoint& endpoint, RendezvousDirectory& directory, PeerId self,
                   NodeId rendezvous);
  ~DiscoveryService();

  DiscoveryService(const DiscoveryService&) = delete;
  DiscoveryService& operator=(const DiscoveryService&) = delete;

  /// Publishes locally and pushes to the rendezvous. The push is a
  /// datagram: it takes control-plane time and can be lost, in which
  /// case the periodic republish (the caller's business) heals it.
  /// A republish under the same kind and name replaces the standing
  /// edition.
  void publish(Advertisement adv, Seconds lifetime);
  /// As above for an advertisement built once and republished
  /// periodically (a peer's own advert): `adv` is shared with the local
  /// edition and every push of it, never copied. Its publisher must be
  /// this service's peer.
  void publish(std::shared_ptr<const Advertisement> adv, Seconds lifetime);

  /// Local cache lookup (instant, possibly stale).
  [[nodiscard]] std::vector<Advertisement> lookup_local(const AdvertisementQuery& query) const;

  using QueryCallback = std::function<void(std::vector<Advertisement>)>;

  /// Remote query through the rendezvous; retried on loss. The callback
  /// always fires: with the rendezvous' matches, or empty on failure.
  void query_remote(const AdvertisementQuery& query, QueryCallback done);

  /// Re-points this peer at a different rendezvous (broker failover).
  void set_rendezvous(NodeId rendezvous) { rendezvous_ = rendezvous; }
  [[nodiscard]] NodeId rendezvous() const noexcept { return rendezvous_; }
  [[nodiscard]] PeerId self() const noexcept { return self_; }

  /// Drops expired local cache entries.
  std::size_t sweep_local();

  [[nodiscard]] std::size_t local_cache_size() const noexcept { return local_.size(); }

  /// Installs the responder side on a rendezvous-hosting node's
  /// endpoint. Call once on the broker's discovery service.
  void serve_rendezvous_queries();

  /// Responder with a custom (possibly asynchronous) resolver — used
  /// by federated brokers that consult peer rendezvous on a local
  /// miss. `hop` is the query's hop marker (see query_remote); the
  /// resolver must call `done` exactly once per invocation.
  using QueryResolver =
      std::function<void(const AdvertisementQuery& query, std::int64_t hop,
                         std::function<void(std::vector<Advertisement>)> done)>;
  void serve_rendezvous_queries(QueryResolver resolver);

  /// query_remote with an explicit hop marker riding the request
  /// (hop != 0 tells a federated responder not to forward again).
  void query_remote(const AdvertisementQuery& query, std::int64_t hop, QueryCallback done);

  /// Traced variant: `trace` is stamped onto the query datagram and
  /// every retransmission, keeping the whole discovery round trip on
  /// the caller's causal chain (the rendezvous reply echoes it back).
  void query_remote(const AdvertisementQuery& query, std::int64_t hop,
                    const obs::trace::TraceContext& trace, QueryCallback done);

 private:
  /// One local edition: the content, shared with in-flight pushes (its
  /// own stamps are stale), plus this edition's stamps.
  struct Edition {
    std::shared_ptr<const Advertisement> body;
    AdvertisementId id;
    Seconds published_at = 0.0;
    Seconds expires_at = 0.0;
  };

  transport::Endpoint& endpoint_;
  RendezvousDirectory& directory_;
  PeerId self_;
  NodeId rendezvous_;
  transport::ReliableChannel query_channel_;
  std::vector<Edition> local_;
  IdAllocator<AdvertisementId> local_ids_;
};

}  // namespace peerlab::jxta
