#include "peerlab/jxta/discovery.hpp"

#include <algorithm>
#include <utility>

#include "peerlab/common/check.hpp"

namespace peerlab::jxta {

namespace {
constexpr std::size_t kMaxParked = 1024;

transport::RetryPolicy discovery_retry() {
  transport::RetryPolicy p;
  p.initial_timeout = 10.0;
  p.backoff = 1.5;
  p.max_attempts = 3;
  return p;
}
}  // namespace

void RendezvousDirectory::enroll(NodeId node, RendezvousIndex& index) {
  indexes_[node] = &index;
}

void RendezvousDirectory::withdraw(NodeId node) { indexes_.erase(node); }

RendezvousIndex* RendezvousDirectory::find(NodeId node) const noexcept {
  const auto it = indexes_.find(node);
  return it == indexes_.end() ? nullptr : it->second;
}

std::uint64_t RendezvousDirectory::park(std::vector<Advertisement> payload) {
  const std::uint64_t ticket = ++next_ticket_;
  parked_.emplace(ticket, std::move(payload));
  order_.push_back(ticket);
  while (order_.size() > kMaxParked) {
    parked_.erase(order_.front());
    order_.pop_front();
  }
  return ticket;
}

std::vector<Advertisement> RendezvousDirectory::claim(std::uint64_t ticket) {
  const auto it = parked_.find(ticket);
  if (it == parked_.end()) return {};
  std::vector<Advertisement> payload = std::move(it->second);
  parked_.erase(it);
  return payload;
}

std::uint64_t RendezvousDirectory::park_query(AdvertisementQuery query) {
  const std::uint64_t ticket = ++next_ticket_;
  queries_.emplace(ticket, std::move(query));
  query_order_.push_back(ticket);
  while (query_order_.size() > kMaxParked) {
    queries_.erase(query_order_.front());
    query_order_.pop_front();
  }
  return ticket;
}

const AdvertisementQuery* RendezvousDirectory::peek_query(std::uint64_t ticket) const {
  const auto it = queries_.find(ticket);
  return it == queries_.end() ? nullptr : &it->second;
}

void RendezvousDirectory::release_query(std::uint64_t ticket) { queries_.erase(ticket); }

DiscoveryService::DiscoveryService(transport::Endpoint& endpoint,
                                   RendezvousDirectory& directory, PeerId self,
                                   NodeId rendezvous)
    : endpoint_(endpoint),
      directory_(directory),
      self_(self),
      rendezvous_(rendezvous),
      query_channel_(endpoint, transport::MessageType::kDiscoveryQuery,
                     transport::MessageType::kDiscoveryResponse, discovery_retry()) {
  PEERLAB_CHECK_MSG(self_.valid(), "discovery needs a peer identity");
}

DiscoveryService::~DiscoveryService() = default;

void DiscoveryService::publish(Advertisement adv, Seconds lifetime) {
  adv.publisher = self_;
  publish(std::make_shared<const Advertisement>(std::move(adv)), lifetime);
}

void DiscoveryService::publish(std::shared_ptr<const Advertisement> adv, Seconds lifetime) {
  PEERLAB_CHECK_MSG(lifetime > 0.0, "advertisement lifetime must be positive");
  PEERLAB_CHECK_MSG(adv != nullptr && adv->publisher == self_,
                    "a shared advertisement must name this peer as its publisher");
  // A republish replaces the standing edition of the same (kind, name)
  // and lands at the back of the cache, so lookups see editions in
  // publish order.
  const auto same = std::find_if(local_.begin(), local_.end(), [&](const Edition& e) {
    return e.body->kind == adv->kind && e.body->name == adv->name;
  });
  if (same == local_.end()) {
    local_.emplace_back();
  } else {
    std::rotate(same, same + 1, local_.end());
  }
  Edition& edition = local_.back();
  edition.body = std::move(adv);
  edition.id = local_ids_.next();
  edition.published_at = endpoint_.fabric().simulator().now();
  edition.expires_at = edition.published_at + lifetime;
  // Push to the rendezvous: the datagram delay models the publish
  // round; the index mutation happens at arrival time.
  endpoint_.fabric().network().send_datagram(
      endpoint_.node(), rendezvous_, transport::nominal_size(transport::MessageType::kStatsReport),
      [this, body = edition.body, expires_at = edition.expires_at] {
        if (RendezvousIndex* index = directory_.find(rendezvous_)) {
          if (endpoint_.fabric().simulator().now() < expires_at) {
            index->publish(*body, expires_at);
          }
        }
      });
}

std::vector<Advertisement> DiscoveryService::lookup_local(
    const AdvertisementQuery& query) const {
  const Seconds now = endpoint_.fabric().simulator().now();
  std::vector<Advertisement> out;
  for (const Edition& edition : local_) {
    Advertisement adv = *edition.body;
    adv.id = edition.id;
    adv.published_at = edition.published_at;
    adv.expires_at = edition.expires_at;
    if (query.matches(adv, now)) out.push_back(std::move(adv));
  }
  return out;
}

void DiscoveryService::query_remote(const AdvertisementQuery& query, QueryCallback done) {
  query_remote(query, /*hop=*/0, std::move(done));
}

void DiscoveryService::query_remote(const AdvertisementQuery& query, std::int64_t hop,
                                    QueryCallback done) {
  query_remote(query, hop, obs::trace::TraceContext{}, std::move(done));
}

void DiscoveryService::query_remote(const AdvertisementQuery& query, std::int64_t hop,
                                    const obs::trace::TraceContext& trace,
                                    QueryCallback done) {
  PEERLAB_CHECK_MSG(static_cast<bool>(done), "query callback required");
  // The control plane carries no structured payloads; the query body
  // travels via a parked ticket the rendezvous peeks at.
  const std::uint64_t query_ticket = directory_.park_query(query);
  query_channel_.request(
      rendezvous_, query_ticket, hop, trace,
      [this, query_ticket, done = std::move(done)](const transport::RequestOutcome& outcome) {
        directory_.release_query(query_ticket);
        if (!outcome.ok) {
          done({});
          return;
        }
        done(directory_.claim(static_cast<std::uint64_t>(outcome.response.arg)));
      });
}

void DiscoveryService::serve_rendezvous_queries() {
  serve_rendezvous_queries([this](const AdvertisementQuery& query, std::int64_t /*hop*/,
                                  std::function<void(std::vector<Advertisement>)> done) {
    RendezvousIndex* index = directory_.find(endpoint_.node());
    done(index != nullptr ? index->query(query) : std::vector<Advertisement>{});
  });
}

void DiscoveryService::serve_rendezvous_queries(QueryResolver resolver) {
  PEERLAB_CHECK_MSG(static_cast<bool>(resolver), "resolver required");
  query_channel_.serve([this, resolver](const transport::Message& m) {
    const AdvertisementQuery* parked = directory_.peek_query(m.correlation);
    const AdvertisementQuery query = parked != nullptr ? *parked : AdvertisementQuery{};
    resolver(query, m.arg, [this, m](std::vector<Advertisement> results) {
      const std::uint64_t ticket = directory_.park(std::move(results));
      endpoint_.reply(m, transport::MessageType::kDiscoveryResponse,
                      static_cast<std::int64_t>(ticket));
    });
  });
}

std::size_t DiscoveryService::sweep_local() {
  const Seconds now = endpoint_.fabric().simulator().now();
  const auto before = local_.size();
  local_.erase(std::remove_if(local_.begin(), local_.end(),
                              [now](const Edition& e) { return now >= e.expires_at; }),
               local_.end());
  return before - local_.size();
}

}  // namespace peerlab::jxta
