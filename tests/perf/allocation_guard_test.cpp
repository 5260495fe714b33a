// Zero-steady-state-allocation guarantees, enforced by instrumenting
// the global allocator.
//
// The event queue and the flow scheduler both promise that once warmed
// to a workload's high-water mark, their hot paths (push/cancel/pop,
// start/cancel/recompute/complete) never touch the heap: scratch
// buffers are reused, free lists are pre-reserved on the growth path,
// and actions live in pooled slots. This test replaces global
// operator new/delete with counting versions and asserts an exact
// zero allocation count across the steady-state phases.
//
// Counting is toggled around the measured region only, so gtest's own
// bookkeeping stays out of the numbers. The whole binary is
// single-threaded; plain counters are fine.
//
// The broker's scan path makes a weaker, size-independent promise: a
// defended, econ-enabled petition allocates only its answer, so the
// count must not grow with the registry. So does a client's heartbeat
// round: its datagrams' closures and one parked stats report, with the
// advert republished in place. The broker's history store allocates per
// peer only the record kinds that peer has been seen in.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "peerlab/core/blind.hpp"
#include "peerlab/core/data_evaluator.hpp"
#include "peerlab/core/economic.hpp"
#include "peerlab/core/hybrid.hpp"
#include "peerlab/core/user_preference.hpp"
#include "peerlab/econ/economy.hpp"
#include "peerlab/net/flow_scheduler.hpp"
#include "peerlab/net/topology.hpp"
#include "peerlab/sim/simulator.hpp"
#include "peerlab/stats/history.hpp"
#include "econ/scored_ranking.hpp"
#include "overlay/overlay_world.hpp"

namespace {

std::size_t g_allocations = 0;
bool g_tracking = false;

void* counted_alloc(std::size_t size) {
  if (g_tracking) ++g_allocations;
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_aligned_alloc(std::size_t size, std::size_t align) {
  if (g_tracking) ++g_allocations;
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align,
                     size == 0 ? 1 : size) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace peerlab {
namespace {

/// Keeps a value alive past the optimizer.
volatile std::uint64_t g_sink = 0;
void keep_alive(std::uint64_t value) { g_sink = value; }

class AllocationGuard {
 public:
  AllocationGuard() {
    g_allocations = 0;
    g_tracking = true;
  }
  ~AllocationGuard() { g_tracking = false; }
  [[nodiscard]] std::size_t count() const { return g_allocations; }
};

TEST(AllocationGuard, EventQueueSteadyStateIsAllocationFree) {
  sim::EventQueue queue;
  std::uint64_t fired = 0;

  // Warm to the high-water mark: more concurrent events, and a bigger
  // unsorted backlog, than the measured phase ever reaches.
  for (int wave = 0; wave < 4; ++wave) {
    std::vector<sim::EventHandle> handles;
    for (int i = 0; i < 2048; ++i) {
      handles.push_back(
          queue.push(static_cast<double>((i * 7919) % 257), [&fired] { ++fired; }));
    }
    for (int i = 0; i < 2048; i += 3) handles[static_cast<std::size_t>(i)].cancel();
    while (!queue.empty()) queue.pop().action();
  }

  AllocationGuard guard;
  // Bulk cycle: batch push (radix refill path), scattered cancels,
  // full drain — twice.
  for (int wave = 0; wave < 2; ++wave) {
    sim::EventHandle cancelled[64];
    for (int i = 0; i < 1024; ++i) {
      auto handle = queue.push(static_cast<double>((i * 31) % 97), [&fired] { ++fired; });
      if (i % 16 == 0) cancelled[i / 16] = std::move(handle);
    }
    for (auto& handle : cancelled) handle.cancel();
    while (!queue.empty()) queue.pop().action();
  }
  // Chain cycle: the pop-one/push-one cadence of timers.
  double t = 1000.0;
  queue.push(t, [&fired] { ++fired; });
  for (int i = 0; i < 4096; ++i) {
    queue.pop().action();
    t += 0.25;
    queue.push(t, [&fired] { ++fired; });
  }
  queue.pop().action();
  // Heartbeat cycle: 256 daemon timers, each pushed again one period
  // after it fires, beside a schedule of 64 events 300 s to an hour
  // out and near-future datagrams, all on a coarse grid (ties on the
  // refill batch boundaries), with schedule events re-armed into and
  // past the sorted window and cancelled.
  enum Kind { kTimer, kScheduled, kDatagram };
  struct Tally {
    Kind last = kTimer;
    std::uint64_t fired = 0;
  } tally;
  // Two words of capture: stored inside the std::function.
  const auto action = [&tally](Kind kind) {
    return [&tally, kind] {
      tally.last = kind;
      ++tally.fired;
    };
  };
  for (int i = 0; i < 256; ++i) queue.push(t + 0.5 * (i % 60), action(kTimer), true);
  sim::EventHandle schedule[64];
  for (int i = 0; i < 64; ++i) schedule[i] = queue.push(t + 30.0 * (10 + i), action(kScheduled));
  for (int i = 0; i < 20000; ++i) {
    auto popped = queue.pop();
    popped.action();
    t = popped.time;
    if (tally.last == kTimer) {
      queue.push(t + 30.0, action(kTimer), true);
      if (i % 3 == 0) queue.push(t + 0.5 * (i % 13), action(kDatagram));
    } else if (tally.last == kScheduled) {
      schedule[i % 64] = queue.push(t + 30.0 * (10 + i % 110), action(kScheduled));
    }
    sim::EventHandle& target = schedule[(i * 7) % 64];
    if (i % 7 == 0 && target.pending()) {
      queue.rearm(target, t + (i % 2 == 0 ? 0.5 * (i % 13) : 30.0 * (10 + i % 110)));
    } else if (i % 11 == 0 && target.pending()) {
      target.cancel();
      target = queue.push(t + 30.0 * (10 + i % 110), action(kScheduled));
    }
  }
  queue.clear();
  const std::size_t allocations = guard.count();
  EXPECT_EQ(0u, allocations) << "EventQueue steady state allocated";
  EXPECT_GT(fired, 0u);
  EXPECT_EQ(tally.fired, 20000u);
}

TEST(AllocationGuard, FlowSchedulerSteadyStateIsAllocationFree) {
  sim::Simulator sim(1);
  net::Topology topo(sim::Rng(1));
  std::vector<NodeId> nodes;
  for (int i = 0; i < 24; ++i) {
    net::NodeProfile profile;
    profile.hostname = "n" + std::to_string(i);
    profile.uplink_mbps = 4.0 + i % 5;
    profile.downlink_mbps = 8.0 + i % 7;
    nodes.push_back(topo.add_node(profile));
  }
  net::FlowScheduler scheduler(sim, topo);
  std::uint64_t completed = 0;

  const auto spawn = [&](int i, Bytes size) {
    net::FlowSpec spec;
    spec.src = nodes[static_cast<std::size_t>(i) % nodes.size()];
    spec.dst = nodes[static_cast<std::size_t>(i * 7 + 1) % nodes.size()];
    if (spec.src == spec.dst) spec.dst = nodes[(static_cast<std::size_t>(i) + 1) % nodes.size()];
    spec.size = size;
    spec.rate_cap = i % 3 == 0 ? 2.5 : 0.0;
    spec.on_complete = [&completed](Seconds) { ++completed; };
    return scheduler.start(std::move(spec));
  };

  // Warm: more concurrent flows than the measured phase uses, with
  // cancels and completions, so every slot vector, scratch buffer,
  // index table and the simulator's event pool reach their high-water
  // marks.
  const auto measured_round = [&](int round) {
    FlowId ids[48];
    for (int i = 0; i < 48; ++i) ids[i] = spawn(i + round, kilobytes(64.0));
    for (int i = 0; i < 48; i += 3) scheduler.cancel(ids[i]);
    sim.run();  // drive every remaining flow to completion
  };
  {
    std::vector<FlowId> warm;
    for (int i = 0; i < 96; ++i) warm.push_back(spawn(i, megabytes(1.0)));
    for (int i = 0; i < 96; i += 2) scheduler.cancel(warm[static_cast<std::size_t>(i)]);
    sim.run();
    ASSERT_EQ(0u, scheduler.active_flows());
    // One measured-shape round too: completion batching (the `done_`
    // staging buffer) depends on how many same-instant completions a
    // round produces, so warm with the exact shape being measured.
    measured_round(0);
  }

  AllocationGuard guard;
  for (int round = 0; round < 8; ++round) measured_round(round);
  const std::size_t allocations = guard.count();
  EXPECT_EQ(0u, allocations) << "FlowScheduler steady state allocated";
  EXPECT_GT(completed, 0u);
  EXPECT_EQ(0u, scheduler.active_flows());
}

TEST(AllocationGuard, SelectionModelsPetitionPathIsAllocationFree) {
  // Synthetic candidate pool; everything that allocates (the snapshot
  // vector itself) is built before the guard arms.
  std::vector<core::PeerSnapshot> pool;
  std::vector<PeerId> preference;
  for (int i = 0; i < 16; ++i) {
    core::PeerSnapshot s;
    s.peer = PeerId(static_cast<std::uint64_t>(i + 1));
    s.node = NodeId(static_cast<std::uint64_t>(i + 100));
    s.cpu_ghz = 1.0 + (i % 5) * 0.6;
    s.price_per_cpu_second = 0.5 + (i % 3) * 0.25;
    s.idle = i % 4 != 0;
    s.queued_tasks = i % 3;
    s.active_transfers = i % 2;
    pool.push_back(std::move(s));
    preference.push_back(PeerId(static_cast<std::uint64_t>(i + 1)));
  }

  // All five models behind the common interface; each keeps its own
  // scratch and ranking buffers, so each must be warmed and soaked.
  core::BlindModel blind;
  core::EconomicSchedulingModel economic;
  core::DataEvaluatorModel evaluator = core::DataEvaluatorModel::same_priority();
  core::HybridModel hybrid;
  core::UserPreferenceModel user_pref(preference);
  core::SelectionModel* models[] = {&blind, &economic, &evaluator, &hybrid, &user_pref};

  core::SelectionContext ctx;
  ctx.purpose = core::SelectionContext::Purpose::kFileTransfer;
  ctx.payload_size = megabytes(10.0);
  ctx.exclude.reserve(4);

  std::vector<PeerId> out;
  std::uint64_t picks = 0;
  const auto petition = [&](core::SelectionModel& model, int i) {
    ctx.now = static_cast<Seconds>(i);
    ctx.purpose = i % 2 == 0 ? core::SelectionContext::Purpose::kFileTransfer
                             : core::SelectionContext::Purpose::kTaskExecution;
    ctx.work = i % 2 == 0 ? 0.0 : 40.0;
    ctx.exclude.clear();
    ctx.exclude.push_back(pool[static_cast<std::size_t>(i) % pool.size()].peer);
    model.rank_into(pool, ctx, out);
    // select() exercises the internal ranking buffer too. Both calls
    // count as petitions (the blind model's round-robin cursor moves
    // per call, so their winners are not compared).
    picks += model.select(pool, ctx).value();
    picks += out.size();
  };

  // Warm: scratch vectors grow to the petition's high-water mark, `out`
  // and the models' internal ranking buffers reach capacity.
  for (auto* model : models) {
    for (int i = 0; i < 8; ++i) petition(*model, i);
  }

  AllocationGuard guard;
  for (auto* model : models) {
    for (int i = 0; i < 1000; ++i) petition(*model, i);
  }
  const std::size_t allocations = guard.count();
  EXPECT_EQ(0u, allocations) << "selection petition path allocated";
  EXPECT_GT(picks, 0u);
}

TEST(AllocationGuard, EconAdmissionIsAllocationFreeOnceWarmed) {
  stats::HistoryStore history;
  std::vector<core::PeerSnapshot> pool;
  for (int i = 0; i < 32; ++i) {
    core::PeerSnapshot s;
    s.peer = PeerId(static_cast<std::uint64_t>(i + 1));
    s.node = NodeId(static_cast<std::uint64_t>(i + 100));
    s.cpu_ghz = 1.0 + (i % 5) * 0.6;
    s.price_per_cpu_second = 0.5 + (i % 3) * 0.25;
    s.idle = i % 4 != 0;
    s.queued_tasks = i % 3;
    s.active_transfers = i % 2;
    s.history = &history;
    history.record_response_time(s.peer, 0.05 * (i % 7 + 1));
    stats::TransferRecord transfer;
    transfer.peer = s.peer;
    transfer.size = megabytes(1.0 + i % 4);
    transfer.duration = 0.5 + 0.25 * (i % 6);
    transfer.ok = true;
    history.record_transfer(transfer);
    pool.push_back(s);
  }
  econ::EconConfig config;
  config.enabled = true;
  econ::EconEngine engine(config);

  std::vector<PeerId> model_order;
  for (auto it = pool.rbegin(); it != pool.rend(); ++it) model_order.push_back(it->peer);
  const auto scored = peerlab::testing::scored_by_rank(pool, model_order);
  std::vector<PeerId> ranking;
  core::SelectionContext ctx;
  ctx.purpose = core::SelectionContext::Purpose::kFileTransfer;
  ctx.payload_size = megabytes(10.0);
  std::uint64_t picks = 0;
  // One petition per simulated second under every objective, with
  // tight and loose contracts alternating (exhausted and admitted
  // verdicts both), each noting its winner as an assignment hint.
  const auto petition = [&](int i) {
    ctx.now = static_cast<Seconds>(i);
    ctx.deadline = ctx.now + (i % 2 == 0 ? 30.0 : 1e6);
    ctx.budget = i % 3 == 0 ? 0.01 : 100.0;
    ctx.objective = static_cast<core::EconObjective>(i % 5);
    const auto verdict = engine.admit(pool, scored, ctx, scored.size(), ranking);
    picks += verdict.feasible;
    engine.note_assignment(ranking.front(), ctx.now);
  };

  // Warm: member scratch and the hint list reach their high-water
  // marks (hints expire after assignment_hold, so the list plateaus).
  for (int i = 0; i < 200; ++i) petition(i);

  AllocationGuard guard;
  for (int i = 200; i < 1200; ++i) petition(i);
  const std::size_t allocations = guard.count();
  EXPECT_EQ(0u, allocations) << "econ admission allocated";
  EXPECT_GT(picks, 0u);
}

/// Allocations made by `petitions` defended, econ-enabled broker
/// selections over a registry of `clients`, after a warm-up.
std::size_t defended_econ_selection_allocations(int clients, int petitions) {
  overlay::testing::WorldOptions options;
  options.clients = clients;
  options.broker_config.reputation.enabled = true;
  options.broker_config.econ.enabled = true;
  overlay::testing::OverlayWorld world(options);
  world.broker->set_selection_model(std::make_unique<core::EconomicSchedulingModel>());
  world.boot(2.0);

  std::size_t allocations = 0;
  std::uint64_t picks = 0;
  core::SelectionContext ctx;
  ctx.purpose = core::SelectionContext::Purpose::kFileTransfer;
  ctx.payload_size = megabytes(4.0);
  ctx.exclude.reserve(8);
  const auto petition = [&](int i, bool counted) {
    world.sim.run_until(world.sim.now() + 1.0);
    ctx.now = world.sim.now();
    // Constrained (econ admission) and plain (defended scan) petitions
    // alternate; one exclude rides along. Each arm asks for 1, 2 or 3
    // peers, and for 16 one petition in four.
    ctx.deadline = i % 2 == 0 ? ctx.now + 600.0 : 0.0;
    ctx.budget = i % 2 == 0 ? 50.0 : 0.0;
    ctx.exclude.assign(1, PeerId(static_cast<std::uint64_t>(i % clients) + 2));
    const std::size_t k = i % 8 >= 6 ? 16 : 1 + static_cast<std::size_t>(i % 3);
    g_allocations = 0;
    g_tracking = counted;
    const auto selected = world.broker->select_peers(ctx, k);
    g_tracking = false;
    allocations += g_allocations;
    picks += selected.size();
  };
  for (int i = 0; i < 64; ++i) petition(i, false);
  for (int i = 0; i < petitions; ++i) petition(i, true);
  EXPECT_GT(picks, 0u);
  return allocations;
}

TEST(AllocationGuard, DefendedEconSelectionAllocationsDoNotGrowWithRegistry) {
  constexpr int kPetitions = 200;
  const std::size_t small = defended_econ_selection_allocations(64, kPetitions);
  const std::size_t large = defended_econ_selection_allocations(1024, kPetitions);
  EXPECT_EQ(small, large);
  // Only the answer vector itself: one allocation per petition.
  EXPECT_LE(small, static_cast<std::size_t>(kPetitions));
}

/// Allocations per heartbeat over one steady-state heartbeat period of
/// a world of `clients`, all beating in phase.
std::size_t heartbeat_allocations_per_beat(int clients) {
  overlay::testing::WorldOptions options;
  options.clients = clients;
  overlay::testing::OverlayWorld world(options);
  const Seconds period = options.client_config.heartbeat_interval;
  world.boot(1.0);
  // Warm: every ticket store, hash table and event-pool list past its
  // high-water mark.
  world.sim.run_until(world.sim.now() + 20 * period);
  const std::uint64_t beats_before = world.broker->heartbeats_received();
  g_allocations = 0;
  g_tracking = true;
  world.sim.run_until(world.sim.now() + period);
  g_tracking = false;
  const std::uint64_t beats = world.broker->heartbeats_received() - beats_before;
  EXPECT_EQ(beats, static_cast<std::uint64_t>(clients));
  // Rounded down: the stats-report ticket store's FIFO allocates one
  // chunk per 64 parks, a fraction of an allocation per beat.
  return beats == 0 ? 0 : g_allocations / beats;
}

TEST(AllocationGuard, HeartbeatRoundAllocationsDoNotGrowWithRegistry) {
  // What one control datagram costs when its closure is too big for
  // std::function's inline buffer: that closure and the network's
  // arrival wrapper.
  overlay::testing::WorldOptions options;
  options.clients = 2;
  overlay::testing::OverlayWorld world(options);
  const auto bare_datagram = [&] {
    std::uint64_t a = 1, b = 2, c = 3, d = 4;
    g_allocations = 0;
    g_tracking = true;
    world.network->send_datagram(world.client(0).node(), NodeId(1), 4 * kKilobyte,
                                 [a, b, c, d] { keep_alive(a + b + c + d); });
    world.sim.run_until(world.sim.now() + 5.0);
    g_tracking = false;
    return g_allocations;
  };
  (void)bare_datagram();  // the event pool's first slot
  const std::size_t datagram = bare_datagram();
  ASSERT_GT(datagram, 0u);

  // A heartbeat round sends three datagrams (heartbeat, self-observed
  // stats report, advert republish) and parks one stats report; nothing
  // in it may scale with the registry.
  const std::size_t small = heartbeat_allocations_per_beat(16);
  const std::size_t large = heartbeat_allocations_per_beat(256);
  EXPECT_EQ(small, large) << "a heartbeat's cost grew with the registry";
  EXPECT_LE(small, 3 * datagram + 1) << "a heartbeat allocated beyond its datagrams";

  // The advert republish alone, as a client makes it: re-stamping a
  // shared edition costs no more than a bare datagram — no copy of the
  // attribute map and no index key, at the publisher or at the
  // rendezvous.
  auto adv = std::make_shared<jxta::Advertisement>();
  adv->kind = jxta::AdvertisementKind::kPeer;
  adv->publisher = world.client(0).id();
  adv->name = "republished-peer.advert.example";
  adv->home = world.client(0).node();
  adv->attributes["cpu_ghz"] = "1.800000";
  adv->attributes["price"] = "1.250000";
  adv->attributes["role"] = "simpleclient";
  const std::shared_ptr<const jxta::Advertisement> shared = adv;
  const auto republish = [&] {
    g_allocations = 0;
    g_tracking = true;
    world.client(0).discovery().publish(shared, 120.0);
    world.sim.run_until(world.sim.now() + 5.0);
    g_tracking = false;
    return g_allocations;
  };
  (void)republish();  // the first edition is built here
  EXPECT_LE(republish(), datagram) << "the republish copied the advertisement";
  jxta::AdvertisementQuery query;
  query.name = shared->name;
  EXPECT_EQ(world.broker->rendezvous().query(query).size(), 1u);
}

TEST(AllocationGuard, HistoryAllocatesOnlyTheRecordKindsAPeerUses) {
  // What one record kind's storage costs: a FIFO holding one record.
  std::size_t fifo_cost = 0;
  {
    AllocationGuard guard;
    std::deque<Seconds> fifo;
    fifo.push_back(0.25);
    fifo_cost = guard.count();
  }
  ASSERT_GT(fifo_cost, 0u);

  stats::HistoryStore history(16);
  history.record_response_time(PeerId(1), 0.5);  // sizes the peer map's buckets
  std::size_t first_response = 0;
  {
    AllocationGuard guard;
    history.record_response_time(PeerId(2), 0.5);
    first_response = guard.count();
  }
  // The peer's record node plus its response FIFO: no task or transfer
  // storage for a peer seen only through petition round trips.
  EXPECT_EQ(first_response, 1 + fifo_cost);
  std::size_t steady = 0;
  bool unrecorded_kinds_empty = false;
  {
    AllocationGuard guard;
    for (int i = 0; i < 8; ++i) history.record_response_time(PeerId(2), 0.25 * i);
    unrecorded_kinds_empty = !history.mean_transfer_rate(PeerId(2)).has_value() &&
                             !history.mean_effective_speed(PeerId(2)).has_value() &&
                             history.task_count(PeerId(2)) == 0;
    steady = guard.count();
  }
  EXPECT_EQ(steady, 0u) << "more responses, or reading unrecorded kinds, allocated";
  EXPECT_TRUE(unrecorded_kinds_empty);
  // The first task record allocates the task FIFO then, and only it.
  stats::TaskRecord task;
  task.task = TaskId(1);
  task.peer = PeerId(2);
  task.finished = 1.0;
  task.ok = true;
  task.work = 1.0;
  std::size_t first_task = 0;
  {
    AllocationGuard guard;
    history.record_task(task);
    first_task = guard.count();
  }
  std::size_t one_task_fifo = 0;
  {
    AllocationGuard guard;
    std::deque<stats::TaskRecord> fifo;
    fifo.push_back(task);
    one_task_fifo = guard.count();
  }
  EXPECT_EQ(first_task, one_task_fifo);
  EXPECT_EQ(history.task_count(PeerId(2)), 1u);
}

}  // namespace
}  // namespace peerlab
