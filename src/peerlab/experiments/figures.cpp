#include "peerlab/experiments/figures.hpp"

#include <algorithm>
#include <map>

#include "peerlab/common/check.hpp"

namespace peerlab::experiments {

namespace {

using overlay::node_of;
using planetlab::Deployment;
using transport::FileTransferConfig;
using transport::TransferResult;

/// Transfer config used by the figure workloads: patient petition
/// handshake (SC7 answers after ~27 s) and generous confirmation
/// handling for multi-minute parts.
FileTransferConfig figure_transfer(Bytes size, int parts) {
  FileTransferConfig cfg;
  cfg.file_size = size;
  cfg.parts = parts;
  cfg.petition_retry.initial_timeout = 90.0;
  cfg.petition_retry.max_attempts = 6;
  cfg.confirm_timeout = 60.0;
  cfg.max_confirm_queries = 10;
  cfg.max_part_attempts = 24;
  return cfg;
}

/// Runs one staggered transfer per SC in a fresh world and extracts a
/// per-peer metric from the TransferResult. With options.trace_path
/// set, every transfer rides its own causal chain and the repetition's
/// dump lands under `tag`.
template <typename Extract>
std::array<double, 8> per_peer_transfer_metric(const RunOptions& options, Repetition& rep,
                                               std::uint64_t seed, const std::string& tag,
                                               Bytes size, int parts, Seconds stagger,
                                               Extract extract) {
  World world(options, seed);
  world.observe(rep, tag);
  Deployment& dep = world.dep();
  std::array<double, 8> values{};
  std::array<bool, 8> done{};
  for (int i = 1; i <= 8; ++i) {
    const PeerId dst = dep.sc_peer(i);
    world.sim().schedule(static_cast<double>(i - 1) * stagger, [&, i, dst] {
      FileTransferConfig cfg = figure_transfer(size, parts);
      cfg.trace = world.root();
      dep.control().files().send_file(dst, cfg,
                                      [&, i](const TransferResult& result) {
                                        PEERLAB_CHECK_MSG(result.complete,
                                                          "figure transfer failed");
                                        values[static_cast<std::size_t>(i - 1)] =
                                            extract(result);
                                        done[static_cast<std::size_t>(i - 1)] = true;
                                      });
    });
  }
  world.run();
  for (const bool d : done) PEERLAB_CHECK_MSG(d, "transfer never completed");
  world.finish();
  return values;
}

PerPeer merge(const std::vector<std::array<double, 8>>& reps) {
  PerPeer out{};
  for (const auto& rep : reps) {
    for (std::size_t i = 0; i < 8; ++i) out[i].add(rep[i]);
  }
  return out;
}

}  // namespace

PerPeer run_fig2_petition(const RunOptions& options) {
  // The paper measures how long the peer takes to receive the petition
  // for a file transmission. A small probe file keeps the data phase
  // out of the way.
  const auto reps = run_repetitions<std::array<double, 8>>(
      options, [&options](Repetition& rep) {
        return per_peer_transfer_metric(options, rep, rep.seed, "", megabytes(1.0), 1,
                                        /*stagger=*/600.0,
                                        [](const TransferResult& r) {
                                          return r.petition_time();
                                        });
      });
  return merge(reps);
}

PerPeer run_fig3_transfer50(const RunOptions& options) {
  const auto reps = run_repetitions<std::array<double, 8>>(
      options, [&options](Repetition& rep) {
        return per_peer_transfer_metric(options, rep, rep.seed, "", kFig3FileSize, 1,
                                        /*stagger=*/30000.0,
                                        [](const TransferResult& r) {
                                          return r.transmission_time();
                                        });
      });
  return merge(reps);
}

PerPeer run_fig4_last_mb(const RunOptions& options) {
  const auto reps = run_repetitions<std::array<double, 8>>(
      options, [&options](Repetition& rep) {
        return per_peer_transfer_metric(options, rep, rep.seed, "", kFig3FileSize, 1,
                                        /*stagger=*/30000.0,
                                        [](const TransferResult& r) {
                                          return r.last_mb_time();
                                        });
      });
  return merge(reps);
}

Fig5Result run_fig5_granularity(const RunOptions& options) {
  struct Rep {
    std::array<double, 8> whole;
    std::array<double, 8> four;
    std::array<double, 8> sixteen;
  };
  const auto reps = run_repetitions<Rep>(options, [&options](Repetition& r) {
    Rep rep;
    // Distinct sub-seeds per granularity: independent worlds, matching
    // the paper's independently-run configurations.
    rep.whole = per_peer_transfer_metric(options, r, r.seed ^ 0x51ull, "whole",
                                         kFig5FileSize, 1, 40000.0,
                                         [](const TransferResult& res) {
                                           return res.transmission_time();
                                         });
    rep.four = per_peer_transfer_metric(options, r, r.seed ^ 0x52ull, "p4",
                                        kFig5FileSize, 4, 40000.0,
                                        [](const TransferResult& res) {
                                          return res.transmission_time();
                                        });
    rep.sixteen = per_peer_transfer_metric(options, r, r.seed ^ 0x53ull, "p16",
                                           kFig5FileSize, 16, 40000.0,
                                           [](const TransferResult& res) {
                                             return res.transmission_time();
                                           });
    return rep;
  });
  Fig5Result result;
  std::vector<std::array<double, 8>> w, f, s;
  for (const auto& rep : reps) {
    w.push_back(rep.whole);
    f.push_back(rep.four);
    s.push_back(rep.sixteen);
  }
  result.whole = merge(w);
  result.four = merge(f);
  result.sixteen = merge(s);
  return result;
}

namespace {

/// Saturates two historically-quick peers (SC4, SC8) so "current
/// state" and "historical impression" disagree — the axis the three
/// models differ on. Six sustained bulk streams each: their downlinks
/// saturate and their heartbeats report pending transfers. Each stream
/// re-sends an 8 MB block (high per-flow rate cap, so the access link —
/// not the degradation cap — is the bottleneck) a bounded number of
/// times so the run still drains.
void background_stream(Deployment& dep, NodeId dst, int remaining) {
  if (remaining <= 0) return;
  dep.network().start_message(dep.control().node(), dst, megabytes(8.0),
                              [&dep, dst, remaining](bool, Seconds) {
                                background_stream(dep, dst, remaining - 1);
                              });
}

/// Ideal (uncontended, lossless) duration of `n_parts` sequential
/// parts of `part_size` into `node`: per-part wire time at the
/// degradation-capped nominal rate.
Seconds ideal_parts_time(Deployment& dep, NodeId node, Bytes part_size, int n_parts) {
  const auto& profile = dep.network().topology().node(node).profile();
  const MbitPerSec cap = dep.network().degradation().cap(profile.downlink_mbps, part_size);
  return static_cast<double>(n_parts) * wire_time(part_size, cap);
}

/// Runs the fig6 measurement for one model at one granularity.
/// Returns the mean per-part selection-and-dispatch overhead. The
/// world boots, warms up so the broker's history knows every peer's
/// petition latency and achieved rate, and starts the background
/// load; only then is it observed, so the metric series (suffixed per
/// model) and the trace cover just the measured workload.
double fig6_overhead(const RunOptions& options, Repetition& rep, Model model, int parts) {
  World world(options, rep.seed);
  Deployment& dep = world.dep();
  dep.boot();
  world.warm_up(figure_transfer(megabytes(4.0), 4), /*rounds=*/3, /*spacing=*/400.0);
  for (const int busy : {4, 8}) {
    for (int f = 0; f < 6; ++f) background_stream(dep, dep.sc(busy).node(), /*remaining=*/40);
  }
  // Let two heartbeat rounds carry the new pending counts.
  world.run_until(world.sim().now() + 65.0);

  const std::string name = kModelNames[static_cast<int>(model)];
  world.observe(rep, name + ".p" + std::to_string(parts));
  world.bind(model);

  const Bytes part_size = kFig5FileSize / parts;

  // 1. Broker-mediated selection over the wire.
  const obs::trace::TraceContext workload = world.root();
  core::SelectionContext ctx;
  ctx.purpose = core::SelectionContext::Purpose::kFileTransfer;
  ctx.payload_size = kFig5FileSize;
  ctx.trace = workload;
  const World::Selection selection =
      world.select(ctx, static_cast<std::size_t>(parts), /*window=*/120.0);

  // 2. Round-robin the parts over the selected peers and send each
  //    peer its share as one multi-part transfer.
  std::map<PeerId, int> share;
  for (int p = 0; p < parts; ++p) {
    share[selection.peers[static_cast<std::size_t>(p) % selection.peers.size()]] += 1;
  }
  double overhead_sum = selection.elapsed;
  int outstanding = 0;
  for (const auto& [peer, n] : share) {
    ++outstanding;
    const Seconds ideal = ideal_parts_time(dep, node_of(peer), part_size, n);
    FileTransferConfig cfg = figure_transfer(part_size * n, n);
    cfg.trace = workload;  // inactive while untraced
    dep.control().files().send_file(
        peer, cfg, [&, ideal](const TransferResult& result) {
          PEERLAB_CHECK_MSG(result.complete, "fig6 transfer failed");
          overhead_sum += result.petition_time();
          overhead_sum += std::max(0.0, result.transmission_time() - ideal);
          --outstanding;
        });
  }
  world.run();
  PEERLAB_CHECK_MSG(outstanding == 0, "fig6 transfers did not drain");
  world.finish("." + name);
  return overhead_sum / static_cast<double>(parts);
}

}  // namespace

Fig6Result run_fig6_models(const RunOptions& options) {
  struct Rep {
    std::array<double, 3> four;
    std::array<double, 3> sixteen;
  };
  const auto reps = run_repetitions<Rep>(options, [&options](Repetition& r) {
    Rep rep;
    for (int m = 0; m < 3; ++m) {
      // Identical world per model (same seed): apples-to-apples.
      rep.four[static_cast<std::size_t>(m)] =
          fig6_overhead(options, r, static_cast<Model>(m), 4);
      rep.sixteen[static_cast<std::size_t>(m)] =
          fig6_overhead(options, r, static_cast<Model>(m), 16);
    }
    return rep;
  });
  Fig6Result result;
  for (const auto& rep : reps) {
    for (std::size_t m = 0; m < 3; ++m) {
      result.four_parts[m].add(rep.four[m]);
      result.sixteen_parts[m].add(rep.sixteen[m]);
    }
  }
  return result;
}

Fig7Result run_fig7_execution(const RunOptions& options) {
  struct Rep {
    std::array<double, 8> just_exec;
    std::array<double, 8> trans_exec;
  };
  const auto reps = run_repetitions<Rep>(options, [&options](Repetition& r) {
    Rep rep{};
    World world(options, r.seed);
    world.observe(r);
    sim::Simulator& sim = world.sim();
    Deployment& dep = world.dep();
    dep.boot();
    std::array<bool, 8> done_a{}, done_b{};

    // Phase A: just execution (no input payload).
    Seconds at = sim.now() + 10.0;
    for (int i = 1; i <= 8; ++i) {
      const PeerId dst = dep.sc_peer(i);
      sim.schedule_at(at, [&, i, dst] {
        overlay::TaskSubmission sub;
        sub.executor = dst;
        sub.work = kFig7Work;
        dep.control().task_service().submit(sub, [&, i](const overlay::TaskOutcome& o) {
          PEERLAB_CHECK_MSG(o.accepted && o.ok, "fig7 execution failed");
          rep.just_exec[static_cast<std::size_t>(i - 1)] = o.completed - o.offer_acked;
          done_a[static_cast<std::size_t>(i - 1)] = true;
        });
      });
      at += 4000.0;
    }

    // Phase B: ship the 100 MB input (16 parts), then execute.
    at += 4000.0;
    for (int i = 1; i <= 8; ++i) {
      const PeerId dst = dep.sc_peer(i);
      sim.schedule_at(at, [&, i, dst] {
        overlay::TaskSubmission sub;
        sub.executor = dst;
        sub.work = kFig7Work;
        sub.input_size = kFig7InputSize;
        sub.input_parts = 16;
        dep.control().task_service().submit(sub, [&, i](const overlay::TaskOutcome& o) {
          PEERLAB_CHECK_MSG(o.accepted && o.ok, "fig7 transfer+execution failed");
          rep.trans_exec[static_cast<std::size_t>(i - 1)] = o.turnaround();
          done_b[static_cast<std::size_t>(i - 1)] = true;
        });
      });
      at += 6000.0;
    }
    world.run();
    for (int i = 0; i < 8; ++i) {
      PEERLAB_CHECK_MSG(done_a[static_cast<std::size_t>(i)] && done_b[static_cast<std::size_t>(i)],
                        "fig7 task never finished");
    }
    world.finish();
    return rep;
  });

  Fig7Result result;
  for (const auto& rep : reps) {
    for (std::size_t i = 0; i < 8; ++i) {
      result.just_execution[i].add(rep.just_exec[i]);
      result.transmission_execution[i].add(rep.trans_exec[i]);
    }
  }
  return result;
}

}  // namespace peerlab::experiments
