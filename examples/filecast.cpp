// Filecast: scatter a large file across broker-selected peers with one
// call (Primitives::distribute_file), with causal tracing enabled — the
// trace is dumped to filecast.trace.jsonl for offline analysis.
//
//   $ ./filecast
//   $ python3 scripts/trace_analyze.py filecast.trace.jsonl

#include <cstdio>

#include "peerlab/core/economic.hpp"
#include "peerlab/obs/trace.hpp"
#include "peerlab/planetlab/deployment.hpp"

using namespace peerlab;

int main() {
  sim::Simulator sim(/*seed=*/2024);
  obs::trace::TraceRecorder recorder(sim);  // declared first: outlives the deployment
  planetlab::Deployment dep(sim);
  dep.attach_tracing(&recorder);
  dep.boot();
  dep.broker().set_selection_model(std::make_unique<core::EconomicSchedulingModel>());
  overlay::Primitives api(dep.control());

  constexpr double kFileMb = 100.0;
  constexpr int kParts = 16;
  std::printf("filecast: scattering a %.0f MB file in %d parts over broker-selected peers\n",
              kFileMb, kParts);

  // Baseline: the same file to a single broker-selected peer.
  Seconds single_peer = 0.0;
  core::SelectionContext ctx;
  ctx.purpose = core::SelectionContext::Purpose::kFileTransfer;
  ctx.payload_size = megabytes(kFileMb);
  api.select_peers(ctx, 1, [&](std::vector<PeerId> best) {
    if (best.empty()) return;
    api.send_file(best.front(), megabytes(kFileMb), kParts,
                  [&](const transport::TransferResult& r) {
                    if (r.complete) single_peer = r.transmission_time();
                  });
  });
  sim.run();

  // Scatter: parts spread over up to 16 selected peers, in parallel.
  std::optional<overlay::FileService::DistributionResult> scattered;
  api.distribute_file(megabytes(kFileMb), kParts,
                      [&](const overlay::FileService::DistributionResult& r) {
                        scattered = r;
                      });
  sim.run();

  if (!scattered || !scattered->complete) {
    std::printf("scatter failed\n");
    return 1;
  }
  std::printf("\n%-28s %-7s %-9s %-12s\n", "peer share", "parts", "MB", "time (s)");
  std::printf("----------------------------------------------------------\n");
  for (const auto& share : scattered->shares) {
    std::printf("%-28s %-7d %-9.1f %-12.1f\n", to_string(share.peer).c_str(), share.parts,
                to_megabytes(share.bytes), share.transmission_time);
  }
  std::printf("\nsingle-peer delivery: %.1f s (%.1f min)\n", single_peer,
              to_minutes(single_peer));
  std::printf("scattered delivery:   %.1f s (%.1f min) — %.1fx faster\n",
              scattered->makespan(), to_minutes(scattered->makespan()),
              single_peer / scattered->makespan());

  recorder.write_jsonl("filecast.trace.jsonl");
  std::printf("\n%llu trace records written to filecast.trace.jsonl (%llu dropped)\n",
              static_cast<unsigned long long>(recorder.recorded()),
              static_cast<unsigned long long>(recorder.dropped()));
  return 0;
}
