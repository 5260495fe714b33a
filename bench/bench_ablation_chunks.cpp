// Ablation: granularity sweep beyond the paper's {1, 4, 16}. Where is
// the knee? Smaller parts relieve the JXTA large-message degradation
// but pay a petition/confirm round-trip per part; the sweep exposes
// the optimum for a fast peer (SC2) and the straggler (SC7).

#include "bench_common.hpp"
#include "peerlab/planetlab/deployment.hpp"

using namespace peerlab;
using namespace peerlab::experiments;

namespace {

double transfer_minutes(std::uint64_t seed, int sc, int parts) {
  sim::Simulator sim(seed);
  planetlab::Deployment dep(sim);
  transport::FileTransferConfig cfg;
  cfg.file_size = kFig5FileSize;
  cfg.parts = parts;
  cfg.petition_retry.initial_timeout = 90.0;
  cfg.confirm_timeout = 60.0;
  cfg.max_part_attempts = 24;
  double minutes = -1.0;
  dep.control().files().send_file(dep.sc_peer(sc), cfg,
                                  [&](const transport::TransferResult& r) {
                                    if (r.complete) minutes = to_minutes(r.transmission_time());
                                  });
  sim.run();
  PEERLAB_CHECK_MSG(minutes >= 0.0, "ablation transfer failed");
  return minutes;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = peerlab::bench::parse_options(argc, argv);
  peerlab::bench::refuse_observability(options, "bench_ablation_chunks");
  print_figure_header("Ablation", "Chunk-size sweep for a 100 MB transfer");

  const int sweeps[] = {1, 2, 4, 8, 16, 32, 64, 128, 256};
  Table table("100 MB transmission time vs part count (minutes, mean of " +
                  std::to_string(options.repetitions) + " runs)",
              {"parts", "part size MB", "SC2 (fast)", "SC7 (straggler)"});

  double sc2_best = 1e18, sc2_whole = 0.0;
  int sc2_best_parts = 0;
  for (const int parts : sweeps) {
    sim::Summary sc2, sc7;
    for (int rep = 0; rep < options.repetitions; ++rep) {
      const auto seed = repetition_seed(options, rep) ^ static_cast<std::uint64_t>(parts);
      sc2.add(transfer_minutes(seed, 2, parts));
      sc7.add(transfer_minutes(seed * 31, 7, parts));
    }
    table.add_row({std::to_string(parts), cell(100.0 / parts, 2), cell(sc2.mean(), 2),
                   cell(sc7.mean(), 2)});
    if (parts == 1) sc2_whole = sc2.mean();
    if (sc2.mean() < sc2_best) {
      sc2_best = sc2.mean();
      sc2_best_parts = parts;
    }
  }
  std::printf("%s\n", table.render().c_str());
  table.write_csv("bench_ablation_chunks.csv");

  bool ok = true;
  ok &= shape_check("finer granularity beats the monolith by >8x on SC2 (best " +
                        std::to_string(sc2_best_parts) + " parts)",
                    sc2_whole / sc2_best > 8.0);
  ok &= shape_check("the knee lies beyond the paper's 16 parts but before 512",
                    sc2_best_parts >= 16 && sc2_best_parts <= 256);
  return ok ? 0 : 1;
}
