// Ablation: cross traffic. PlanetLab links carried other slices'
// flows; this sweep raises the background load and measures what the
// overlay's 16-part transfers feel — and whether informed selection
// keeps helping when the whole substrate is noisy.

#include "bench_common.hpp"
#include "peerlab/core/economic.hpp"
#include "peerlab/net/background.hpp"
#include "peerlab/planetlab/deployment.hpp"

using namespace peerlab;
using namespace peerlab::experiments;

namespace {

struct NoiseResult {
  double mean_transfer_s = 0.0;
  int complete = 0;
};

NoiseResult run_noisy(std::uint64_t seed, Seconds interarrival) {
  sim::Simulator sim(seed);
  planetlab::Deployment dep(sim);
  dep.boot();

  net::BackgroundTrafficConfig noise;
  noise.mean_interarrival = interarrival;
  noise.min_size = megabytes(1.0);
  noise.max_size = megabytes(16.0);
  noise.max_flows = 400;
  std::optional<net::BackgroundTraffic> traffic;
  if (interarrival > 0.0) {
    traffic.emplace(dep.network(), noise);
    traffic->start();
  }

  NoiseResult result;
  double sum = 0.0;
  constexpr int kTransfers = 8;
  for (int i = 0; i < kTransfers; ++i) {
    const int sc = 1 + (i % 8);
    sim.schedule(static_cast<double>(i) * 400.0, [&, sc] {
      transport::FileTransferConfig cfg;
      cfg.file_size = megabytes(20.0);
      cfg.parts = 16;
      cfg.petition_retry.initial_timeout = 90.0;
      cfg.confirm_timeout = 60.0;
      dep.control().files().send_file(dep.sc_peer(sc), cfg,
                                      [&](const transport::TransferResult& r) {
                                        if (r.complete) {
                                          ++result.complete;
                                          sum += r.transmission_time();
                                        }
                                      });
    });
  }
  sim.run_until(sim.now() + 40000.0);
  if (traffic) traffic->stop();
  sim.run();
  if (result.complete > 0) result.mean_transfer_s = sum / result.complete;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = peerlab::bench::parse_options(argc, argv);
  peerlab::bench::refuse_observability(options, "bench_ablation_crosstraffic");
  print_figure_header("Ablation", "Cross traffic on the substrate");

  Table table("8 x 20 MB / 16-part transfers under background load (mean of " +
                  std::to_string(options.repetitions) + " runs)",
              {"mean interarrival (s)", "transfers ok", "mean transfer (s)"});
  double quiet_time = 0.0, noisy_time = 0.0;
  double min_complete = 1e18;
  const double levels[] = {0.0, 60.0, 15.0, 5.0};
  for (const double level : levels) {
    sim::Summary ok, seconds;
    for (int rep = 0; rep < options.repetitions; ++rep) {
      const auto r = run_noisy(repetition_seed(options, rep) ^
                                   static_cast<std::uint64_t>(level * 10.0),
                               level);
      ok.add(r.complete);
      seconds.add(r.mean_transfer_s);
    }
    table.add_row({level == 0.0 ? "quiet" : cell(level, 0), cell(ok.mean(), 1),
                   cell(seconds.mean(), 1)});
    if (level == 0.0) quiet_time = seconds.mean();
    if (level == 5.0) noisy_time = seconds.mean();
    min_complete = std::min(min_complete, ok.mean());
  }
  std::printf("%s\n", table.render().c_str());
  table.write_csv("bench_ablation_crosstraffic.csv");

  bool ok = true;
  ok &= shape_check("transfers complete even under heavy cross traffic",
                    min_complete >= 7.5);
  ok &= shape_check("cross traffic slows transfers down (quiet " + cell(quiet_time, 1) +
                        "s vs noisy " + cell(noisy_time, 1) + "s)",
                    noisy_time > quiet_time);
  return ok ? 0 : 1;
}
