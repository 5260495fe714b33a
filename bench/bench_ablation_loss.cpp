// Ablation: robustness under control-plane loss. The overlay's
// protocols (petition handshake, confirms, offers, discovery) all ride
// lossy datagrams with retry; this sweep raises the loss rate and
// reports completion rates and the latency tax.

#include "bench_common.hpp"
#include "peerlab/planetlab/deployment.hpp"

using namespace peerlab;
using namespace peerlab::experiments;

namespace {

struct LossResult {
  int transfers_ok = 0;
  int tasks_ok = 0;
  double mean_transfer_s = 0.0;
};

LossResult run_under_loss(std::uint64_t seed, double datagram_loss) {
  sim::Simulator sim(seed);
  planetlab::DeploymentOptions opts;
  opts.network.datagram_loss = datagram_loss;
  planetlab::Deployment dep(sim, opts);
  dep.boot();

  LossResult result;
  double transfer_sum = 0.0;
  constexpr int kOps = 8;
  for (int i = 0; i < kOps; ++i) {
    const int sc = 1 + (i % 8);
    sim.schedule(static_cast<double>(i) * 400.0, [&, sc] {
      transport::FileTransferConfig cfg;
      cfg.file_size = megabytes(5.0);
      cfg.parts = 4;
      cfg.petition_retry.initial_timeout = 60.0;
      cfg.petition_retry.max_attempts = 8;
      cfg.confirm_timeout = 30.0;
      cfg.max_confirm_queries = 10;
      dep.control().files().send_file(dep.sc_peer(sc), cfg,
                                      [&](const transport::TransferResult& r) {
                                        if (r.complete) {
                                          ++result.transfers_ok;
                                          transfer_sum += r.transmission_time();
                                        }
                                      });
      overlay::TaskSubmission sub;
      sub.executor = dep.sc_peer(1 + (sc % 8));
      sub.work = 30.0;
      dep.control().task_service().submit(sub, [&](const overlay::TaskOutcome& o) {
        result.tasks_ok += (o.accepted && o.ok) ? 1 : 0;
      });
    });
  }
  sim.run();
  if (result.transfers_ok > 0) result.mean_transfer_s = transfer_sum / result.transfers_ok;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = peerlab::bench::parse_options(argc, argv);
  peerlab::bench::refuse_observability(options, "bench_ablation_loss");
  print_figure_header("Ablation", "Protocol robustness under datagram loss");

  Table table("8 transfers + 8 tasks per run (mean of " +
                  std::to_string(options.repetitions) + " runs)",
              {"datagram loss", "transfers ok", "tasks ok", "mean transfer (s)"});
  double clean_transfers = 0.0, lossy_transfers = 0.0;
  double clean_time = 0.0, lossy_time = 0.0;
  for (const double loss : {0.0, 0.05, 0.15, 0.30}) {
    sim::Summary transfers, tasks, seconds;
    for (int rep = 0; rep < options.repetitions; ++rep) {
      const auto result = run_under_loss(
          repetition_seed(options, rep) ^ static_cast<std::uint64_t>(loss * 100), loss);
      transfers.add(result.transfers_ok);
      tasks.add(result.tasks_ok);
      seconds.add(result.mean_transfer_s);
    }
    table.add_row({cell(loss, 2), cell(transfers.mean(), 1), cell(tasks.mean(), 1),
                   cell(seconds.mean(), 1)});
    if (loss == 0.0) {
      clean_transfers = transfers.mean();
      clean_time = seconds.mean();
    }
    if (loss == 0.30) {
      lossy_transfers = transfers.mean();
      lossy_time = seconds.mean();
    }
  }
  std::printf("%s\n", table.render().c_str());
  table.write_csv("bench_ablation_loss.csv");

  bool ok = true;
  ok &= shape_check("clean network completes everything", clean_transfers >= 7.9);
  ok &= shape_check("30% loss still completes most transfers (retry machinery works)",
                    lossy_transfers >= clean_transfers * 0.8);
  ok &= shape_check("loss costs latency, not correctness", lossy_time >= clean_time);
  return ok ? 0 : 1;
}
