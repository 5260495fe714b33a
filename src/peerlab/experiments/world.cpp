#include "peerlab/experiments/world.hpp"

#include <limits>
#include <utility>

#include "peerlab/common/check.hpp"
#include "peerlab/core/blind.hpp"
#include "peerlab/core/data_evaluator.hpp"
#include "peerlab/core/economic.hpp"
#include "peerlab/core/hybrid.hpp"
#include "peerlab/core/user_preference.hpp"

namespace peerlab::experiments {

transport::FileTransferConfig failover_transfer() {
  transport::FileTransferConfig cfg;
  cfg.petition_retry.initial_timeout = 15.0;
  cfg.petition_retry.backoff = 1.5;
  cfg.petition_retry.max_attempts = 4;
  cfg.confirm_timeout = 30.0;
  cfg.max_confirm_queries = 6;
  cfg.max_part_attempts = 6;
  return cfg;
}

overlay::DistributionOptions failover_options() {
  overlay::DistributionOptions options;
  options.max_failovers_per_share = 4;
  options.backoff_initial = 10.0;
  options.backoff_factor = 2.0;
  options.backoff_cap = 120.0;
  return options;
}

World::World(const RunOptions& options, std::uint64_t seed,
             planetlab::DeploymentOptions deployment)
    : options_(options),
      sim_(seed),
      registry_(std::make_unique<obs::MetricRegistry>()),
      dep_(sim_, std::move(deployment)) {}

World::~World() {
  if (recorder_ != nullptr) dep_.attach_tracing(nullptr);
}

void World::observe(Repetition& rep, const std::string& tag) {
  PEERLAB_CHECK_MSG(rep_ == nullptr, "world observed twice");
  rep_ = &rep;
  if (options_.metrics != nullptr) dep_.attach_metrics(*registry_, options_.profile);
  if (options_.trace_path.empty()) return;
  trace_path_ = options_.trace_path;
  if (!tag.empty()) trace_path_ += "." + tag;
  if (options_.repetitions > 1) trace_path_ += ".rep" + std::to_string(rep.index);
  recorder_ = std::make_unique<obs::trace::TraceRecorder>(sim_);
  watchdog_ = std::make_unique<obs::Watchdog>(*recorder_);
  recorder_->arm_postmortem(trace_path_ + ".postmortem.json");
  dep_.attach_tracing(recorder_.get());
  // The trace.* / watchdog.* counters, also embedded in any postmortem.
  recorder_->set_metrics_snapshot(registry_.get());
  recorder_->attach_metrics(*registry_);
  watchdog_->attach_metrics(*registry_);
}

obs::trace::TraceContext World::root() {
  return recorder_ != nullptr ? recorder_->root() : obs::trace::TraceContext{};
}

void World::run() { run_until(std::numeric_limits<Seconds>::infinity()); }

void World::run_until(Seconds horizon) {
  const obs::WallProfiler::Span span(dep_.profiler(), "run");
  sim_.run_until(horizon);
}

void World::warm_up(const transport::FileTransferConfig& cfg, int rounds, Seconds spacing) {
  Seconds at = sim_.now() + 10.0;
  for (int i = 1; i <= 8; ++i) {
    for (int round = 0; round < rounds; ++round) {
      sim_.schedule_at(at, [this, i, cfg] {
        dep_.control().files().send_file(dep_.sc_peer(i), cfg,
                                         [](const transport::TransferResult&) {});
        dep_.control().messaging().send(dep_.sc_peer(i), 0, [](bool, Seconds) {});
      });
      at += spacing;
    }
  }
  run_until(at + spacing);
}

void World::bind(Model model) {
  std::vector<PeerId> group;
  for (int i = 1; i <= 8; ++i) group.push_back(dep_.sc_peer(i));
  const auto make = [&](const overlay::BrokerPeer& broker)
      -> std::unique_ptr<core::SelectionModel> {
    switch (model) {
      case Model::kEconomic:
        return std::make_unique<core::EconomicSchedulingModel>();
      case Model::kSamePriority:
        return std::make_unique<core::DataEvaluatorModel>(
            core::DataEvaluatorModel::same_priority());
      case Model::kQuickPeer:
        return std::make_unique<core::UserPreferenceModel>(
            core::UserPreferenceModel::quick_peer(broker.history(), group));
      case Model::kHybrid:
        return std::make_unique<core::HybridModel>();
      case Model::kBlind:
        break;
    }
    return std::make_unique<core::BlindModel>();
  };
  std::vector<overlay::BrokerPeer*> brokers;
  for (std::size_t b = 0; b < dep_.broker_count(); ++b) brokers.push_back(&dep_.broker_at(b));
  for (std::size_t s = 0; s < dep_.standby_count(); ++s) brokers.push_back(&dep_.standby_at(s));
  for (overlay::BrokerPeer* broker : brokers) broker->set_selection_model(make(*broker));
}

World::Selection World::select(core::SelectionContext ctx, std::size_t k, Seconds window) {
  ctx.now = sim_.now();
  Selection selection;
  bool got = false;
  dep_.control().request_selection(ctx, k, [&](std::vector<PeerId> peers) {
    selection.peers = std::move(peers);
    selection.elapsed = sim_.now() - ctx.now;
    got = true;
  });
  run_until(sim_.now() + window);
  PEERLAB_CHECK_MSG(got && !selection.peers.empty(), "selection failed");
  if (selection.peers.size() > k) selection.peers.resize(k);
  return selection;
}

void World::finish(const std::string& suffix) {
  if (recorder_ != nullptr) {
    watchdog_->finalize();
    recorder_->write_jsonl(trace_path_);
    dep_.attach_tracing(nullptr);
    watchdog_.reset();
    recorder_.reset();
  }
  if (rep_ != nullptr && options_.metrics != nullptr && registry_ != nullptr) {
    rep_->staged.emplace_back(std::move(registry_), suffix);
  }
}

}  // namespace peerlab::experiments
