#include "peerlab/overlay/group_report.hpp"

#include <cstdio>
#include <sstream>

#include "peerlab/overlay/broker.hpp"

namespace peerlab::overlay {

GroupReport make_group_report(const BrokerPeer& broker) {
  GroupReport report;
  report.generated_at = broker.now();
  report.broker_node = broker.node();
  report.groups = broker.groups().group_count();
  report.heartbeats = broker.heartbeats_received();
  report.reports = broker.reports_applied();
  report.selections_served = broker.selections_served();

  const auto snapshots = broker.snapshot_group();
  const auto& topology = broker.topology();
  report.registered = snapshots.size();
  for (const auto& snap : snapshots) {
    GroupReport::PeerLine line;
    line.peer = snap.peer;
    line.hostname = topology.node(snap.node).profile().hostname;
    line.online = snap.online;
    line.idle = snap.idle;
    line.backlog = snap.queued_tasks;
    line.pending_transfers = snap.active_transfers;
    report.online += snap.online ? 1 : 0;
    if (snap.statistics != nullptr) {
      line.msg_success_pct =
          snap.statistics->value(stats::Criterion::kMsgSuccessTotal, report.generated_at);
      line.task_exec_pct =
          snap.statistics->value(stats::Criterion::kTaskExecSuccessTotal, report.generated_at);
      line.file_sent_pct =
          snap.statistics->value(stats::Criterion::kFileSentTotal, report.generated_at);
    }
    line.mean_execution_time = broker.history().mean_execution_time(snap.peer);
    line.mean_response_time = broker.history().mean_response_time(snap.peer);
    line.mean_transfer_rate = broker.history().mean_transfer_rate(snap.peer);
    report.peers.push_back(std::move(line));
  }
  return report;
}

std::string GroupReport::render() const {
  std::ostringstream out;
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "group report @ t=%.1fs  broker=%s  peers=%zu (%zu online)  groups=%zu\n",
                generated_at, to_string(broker_node).c_str(), registered, online, groups);
  out << buffer;
  std::snprintf(buffer, sizeof(buffer),
                "traffic: %llu heartbeats, %llu stat reports, %llu selections served\n",
                static_cast<unsigned long long>(heartbeats),
                static_cast<unsigned long long>(reports),
                static_cast<unsigned long long>(selections_served));
  out << buffer;
  std::snprintf(buffer, sizeof(buffer), "%-28s %-7s %-5s %-7s %-6s %-6s %-6s %-9s %-9s\n",
                "peer", "online", "busy", "backlog", "msg%", "exec%", "file%", "resp(s)",
                "rate(Mb)");
  out << buffer;
  for (const auto& line : peers) {
    std::snprintf(buffer, sizeof(buffer),
                  "%-28s %-7s %-5s %-7d %-6.1f %-6.1f %-6.1f %-9s %-9s\n",
                  line.hostname.c_str(), line.online ? "yes" : "NO",
                  line.idle ? "no" : "yes", line.backlog, line.msg_success_pct,
                  line.task_exec_pct, line.file_sent_pct,
                  line.mean_response_time ? std::to_string(*line.mean_response_time).substr(0, 6).c_str()
                                          : "-",
                  line.mean_transfer_rate ? std::to_string(*line.mean_transfer_rate).substr(0, 6).c_str()
                                          : "-");
    out << buffer;
  }
  return out.str();
}

}  // namespace peerlab::overlay
