#include "peerlab/common/ids.hpp"

#include <string>

#include "peerlab/common/check.hpp"

namespace peerlab {

namespace {
std::string render(const char* prefix, std::uint64_t value) {
  return std::string(prefix) + "#" + std::to_string(value);
}
}  // namespace

std::string to_string(NodeId id) { return render("node", id.value()); }
std::string to_string(PeerId id) { return render("peer", id.value()); }
std::string to_string(PipeId id) { return render("pipe", id.value()); }
std::string to_string(GroupId id) { return render("group", id.value()); }
std::string to_string(MessageId id) { return render("msg", id.value()); }
std::string to_string(TaskId id) { return render("task", id.value()); }
std::string to_string(TransferId id) { return render("xfer", id.value()); }
std::string to_string(FlowId id) { return render("flow", id.value()); }
std::string to_string(AdvertisementId id) { return render("adv", id.value()); }

std::size_t dense_index(PeerId peer) {
  PEERLAB_CHECK_MSG(peer.value() < kDensePeerIds,
                    "peer id out of the dense per-peer range: " + to_string(peer));
  return static_cast<std::size_t>(peer.value());
}

}  // namespace peerlab
