// socket_runtime.hpp — the HostRuntime over real UDP: one socket per node.
//
// Every hosted node binds a UDP socket on the loopback interface; every
// protocol message crosses the kernel as a framed datagram (net/wire.hpp
// over msg::codec). The node loop, fault filter, observation log and
// lifecycle are the HostRuntime's (runtime/host_runtime.hpp); this file
// only builds the transport and its wire accounting.
//
// Channel model: the socket receive buffer is neither bounded by the
// protocols' capacity c nor FIFO, so this transport does NOT enforce the
// paper's bounded lossy FIFO channel. By Theorem 1 snap-stabilization is
// impossible without that bound; what a run here checks is the weaker
// property that requests issued after faults cease complete.
//
// Hosting modes:
//   * single process (default): one SocketRuntime hosts every node of the
//     topology on ephemeral loopback ports — the loopback integration and
//     bench configuration;
//   * multi-process: `options.ports` fixes one UDP port per node and
//     `options.local_nodes` names the subset this OS process hosts (the
//     examples' `--node i` shape). Peers find each other through the
//     shared port table; a SIGKILLed process can rebind its port and
//     rejoin, which is what the fault engine's process-kill path tests.
//
// Receive path, per receive attempt of a node's activation:
//   recv (the first EAGAIN ends the activation's receives) -> decode_frame
//   (corrupt/truncated datagrams counted and dropped, never delivered) ->
//   edge validation (must terminate here) -> the HostRuntime's fault
//   filter -> Process::on_message. Datagrams a busy process leaves unread
//   queue in the kernel socket buffer.
#ifndef SNAPSTAB_NET_SOCKET_RUNTIME_HPP
#define SNAPSTAB_NET_SOCKET_RUNTIME_HPP

#include <array>
#include <cstdint>
#include <vector>

#include "net/wire.hpp"
#include "runtime/host_runtime.hpp"

namespace snapstab::net {

struct SocketRuntimeOptions {
  std::uint64_t seed = 1;  // seeds per-node protocol and filter RNGs
  // Receive-side injected datagram loss (on top of whatever the kernel
  // genuinely drops): each accepted frame is discarded with this
  // probability before dispatch. The bench ladder's loss knob.
  double loss_rate = 0.0;
  // One UDP port per node (multi-process mode). Empty: every node binds
  // an ephemeral loopback port, which requires hosting all nodes here.
  std::vector<std::uint16_t> ports;
  // The nodes this OS process hosts. Empty: all of them.
  std::vector<int> local_nodes;
};

class UdpTransport;

class SocketRuntime final : public runtime::HostRuntime {
 public:
  SocketRuntime(sim::Topology topology, SocketRuntimeOptions options = {});
  // The paper's fully-connected network.
  SocketRuntime(int process_count, SocketRuntimeOptions options = {});

  // The UDP port node `node` is reachable on (actual bound port for
  // hosted nodes, the configured one for remote nodes).
  std::uint16_t port_of(int node) const;

  struct WireStats {
    std::uint64_t datagrams_sent = 0;
    std::uint64_t datagrams_received = 0;
    std::uint64_t delivered = 0;         // dispatched to on_message
    std::uint64_t rejected_frames = 0;   // sum of the non-Ok results below
    std::array<std::uint64_t, kWireFrameResultCount> by_result{};
    std::uint64_t bad_edge = 0;       // frame named an edge not inbound here
    std::uint64_t loss_drops = 0;     // options.loss_rate discards
    std::uint64_t filter_drops = 0;   // fault-filter drop discards
    std::uint64_t filter_duplicates = 0;
    std::uint64_t down_drops = 0;     // fault-filter LinkDown discards
  };
  // Aggregated over every hosted node; safe to read concurrently.
  WireStats wire_stats() const;

  // Sends raw bytes to `dst_node`'s socket from a side-channel socket —
  // the garbage-burst path (valid frames carrying random messages, or
  // plain noise exercising the frame rejections). Returns whether the
  // kernel accepted the datagram.
  bool inject_datagram(int dst_node, const void* data, std::size_t size);

 private:
  UdpTransport* udp_;
};

}  // namespace snapstab::net

#endif  // SNAPSTAB_NET_SOCKET_RUNTIME_HPP
