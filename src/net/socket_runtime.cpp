#include "net/socket_runtime.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <memory>
#include <mutex>

#include "common/check.hpp"
#include "sim/channel.hpp"

namespace snapstab::net {
namespace {

sockaddr_in loopback_addr(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return addr;
}

int bind_udp(std::uint16_t port, std::uint16_t* bound) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  SNAPSTAB_CHECK_MSG(fd >= 0, "socket(AF_INET, SOCK_DGRAM) failed");
  sockaddr_in addr = loopback_addr(port);
  SNAPSTAB_CHECK_MSG(
      ::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0,
      "cannot bind the node's loopback UDP port");
  socklen_t len = sizeof addr;
  SNAPSTAB_CHECK(
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0);
  *bound = ntohs(addr.sin_port);
  return fd;
}

}  // namespace

// One UDP socket per hosted node, reached through a per-node port table.
// Attempt 0 of an activation drains the node's socket into one bounded FIFO
// inbox per in-edge; attempt k pops the inbox of in-edge k.
class UdpTransport final : public runtime::Transport {
 public:
  // The most datagrams one drain reads: a default loopback receive buffer
  // (212992 bytes) holds 256 small datagrams, so a drain empties what was
  // queued when it began, while a sender that refills the socket faster
  // than the node decodes cannot keep the node (and its mutex) in the drain.
  // The rest waits in the kernel buffer for the next activation.
  static constexpr int kDrainBatch = 256;

  UdpTransport(const runtime::HostRuntime& rt,
               const std::vector<std::uint16_t>& ports)
      : topology_(rt.topology()), pool_(rt.string_pool()) {
    const auto n = static_cast<std::size_t>(topology_.process_count());
    SNAPSTAB_CHECK_MSG(ports.empty() || ports.size() == n,
                       "ports must name one UDP port per node");
    port_table_ = ports;
    port_table_.resize(n, 0);
    fds_.assign(n, -1);
    inboxes_.resize(n);
    for (int p = 0; p < topology_.process_count(); ++p) {
      if (!rt.hosts(p)) {
        SNAPSTAB_CHECK_MSG(
            !ports.empty(),
            "hosting a node subset requires an explicit per-node port table");
        continue;
      }
      const auto i = static_cast<std::size_t>(p);
      fds_[i] = bind_udp(port_table_[i], &port_table_[i]);
      inboxes_[i].buf.resize(kMaxDatagramSize);
      for (int k = 0; k < topology_.degree(p); ++k)
        inboxes_[i].edges.emplace_back(SocketRuntime::kInboxCapacity);
    }
    inject_fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
    SNAPSTAB_CHECK_MSG(inject_fd_ >= 0, "cannot open the injection socket");
  }

  ~UdpTransport() override {
    for (const int fd : fds_)
      if (fd >= 0) ::close(fd);
    ::close(inject_fd_);
  }

  std::uint16_t port(int node) const {
    return port_table_[static_cast<std::size_t>(node)];
  }

  bool send(sim::EdgeId e, const Message& m) override {
    const std::uint16_t dst_port = port(topology_.edge_dst(e));
    if (dst_port == 0) return false;  // remote node with no known port
    const std::vector<std::uint8_t> frame = encode_frame(e, m, pool_);
    const sockaddr_in addr = loopback_addr(dst_port);
    const ssize_t sent = ::sendto(
        fds_[static_cast<std::size_t>(topology_.edge_src(e))], frame.data(),
        frame.size(), 0, reinterpret_cast<const sockaddr*>(&addr),
        sizeof addr);
    if (sent != static_cast<ssize_t>(frame.size())) return false;
    stats_.datagrams_sent.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  bool receive(int p, int k, runtime::Inbound& in) override {
    Inbox& box = inboxes_[static_cast<std::size_t>(p)];
    if (k == 0) drain(p, box);
    sim::Channel& channel = box.edges[static_cast<std::size_t>(k)];
    if (channel.empty()) return false;
    in.edge = topology_.in_edge(p, k);
    in.message = channel.pop();
    return true;
  }

  // A burst of 1..3 validly framed garbage messages on edge `e` (the
  // in-channel garbage of the paper's fault model) plus one raw-noise
  // datagram that must die in frame validation.
  void inject_garbage(sim::EdgeId e, Rng& rng,
                      const std::function<Message()>& random_message) override {
    const int dst = topology_.edge_dst(e);
    const std::size_t count = 1 + rng.below(3);
    for (std::size_t i = 0; i < count; ++i) {
      const std::vector<std::uint8_t> frame =
          encode_frame(e, random_message(), pool_);
      inject(dst, frame.data(), frame.size());
    }
    std::array<std::uint8_t, 48> noise;
    for (auto& b : noise) b = static_cast<std::uint8_t>(rng.below(256));
    inject(dst, noise.data(), noise.size());
  }

  bool inject(int dst, const void* data, std::size_t size) {
    const std::uint16_t dst_port = port(dst);
    if (dst_port == 0) return false;
    const sockaddr_in addr = loopback_addr(dst_port);
    std::lock_guard<std::mutex> lock(inject_mu_);
    return ::sendto(inject_fd_, data, size, 0,
                    reinterpret_cast<const sockaddr*>(&addr),
                    sizeof addr) == static_cast<ssize_t>(size);
  }

  struct Stats {
    std::atomic<std::uint64_t> datagrams_sent{0};
    std::atomic<std::uint64_t> datagrams_received{0};
    std::array<std::atomic<std::uint64_t>, kWireFrameResultCount> by_result{};
    std::atomic<std::uint64_t> bad_edge{0};
    std::atomic<std::uint64_t> inbox_overflow{0};
  };
  const Stats& stats() const noexcept { return stats_; }

 private:
  // A hosted node's receive side. Only the node's own thread touches it,
  // under its node mutex.
  struct Inbox {
    std::vector<std::uint8_t> buf;   // one datagram
    std::vector<sim::Channel> edges;  // in-edge k's bounded FIFO inbox
  };

  // Reads the datagrams pending on node p's socket, at most kDrainBatch of
  // them. Each valid frame is pushed into the inbox of its in-edge; a push
  // into a full inbox loses the frame, the model's send-into-a-full-channel
  // rule.
  void drain(int p, Inbox& box) {
    constexpr auto relaxed = std::memory_order_relaxed;
    const int fd = fds_[static_cast<std::size_t>(p)];
    for (int read = 0; read < kDrainBatch; ++read) {
      const ssize_t r =
          ::recv(fd, box.buf.data(), box.buf.size(), MSG_DONTWAIT);
      if (r < 0) return;  // EAGAIN (or a transient error)
      stats_.datagrams_received.fetch_add(1, relaxed);
      const DecodedFrame frame =
          decode_frame(box.buf.data(), static_cast<std::size_t>(r), pool_);
      stats_.by_result[static_cast<std::size_t>(frame.result)].fetch_add(
          1, relaxed);
      if (!frame.ok()) continue;  // counted, never delivered
      if (frame.edge < 0 || frame.edge >= topology_.edge_count() ||
          topology_.edge_dst(frame.edge) != p) {
        stats_.bad_edge.fetch_add(1, relaxed);
        continue;
      }
      sim::Channel& channel = box.edges[static_cast<std::size_t>(
          topology_.edge_index_at_dst(frame.edge))];
      if (!channel.push(frame.message))
        stats_.inbox_overflow.fetch_add(1, relaxed);
    }
  }

  const sim::Topology& topology_;
  StringPool& pool_;
  std::vector<std::uint16_t> port_table_;  // node id -> UDP port
  std::vector<int> fds_;                   // node id -> socket | -1
  std::vector<Inbox> inboxes_;             // node id -> receive side
  int inject_fd_ = -1;
  std::mutex inject_mu_;
  Stats stats_;
};

SocketRuntime::SocketRuntime(sim::Topology topology,
                             SocketRuntimeOptions options)
    : HostRuntime(std::move(topology), options.seed, options.loss_rate,
                  std::move(options.local_nodes)) {
  auto transport = std::make_unique<UdpTransport>(*this, options.ports);
  udp_ = transport.get();
  attach(std::move(transport));
}

SocketRuntime::SocketRuntime(int process_count, SocketRuntimeOptions options)
    : SocketRuntime(sim::Topology::complete(process_count),
                    std::move(options)) {}

std::uint16_t SocketRuntime::port_of(int node) const {
  SNAPSTAB_CHECK(node >= 0 && node < process_count());
  const std::uint16_t port = udp_->port(node);
  SNAPSTAB_CHECK_MSG(port != 0, "no port known for a remote node");
  return port;
}

bool SocketRuntime::inject_datagram(int dst_node, const void* data,
                                    std::size_t size) {
  SNAPSTAB_CHECK(dst_node >= 0 && dst_node < process_count());
  return udp_->inject(dst_node, data, size);
}

SocketRuntime::WireStats SocketRuntime::wire_stats() const {
  constexpr auto relaxed = std::memory_order_relaxed;
  const UdpTransport::Stats& s = udp_->stats();
  WireStats out;
  out.datagrams_sent = s.datagrams_sent.load(relaxed);
  out.datagrams_received = s.datagrams_received.load(relaxed);
  for (int i = 0; i < kWireFrameResultCount; ++i) {
    const std::uint64_t c =
        s.by_result[static_cast<std::size_t>(i)].load(relaxed);
    out.by_result[static_cast<std::size_t>(i)] = c;
    if (i != static_cast<int>(WireFrameResult::Ok)) out.rejected_frames += c;
  }
  out.bad_edge = s.bad_edge.load(relaxed);
  out.inbox_overflow = s.inbox_overflow.load(relaxed);
  const FilterStats f = filter_stats();
  out.delivered = f.delivered;
  out.loss_drops = f.loss_drops;
  out.filter_drops = f.filter_drops;
  out.filter_duplicates = f.filter_duplicates;
  out.down_drops = f.down_drops;
  out.coalesced_sends = f.coalesced_sends;
  return out;
}

}  // namespace snapstab::net
