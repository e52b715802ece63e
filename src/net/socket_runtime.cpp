#include "net/socket_runtime.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <mutex>

#include "common/check.hpp"

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
// A receive attempt reads one datagram; the first EAGAIN ends the
// activation's receives (no empty recv per remaining channel).
class UdpTransport final : public runtime::Transport {
 public:
  UdpTransport(const runtime::HostRuntime& rt,
               const std::vector<std::uint16_t>& ports)
      : topology_(rt.topology()), pool_(rt.string_pool()) {
    const auto n = static_cast<std::size_t>(topology_.process_count());
    SNAPSTAB_CHECK_MSG(ports.empty() || ports.size() == n,
                       "ports must name one UDP port per node");
    port_table_ = ports;
    port_table_.resize(n, 0);
    fds_.assign(n, -1);
    bufs_.resize(n);
    for (int p = 0; p < topology_.process_count(); ++p) {
      if (!rt.hosts(p)) {
        SNAPSTAB_CHECK_MSG(
            !ports.empty(),
            "hosting a node subset requires an explicit per-node port table");
        continue;
      }
      const auto i = static_cast<std::size_t>(p);
      fds_[i] = bind_udp(port_table_[i], &port_table_[i]);
      bufs_[i].resize(kMaxDatagramSize);
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

  Poll receive(int p, int /*k*/, runtime::Inbound& in) override {
    const auto i = static_cast<std::size_t>(p);
    std::vector<std::uint8_t>& buf = bufs_[i];
    const ssize_t r = ::recv(fds_[i], buf.data(), buf.size(), MSG_DONTWAIT);
    if (r < 0) return Poll::Drained;  // EAGAIN (or a transient error)
    stats_.datagrams_received.fetch_add(1, std::memory_order_relaxed);
    const DecodedFrame frame =
        decode_frame(buf.data(), static_cast<std::size_t>(r), pool_);
    stats_.by_result[static_cast<std::size_t>(frame.result)].fetch_add(
        1, std::memory_order_relaxed);
    if (!frame.ok()) return Poll::Nothing;  // counted, never delivered
    if (frame.edge < 0 || frame.edge >= topology_.edge_count() ||
        topology_.edge_dst(frame.edge) != p) {
      stats_.bad_edge.fetch_add(1, std::memory_order_relaxed);
      return Poll::Nothing;
    }
    in.edge = frame.edge;
    in.message = frame.message;
    return Poll::Message;
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
  };
  const Stats& stats() const noexcept { return stats_; }

 private:
  const sim::Topology& topology_;
  StringPool& pool_;
  std::vector<std::uint16_t> port_table_;        // node id -> UDP port
  std::vector<int> fds_;                         // node id -> socket | -1
  std::vector<std::vector<std::uint8_t>> bufs_;  // node id -> recv buffer
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
  const FilterStats f = filter_stats();
  out.delivered = f.delivered;
  out.loss_drops = f.loss_drops;
  out.filter_drops = f.filter_drops;
  out.filter_duplicates = f.filter_duplicates;
  out.down_drops = f.down_drops;
  return out;
}

}  // namespace snapstab::net
