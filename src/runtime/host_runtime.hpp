// host_runtime.hpp — the wall-clock execution backend: one OS thread per
// hosted node, messages moved by a Transport.
//
// The paper closes with "actually implementing them is a future challenge";
// this runtime takes the same Process objects that run in the simulator and
// executes them under genuine concurrency. Protocol code is shared verbatim
// with the simulator — the Process/Context interfaces are the only
// coupling, and the local-index <-> peer mapping is the same Topology
// object the simulator uses.
//
// HostRuntime owns everything a wall-clock backend needs except the wire:
//   * the node table (one thread, mutex, process and RNG pair per hosted
//     node) and the activation loop: per activation a node receives at
//     most one message per incident channel, unless busy in its critical
//     section, then ticks, then pauses kActivationPause;
//   * one receive-side fault filter between the transport and
//     Process::on_message: LinkDown, options' loss_rate, per-edge drop and
//     duplicate. Its draws come from a per-node filter RNG, a separate
//     stream from the protocol RNG, so filtering never perturbs protocol
//     randomness;
//   * the observation log, the shared StringPool, and one resumable
//     start() / run() / shutdown() lifecycle: the node threads keep
//     serving across run() calls until shutdown().
// The two named backends only build their Transport: ThreadRuntime a
// bounded codec Mailbox per directed edge (runtime/thread_runtime.hpp),
// SocketRuntime one UDP frame socket per node (net/socket_runtime.hpp).
//
// Channel model. The Mailbox transport is bounded and FIFO (a push into a
// full mailbox is lost), the model the paper's proofs assume. The UDP
// transport bounds nothing and does not promise FIFO, so it does not
// enforce that model; see the README's "Real-wire runtime" section.
//
// Concurrency discipline: a process's state is touched only under its node
// mutex — by its own thread during an activation, or by with_process()
// from any other thread. The observation log has its own mutex; a step is
// numbered while that mutex is held, so the log is in step order.
#ifndef SNAPSTAB_RUNTIME_HOST_RUNTIME_HPP
#define SNAPSTAB_RUNTIME_HOST_RUNTIME_HPP

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "msg/message.hpp"
#include "msg/strpool.hpp"
#include "sim/process.hpp"
#include "sim/topology.hpp"

namespace snapstab::runtime {

// One message a transport hands to the node loop.
struct Inbound {
  sim::EdgeId edge = -1;  // terminates at the receiving node
  Message message;
};

// Moves messages between nodes. send() and receive() run on node threads,
// inject_garbage() on the fault engine's thread; implementations
// synchronize internally.
class Transport {
 public:
  // Outcome of one receive attempt.
  enum class Poll : std::uint8_t {
    Message,  // `in` holds a message for the receiving node
    Nothing,  // this attempt yielded nothing deliverable; try the next
    Drained,  // nothing more is pending: end this activation's receives
  };

  Transport() = default;
  virtual ~Transport() = default;
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  // Puts `m` on directed edge `e`. Returns whether the channel accepted it.
  virtual bool send(sim::EdgeId e, const Message& m) = 0;
  // Attempt `k` (0 <= k < degree) of one activation of node `p`.
  virtual Poll receive(int p, int k, Inbound& in) = 0;
  // A ChannelGarbage burst on edge `e`: the transport picks the burst's
  // size and shape; `random_message` draws one garbage message.
  virtual void inject_garbage(sim::EdgeId e, Rng& rng,
                              const std::function<Message()>& random_message) = 0;
};

class HostRuntime {
 public:
  // Pause between consecutive activations of one node; keeps a node from
  // spinning a core.
  static constexpr std::chrono::microseconds kActivationPause{20};
  // How often run() re-evaluates its done-predicate.
  static constexpr std::chrono::milliseconds kAwaitPoll{1};

  virtual ~HostRuntime();  // shutdown()

  HostRuntime(const HostRuntime&) = delete;
  HostRuntime& operator=(const HostRuntime&) = delete;

  // Install exactly one process per hosted node, in ascending node order,
  // before start().
  void add_process(std::unique_ptr<sim::Process> p);

  int process_count() const noexcept { return n_; }
  const sim::Topology& topology() const noexcept { return topology_; }
  // Whether node `node` runs in this runtime (rather than in another OS
  // process; see SocketRuntimeOptions::local_nodes).
  bool hosts(int node) const noexcept;

  // Spawns the node threads. Idempotent; run() calls it on demand.
  void start();
  // Polls `done()` every kAwaitPoll until it holds or `timeout` elapses;
  // returns whether it held. The node threads keep serving afterwards, so
  // a runtime awaits as many batches as the driver likes.
  bool run(const std::function<bool()>& done,
           std::chrono::milliseconds timeout);
  // Stops and joins the node threads. Afterwards the runtime can make no
  // more progress; run() only evaluates `done()` once.
  void shutdown();
  bool running() const noexcept {
    return started_.load(std::memory_order_acquire) &&
           !stop_.load(std::memory_order_acquire);
  }

  // Executes `f` on hosted node `p` (cast to T) under its node lock. Safe
  // from the done-predicate and after shutdown().
  template <typename T, typename F>
  auto with_process(int p, F&& f) {
    Node& node = local(p);
    std::lock_guard<std::mutex> lock(node.mu);
    return f(dynamic_cast<T&>(*node.process));
  }

  // Snapshot of the observation log so far, in step order.
  std::vector<sim::Observation> observations() const;
  // Appends an event to the log: the node threads' protocol events, and
  // driver-side ones (the svc layer records submissions here, mirroring
  // the simulator's request events).
  void observe_external(int process, sim::Layer layer, sim::ObsKind kind,
                        int peer, const Value& value);

  // The constructing thread's current pool: every node thread interns into
  // and resolves against it, so observation values compare correctly with
  // values interned by the supervising thread.
  StringPool& string_pool() const noexcept { return *pool_; }

  // --- the receive-side fault filter (fault::RuntimeInjector) -------------
  // Rates and flags are plain atomics, so another thread flips them while
  // the node threads run.
  void set_edge_drop(sim::EdgeId e, double rate);
  void set_edge_duplicate(sim::EdgeId e, double rate);
  void set_edge_down(sim::EdgeId e, bool down);
  void clear_edge_faults();
  // A ChannelGarbage burst on edge `e`, shaped by the transport.
  void inject_garbage(sim::EdgeId e, Rng& rng,
                      const std::function<Message()>& random_message) {
    transport_->inject_garbage(e, rng, random_message);
  }

  struct FilterStats {
    std::uint64_t delivered = 0;     // dispatched to on_message
    std::uint64_t loss_drops = 0;    // loss_rate discards
    std::uint64_t filter_drops = 0;  // per-edge drop discards
    std::uint64_t filter_duplicates = 0;
    std::uint64_t down_drops = 0;    // LinkDown discards
  };
  // Summed over every hosted node; safe to read concurrently.
  FilterStats filter_stats() const;

 protected:
  // `hosted` names the nodes this runtime runs; empty means all of them.
  HostRuntime(sim::Topology topology, std::uint64_t seed, double loss_rate,
              std::vector<int> hosted);
  // Called once by the subclass constructor, before start().
  void attach(std::unique_ptr<Transport> transport);

 private:
  struct FilterCounters {
    std::atomic<std::uint64_t> delivered{0};
    std::atomic<std::uint64_t> loss_drops{0};
    std::atomic<std::uint64_t> filter_drops{0};
    std::atomic<std::uint64_t> filter_duplicates{0};
    std::atomic<std::uint64_t> down_drops{0};
  };
  struct Node {
    int id = -1;
    std::mutex mu;
    std::unique_ptr<sim::Process> process;
    Rng rng{0};         // protocol draws (Context::rng)
    Rng filter_rng{0};  // fault-filter draws
    FilterCounters counters;  // written by this node's thread only
    std::thread thread;  // last: it uses the members above
  };
  struct EdgeFault {
    std::atomic<double> drop{0.0};
    std::atomic<double> duplicate{0.0};
    std::atomic<bool> down{false};
  };
  class NodeContext;

  Node& local(int p);
  EdgeFault& edge_fault(sim::EdgeId e);
  void node_main(Node& node);
  // The fault filter, then dispatch.
  void deliver(Node& node, sim::Context& ctx, const Inbound& in);

  sim::Topology topology_;
  int n_;
  double loss_rate_;
  StringPool* pool_;
  std::unique_ptr<Transport> transport_;
  std::vector<std::unique_ptr<Node>> locals_;  // hosted nodes, ascending id
  std::vector<int> local_slot_;                // node id -> locals_ index | -1
  std::unique_ptr<EdgeFault[]> edge_faults_;   // one per directed edge

  std::atomic<bool> started_{false};
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> event_counter_{0};  // advanced under log_mu_
  mutable std::mutex log_mu_;
  std::vector<sim::Observation> log_;
};

}  // namespace snapstab::runtime

#endif  // SNAPSTAB_RUNTIME_HOST_RUNTIME_HPP
