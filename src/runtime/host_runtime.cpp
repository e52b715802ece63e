#include "runtime/host_runtime.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace snapstab::runtime {

// Context backend bound to one hosted node. Only used by the owning thread
// while it holds the node mutex; protocol code reaches it through
// sim::Context's generic (one virtual hop) path.
class HostRuntime::NodeContext final : public sim::ContextBackend {
 public:
  NodeContext(HostRuntime& rt, Node& node) : rt_(rt), node_(node) {}

  int degree() const override { return rt_.topology_.degree(node_.id); }

  bool send(int channel_index, const Message& m) override {
    // Same local-index mapping as the simulator: the shared Topology.
    return rt_.transport_->send(
        rt_.topology_.out_edge(node_.id, channel_index), m);
  }

  void observe(sim::Layer layer, sim::ObsKind kind, int peer,
               const Value& value) override {
    rt_.observe_external(node_.id, layer, kind, peer, value);
  }

  Rng& rng() override { return node_.rng; }

  std::uint64_t now() const override {
    return rt_.event_counter_.load(std::memory_order_relaxed);
  }

 private:
  HostRuntime& rt_;
  Node& node_;
};

HostRuntime::HostRuntime(sim::Topology topology, std::uint64_t seed,
                         double loss_rate, std::vector<int> hosted)
    : topology_(std::move(topology)),
      n_(topology_.process_count()),
      loss_rate_(loss_rate),
      pool_(&current_string_pool()) {
  SNAPSTAB_CHECK_MSG(topology_.connected(),
                     "the model requires a connected network");
  if (hosted.empty())
    for (int i = 0; i < n_; ++i) hosted.push_back(i);
  std::sort(hosted.begin(), hosted.end());
  SNAPSTAB_CHECK_MSG(
      std::adjacent_find(hosted.begin(), hosted.end()) == hosted.end(),
      "duplicate hosted node");

  local_slot_.assign(static_cast<std::size_t>(n_), -1);
  Rng seeder(seed);
  locals_.reserve(hosted.size());
  for (const int p : hosted) {
    SNAPSTAB_CHECK(p >= 0 && p < n_);
    auto node = std::make_unique<Node>();
    node->id = p;
    node->rng = seeder.fork(static_cast<std::uint64_t>(p) + 1);
    node->filter_rng =
        Rng(seed ^ 0x50CE7F17ull).fork(static_cast<std::uint64_t>(p));
    local_slot_[static_cast<std::size_t>(p)] =
        static_cast<int>(locals_.size());
    locals_.push_back(std::move(node));
  }
  edge_faults_ = std::make_unique<EdgeFault[]>(
      static_cast<std::size_t>(topology_.edge_count()));
}

HostRuntime::~HostRuntime() { shutdown(); }

void HostRuntime::attach(std::unique_ptr<Transport> transport) {
  SNAPSTAB_CHECK(transport_ == nullptr && transport != nullptr);
  transport_ = std::move(transport);
}

bool HostRuntime::hosts(int node) const noexcept {
  return node >= 0 && node < n_ &&
         local_slot_[static_cast<std::size_t>(node)] >= 0;
}

HostRuntime::Node& HostRuntime::local(int p) {
  SNAPSTAB_CHECK_MSG(hosts(p), "node is not hosted by this runtime");
  return *locals_[static_cast<std::size_t>(
      local_slot_[static_cast<std::size_t>(p)])];
}

void HostRuntime::add_process(std::unique_ptr<sim::Process> p) {
  SNAPSTAB_CHECK(p != nullptr);
  for (auto& node : locals_) {
    if (node->process == nullptr) {
      node->process = std::move(p);
      return;
    }
  }
  SNAPSTAB_CHECK_MSG(false, "more processes than hosted nodes");
}

HostRuntime::EdgeFault& HostRuntime::edge_fault(sim::EdgeId e) {
  SNAPSTAB_CHECK(e >= 0 && e < topology_.edge_count());
  return edge_faults_[static_cast<std::size_t>(e)];
}

void HostRuntime::set_edge_drop(sim::EdgeId e, double rate) {
  edge_fault(e).drop.store(rate, std::memory_order_relaxed);
}

void HostRuntime::set_edge_duplicate(sim::EdgeId e, double rate) {
  edge_fault(e).duplicate.store(rate, std::memory_order_relaxed);
}

void HostRuntime::set_edge_down(sim::EdgeId e, bool down) {
  edge_fault(e).down.store(down, std::memory_order_relaxed);
}

void HostRuntime::clear_edge_faults() {
  for (sim::EdgeId e = 0; e < topology_.edge_count(); ++e) {
    set_edge_drop(e, 0.0);
    set_edge_duplicate(e, 0.0);
    set_edge_down(e, false);
  }
}

void HostRuntime::deliver(Node& node, sim::Context& ctx, const Inbound& in) {
  const EdgeFault& fault = edge_faults_[static_cast<std::size_t>(in.edge)];
  FilterCounters& c = node.counters;
  constexpr auto relaxed = std::memory_order_relaxed;
  if (fault.down.load(relaxed)) {
    c.down_drops.fetch_add(1, relaxed);
    return;
  }
  if (loss_rate_ > 0.0 && node.filter_rng.chance(loss_rate_)) {
    c.loss_drops.fetch_add(1, relaxed);
    return;
  }
  const double drop = fault.drop.load(relaxed);
  if (drop > 0.0 && node.filter_rng.chance(drop)) {
    c.filter_drops.fetch_add(1, relaxed);
    return;
  }
  sim::Process& proc = *node.process;
  const int ch = topology_.edge_index_at_dst(in.edge);
  proc.on_message(ctx, ch, in.message);
  c.delivered.fetch_add(1, relaxed);
  const double dup = fault.duplicate.load(relaxed);
  if (dup > 0.0 && node.filter_rng.chance(dup) && !proc.busy()) {
    proc.on_message(ctx, ch, in.message);
    c.delivered.fetch_add(1, relaxed);
    c.filter_duplicates.fetch_add(1, relaxed);
  }
}

void HostRuntime::node_main(Node& node) {
  // Every node thread interns into the runtime's shared (thread-safe) pool.
  ScopedStringPool pool_scope(*pool_);
  NodeContext backend(*this, node);
  sim::Context ctx(backend);
  Inbound in;
  const int degree = topology_.degree(node.id);
  while (!stop_.load(std::memory_order_relaxed)) {
    {
      std::lock_guard<std::mutex> lock(node.mu);
      sim::Process& proc = *node.process;
      // At most one message per incident channel per activation; a busy
      // process (inside its critical section) receives nothing.
      for (int k = 0; k < degree && !proc.busy(); ++k) {
        const Transport::Poll r = transport_->receive(node.id, k, in);
        if (r == Transport::Poll::Drained) break;
        if (r == Transport::Poll::Message) deliver(node, ctx, in);
      }
      if (proc.tick_enabled()) proc.on_tick(ctx);
    }
    std::this_thread::sleep_for(kActivationPause);
  }
}

void HostRuntime::start() {
  if (started_.exchange(true, std::memory_order_acq_rel)) return;
  SNAPSTAB_CHECK(transport_ != nullptr);
  for (const auto& node : locals_)
    SNAPSTAB_CHECK_MSG(node->process != nullptr,
                       "install all hosted processes before start()");
  for (auto& node : locals_) {
    Node* raw = node.get();
    node->thread = std::thread([this, raw] { node_main(*raw); });
  }
}

bool HostRuntime::run(const std::function<bool()>& done,
                      std::chrono::milliseconds timeout) {
  if (stop_.load(std::memory_order_acquire)) return done();  // shut down
  start();
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (done()) return true;
    std::this_thread::sleep_for(kAwaitPoll);
  }
  return done();
}

void HostRuntime::shutdown() {
  stop_.store(true, std::memory_order_release);
  for (auto& node : locals_)
    if (node->thread.joinable()) node->thread.join();
}

void HostRuntime::observe_external(int process, sim::Layer layer,
                                   sim::ObsKind kind, int peer,
                                   const Value& value) {
  // The step is taken under the log mutex, so the log is in step order.
  std::lock_guard<std::mutex> lock(log_mu_);
  const std::uint64_t step =
      event_counter_.fetch_add(1, std::memory_order_relaxed);
  log_.push_back(sim::Observation{step, process, layer, kind, peer, value});
}

std::vector<sim::Observation> HostRuntime::observations() const {
  std::lock_guard<std::mutex> lock(log_mu_);
  return log_;
}

HostRuntime::FilterStats HostRuntime::filter_stats() const {
  FilterStats out;
  constexpr auto relaxed = std::memory_order_relaxed;
  for (const auto& node : locals_) {
    const FilterCounters& c = node->counters;
    out.delivered += c.delivered.load(relaxed);
    out.loss_drops += c.loss_drops.load(relaxed);
    out.filter_drops += c.filter_drops.load(relaxed);
    out.filter_duplicates += c.filter_duplicates.load(relaxed);
    out.down_drops += c.down_drops.load(relaxed);
  }
  return out;
}

}  // namespace snapstab::runtime
