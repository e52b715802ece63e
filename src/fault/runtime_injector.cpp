#include "fault/runtime_injector.hpp"

#include <signal.h>

#include <algorithm>

#include "common/check.hpp"
#include "msg/strpool.hpp"
#include "svc/host.hpp"

namespace snapstab::fault {

RuntimeInjector::RuntimeInjector(const FaultPlan& plan,
                                 runtime::HostRuntime& rt,
                                 RuntimeInjectorOptions options)
    : plan_(&plan),
      rt_(&rt),
      options_(options),
      rng_(plan.seed() ^ 0xFA17FA17FA17FA17ull) {
  SNAPSTAB_CHECK_MSG(options_.step_duration.count() > 0,
                     "step_duration must be positive");
}

void RuntimeInjector::set_node_pid(int node, ::pid_t pid) {
  SNAPSTAB_CHECK_MSG(!thread_.joinable(),
                     "register node pids before start()");
  node_pids_[node] = pid;
}

RuntimeInjector::~RuntimeInjector() { stop(); }

void RuntimeInjector::start() {
  SNAPSTAB_CHECK_MSG(!thread_.joinable(), "injector already started");
  if (plan_->empty()) {
    done_.store(true, std::memory_order_release);
    return;
  }
  thread_ = std::thread([this] { thread_main(); });
}

void RuntimeInjector::stop() {
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  // Filters persist until cleared; an early stop() must still mean "the
  // fault has ceased", so disarm whatever windows were mid-flight.
  rt_->clear_edge_faults();
}

void RuntimeInjector::crash(sim::ProcessId p) {
  rt_->with_process<sim::Process>(p, [this](sim::Process& proc) {
    // Same dispatch as the simulator-side Injector: a ServiceHost also
    // fails its live sessions; anything else takes the plain scramble.
    if (auto* host = dynamic_cast<svc::ServiceHost*>(&proc))
      host->crash_restart(rng_);
    else
      proc.randomize(rng_);
    return 0;
  });
  ++counters_.crashes;
}

int RuntimeInjector::set_partition(const FaultWindow& w, bool down) {
  const sim::Topology& topo = rt_->topology();
  int cut = 0;
  for (sim::EdgeId e = 0; e < topo.edge_count(); ++e) {
    const bool src_a = (w.partition_mask >> topo.edge_src(e)) & 1u;
    const bool dst_a = (w.partition_mask >> topo.edge_dst(e)) & 1u;
    if (src_a == dst_a) continue;
    rt_->set_edge_down(e, down);
    ++cut;
  }
  return cut;
}

// Filter rates are re-asserted every poll (cheap atomic stores), so
// overlapping windows self-heal after one of them closes and clears the
// edge.
void RuntimeInjector::apply_window(const FaultWindow& w, bool opening) {
  switch (w.kind) {
    case FaultKind::CrashRestart: {
      if (rt_->hosts(w.process)) {
        // Every poll re-scrambles: the process stays down for the window.
        crash(w.process);
        break;
      }
      const auto it = node_pids_.find(w.process);
      if (it != node_pids_.end() && opening) {
        if (::kill(it->second, SIGKILL) == 0) ++counters_.process_kills;
      }
      break;
    }
    case FaultKind::ChannelGarbage:
      if (opening || rng_.chance(w.rate)) {
        const int fwd_n = plan_->forward_header_n();
        rt_->inject_garbage(w.edge, rng_, [this, fwd_n] {
          return fwd_n > 0
                     ? Message::random_forward(rng_, plan_->flag_limit(), fwd_n)
                     : Message::random(rng_, plan_->flag_limit());
        });
        ++counters_.garbage_bursts;
      }
      break;
    case FaultKind::EdgeLoss:
      rt_->set_edge_drop(w.edge, w.rate);
      if (opening) ++counters_.drops;
      break;
    case FaultKind::EdgeDuplicate:
      rt_->set_edge_duplicate(w.edge, w.rate);
      if (opening) ++counters_.duplicates;
      break;
    case FaultKind::LinkPartition: {
      const int cut = set_partition(w, true);
      if (opening) counters_.partition_wipes += static_cast<std::uint64_t>(cut);
      break;
    }
    case FaultKind::LinkDown:
      rt_->set_edge_down(w.edge, true);
      if (opening) ++counters_.down_wipes;
      break;
  }
}

// A closing window disarms whatever filter state it set. An overlapping
// window on the same edge is re-asserted by the next poll's apply pass, so
// the clear is at worst one poll_interval too wide.
void RuntimeInjector::close_window(const FaultWindow& w) {
  switch (w.kind) {
    case FaultKind::CrashRestart:
    case FaultKind::ChannelGarbage:
      break;
    case FaultKind::EdgeLoss:
      rt_->set_edge_drop(w.edge, 0.0);
      break;
    case FaultKind::EdgeDuplicate:
      rt_->set_edge_duplicate(w.edge, 0.0);
      break;
    case FaultKind::LinkPartition:
      set_partition(w, false);
      break;
    case FaultKind::LinkDown:
      rt_->set_edge_down(w.edge, false);
      break;
  }
}

void RuntimeInjector::thread_main() {
  // Garbage payloads intern into the runtime's pool, same rule as every
  // node thread (see HostRuntime::node_main).
  ScopedStringPool pool_scope(rt_->string_pool());
  const auto epoch = std::chrono::steady_clock::now();
  const auto& events = plan_->events();
  const auto& windows = plan_->windows();
  std::size_t cursor = 0;
  std::vector<std::uint32_t> active;
  while (!stop_.load(std::memory_order_acquire)) {
    const std::uint64_t now_step = static_cast<std::uint64_t>(
        (std::chrono::steady_clock::now() - epoch) / options_.step_duration);
    while (cursor < events.size() && events[cursor].step <= now_step) {
      const FaultPlan::Event ev = events[cursor++];
      if (ev.open) {
        active.push_back(ev.window);
        apply_window(windows[ev.window], /*opening=*/true);
      } else {
        const auto it = std::find(active.begin(), active.end(), ev.window);
        if (it != active.end()) active.erase(it);
        close_window(windows[ev.window]);
      }
    }
    for (const std::uint32_t idx : active)
      apply_window(windows[idx], /*opening=*/false);
    if (cursor >= events.size() && active.empty()) break;
    std::this_thread::sleep_for(options_.poll_interval);
  }
  done_.store(true, std::memory_order_release);
}

}  // namespace snapstab::fault
