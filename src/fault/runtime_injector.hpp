// runtime_injector.hpp — applies a FaultPlan to a live runtime.
//
// The live-runtime counterpart of fault::Injector: a dedicated injection
// thread maps the plan's step-clock window spans onto wall time (one step =
// `step_duration`) and applies the same effects to a runtime::HostRuntime,
// whichever transport it runs on:
//   * CrashRestart scrambles a hosted node through with_process (under the
//     node lock); a node registered as living in another OS process
//     (set_node_pid) gets a real SIGKILL instead;
//   * ChannelGarbage is the transport's garbage burst (random messages in
//     the edge's mailbox, or framed random datagrams plus raw noise on the
//     victim's socket);
//   * EdgeLoss, EdgeDuplicate, LinkDown and LinkPartition arm the
//     runtime's receive-side fault filter — rates armed when a window
//     opens, re-asserted every poll, cleared when it closes.
// Unlike the simulator path this is NOT replayable bit-for-bit (the whole
// runtime is racy by design); what it preserves is the fault *schedule* and
// the recovery contract under test: after stop() the fault has ceased and
// fresh sessions must complete.
#ifndef SNAPSTAB_FAULT_RUNTIME_INJECTOR_HPP
#define SNAPSTAB_FAULT_RUNTIME_INJECTOR_HPP

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "fault/plan.hpp"
#include "runtime/host_runtime.hpp"

namespace snapstab::fault {

struct RuntimeInjectorOptions {
  // Wall-clock length of one plan step: a window [b, e) runs from
  // b*step_duration to e*step_duration after start().
  std::chrono::microseconds step_duration{50};
  std::chrono::milliseconds poll_interval{2};
};

class RuntimeInjector {
 public:
  RuntimeInjector(const FaultPlan& plan, runtime::HostRuntime& rt,
                  RuntimeInjectorOptions options = {});
  ~RuntimeInjector();  // stops and joins

  RuntimeInjector(const RuntimeInjector&) = delete;
  RuntimeInjector& operator=(const RuntimeInjector&) = delete;

  // Multi-process mode: declares that node `node` lives in OS process
  // `pid`. A CrashRestart window targeting it delivers a real
  // SIGKILL when it opens (once per opening). Call before start().
  void set_node_pid(int node, ::pid_t pid);

  // Spawns the injection thread; the plan's step 0 is "now".
  void start();
  // Signals and joins. Idempotent. After stop() returns no further fault
  // effect is applied — the fault has ceased.
  void stop();
  // True once every window span has elapsed (the thread exits on its own;
  // stop() is still required before destruction to join it).
  bool done() const noexcept { return done_.load(std::memory_order_acquire); }

  struct Counters {
    std::uint64_t crashes = 0;
    std::uint64_t garbage_bursts = 0;
    std::uint64_t drops = 0;            // EdgeLoss windows opened
    std::uint64_t duplicates = 0;       // EdgeDuplicate windows opened
    std::uint64_t partition_wipes = 0;  // edges cut by opening partitions
    std::uint64_t down_wipes = 0;       // LinkDown windows opened
    std::uint64_t process_kills = 0;    // SIGKILLs delivered
  };
  // Stable only after stop().
  const Counters& counters() const noexcept { return counters_; }

 private:
  void thread_main();
  void apply_window(const FaultWindow& w, bool opening);
  void close_window(const FaultWindow& w);
  // Sets the LinkDown flag of every edge a partition window cuts; returns
  // how many it cut.
  int set_partition(const FaultWindow& w, bool down);
  void crash(sim::ProcessId p);

  const FaultPlan* plan_;
  runtime::HostRuntime* rt_;
  RuntimeInjectorOptions options_;
  Rng rng_;
  std::unordered_map<int, ::pid_t> node_pids_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> done_{false};
  Counters counters_{};
};

}  // namespace snapstab::fault

#endif  // SNAPSTAB_FAULT_RUNTIME_INJECTOR_HPP
