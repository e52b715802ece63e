// test_util.hpp — shared helpers for the simulator-level tests.
#ifndef SNAPSTAB_TESTS_TEST_UTIL_HPP
#define SNAPSTAB_TESTS_TEST_UTIL_HPP

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "runtime/host_runtime.hpp"
#include "sim/process.hpp"
#include "sim/simulator.hpp"
#include "svc/client.hpp"

namespace snapstab::sim {

// A fully scriptable process: counts activations, stores received messages,
// and lets tests inject arbitrary tick behaviour.
class ProbeProcess final : public Process {
 public:
  int ticks = 0;
  int received = 0;
  std::vector<std::pair<int, Message>> inbox;  // (channel, message)
  bool enabled = true;
  bool busy_flag = false;
  std::function<void(Context&)> tick_fn;
  std::function<void(Context&, int, const Message&)> message_fn;

  void on_tick(Context& ctx) override {
    ++ticks;
    if (tick_fn) tick_fn(ctx);
  }
  void on_message(Context& ctx, int ch, const Message& m) override {
    ++received;
    inbox.emplace_back(ch, m);
    if (message_fn) message_fn(ctx, ch, m);
  }
  bool tick_enabled() const override { return enabled; }
  bool busy() const override { return busy_flag; }
  void randomize(Rng&) override {}
};

// A ProbeProcess whose k-th tick sends script[k-1] on channel 0, in order;
// its tick is disabled once the script is spent.
inline std::unique_ptr<ProbeProcess> scripted_sender(
    std::vector<std::vector<Message>> script) {
  auto probe = std::make_unique<ProbeProcess>();
  ProbeProcess* raw = probe.get();
  probe->enabled = !script.empty();
  probe->tick_fn = [raw, script = std::move(script)](Context& ctx) {
    for (const Message& m : script[static_cast<std::size_t>(raw->ticks - 1)])
      ctx.send(0, m);
    if (raw->ticks == static_cast<int>(script.size())) raw->enabled = false;
  };
  return probe;
}

}  // namespace snapstab::sim

namespace snapstab::runtime {

// Hosts scripted_sender(script) on node 0 of a two-node runtime and a
// receive-only probe on node 1, runs until the script is spent, then shuts
// the runtime down so its counters are final. Returns whether the script
// ran to its end.
inline bool run_send_script(HostRuntime& rt,
                            std::vector<std::vector<Message>> script) {
  rt.add_process(sim::scripted_sender(std::move(script)));
  auto sink = std::make_unique<sim::ProbeProcess>();
  sink->enabled = false;
  rt.add_process(std::move(sink));
  const bool spent = rt.run(
      [&rt] {
        return rt.with_process<sim::ProbeProcess>(
            0, [](const sim::ProbeProcess& p) { return !p.enabled; });
      },
      std::chrono::seconds(10));
  rt.shutdown();
  return spent;
}

}  // namespace snapstab::runtime

namespace snapstab {

// Submits descriptor `d` at process `p` and runs `sim` until that session
// completes or `max_steps` run out. From a corrupted state the session first
// waits for the ghost computation to drain; only the session, not the
// layer's done(), says that the requested computation ran. A session
// completes in the activation that decides it, so the run stops right at
// the decision step.
template <typename D>
svc::AwaitResult serve(sim::Simulator& sim, sim::ProcessId p, const D& d,
                       std::uint64_t max_steps) {
  svc::Client client(sim);
  return client.await_all({client.submit(p, d)}, {.max_steps = max_steps});
}

}  // namespace snapstab

#endif  // SNAPSTAB_TESTS_TEST_UTIL_HPP
