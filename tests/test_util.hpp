// test_util.hpp — shared helpers for the simulator-level tests.
#ifndef SNAPSTAB_TESTS_TEST_UTIL_HPP
#define SNAPSTAB_TESTS_TEST_UTIL_HPP

#include <cstdint>
#include <functional>
#include <vector>

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

}  // namespace snapstab::sim

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
