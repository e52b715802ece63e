// distributed_lock — Protocol ME guarding a shared counter on real threads.
//
// Each of the n processes (one OS thread each, lossy capacity-1 mailboxes)
// repeatedly requests the critical section and performs a deliberately
// racy read-pause-write increment on a shared, unsynchronized counter.
// If two critical sections ever overlapped, increments would be lost and
// the final count would fall short. With Protocol ME, the count is exact.
//
// Build & run:  ./examples/distributed_lock [--n 3] [--rounds 5]
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>

#include "common/cli.hpp"
#include "core/stack.hpp"
#include "runtime/thread_runtime.hpp"

using namespace snapstab;
using namespace std::chrono_literals;

int main(int argc, char** argv) {
  CliArgs args(argc, argv, {"n", "rounds", "seed"});
  const int n = static_cast<int>(args.get_int("n", 3));
  const int rounds = static_cast<int>(args.get_int("rounds", 5));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 99));

  std::printf(
      "Distributed lock: %d threads x %d increments on an unsynchronized "
      "counter,\nguarded by snap-stabilizing mutual exclusion.\n\n",
      n, rounds);

  // The shared resource: NOT atomic, NOT mutex-protected. The only thing
  // standing between this counter and lost updates is Protocol ME.
  volatile long long shared_counter = 0;
  std::atomic<int> grants{0};

  runtime::ThreadRuntime rt(n, {.seed = seed});
  for (int i = 0; i < n; ++i) {
    core::StackOptions opts;
    opts.me.cs_length = 2;
    opts.me.cs_body = [&shared_counter, &grants] {
      const long long observed = shared_counter;          // read
      std::this_thread::sleep_for(std::chrono::microseconds(300));  // pause
      shared_counter = observed + 1;                      // write
      grants.fetch_add(1);
    };
    rt.add_process(
        std::make_unique<core::MeStackProcess>(i + 1, n - 1, opts));
  }

  // Request driver: every process re-requests until it has completed
  // `rounds` critical sections.
  std::vector<int> completed(static_cast<std::size_t>(n), 0);
  std::vector<bool> pending(static_cast<std::size_t>(n), false);
  const bool finished = rt.run(
      [&] {
        bool all = true;
        for (int p = 0; p < n; ++p) {
          const auto pi = static_cast<std::size_t>(p);
          if (completed[pi] >= rounds) continue;
          all = false;
          rt.with_process<core::MeStackProcess>(
              p, [&completed, &pending, pi, rounds](core::MeStackProcess& s) {
                if (s.me().request_state() != core::RequestState::Done)
                  return 0;  // request in flight
                if (pending[pi]) {
                  ++completed[pi];  // the pending request just finished
                  pending[pi] = false;
                }
                if (completed[pi] < rounds && s.me().request_cs())
                  pending[pi] = true;
                return 0;
              });
        }
        return all;
      },
      120s);
  rt.shutdown();  // join the node threads before reading the counter

  const long long expected = static_cast<long long>(grants.load());
  std::printf("grants served      : %d\n", grants.load());
  std::printf("counter (observed) : %lld\n",
              static_cast<long long>(shared_counter));
  std::printf("counter (expected) : %lld\n", expected);
  const bool exact = shared_counter == expected && finished;
  std::printf("\n%s\n", exact ? "No lost updates: every racy increment ran "
                                "inside an exclusive critical section."
                              : "LOST UPDATES — mutual exclusion failed!");
  return exact ? 0 : 1;
}
