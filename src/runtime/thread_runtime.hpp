// thread_runtime.hpp — the HostRuntime over in-process mailboxes.
//
// One OS thread per process (runtime/host_runtime.hpp); each directed edge
// of the topology is a capacity-bounded Mailbox carrying codec-encoded
// datagrams, so the protocols run against a real wire format and the
// paper's bounded FIFO channel. The historic constructor builds the
// paper's fully-connected network.
#ifndef SNAPSTAB_RUNTIME_THREAD_RUNTIME_HPP
#define SNAPSTAB_RUNTIME_THREAD_RUNTIME_HPP

#include <cstdint>

#include "runtime/host_runtime.hpp"
#include "runtime/mailbox.hpp"

namespace snapstab::runtime {

struct ThreadRuntimeOptions {
  std::size_t mailbox_capacity = 1;
  // Probability that the receive-side filter discards a popped message.
  double loss_rate = 0.0;
  std::uint64_t seed = 1;  // seeds the per-process protocol/filter RNGs
};

class MailboxTransport;

class ThreadRuntime final : public HostRuntime {
 public:
  ThreadRuntime(sim::Topology topology, ThreadRuntimeOptions options = {});
  ThreadRuntime(int process_count, ThreadRuntimeOptions options = {});

  // The mailbox of directed edge src -> dst; internally synchronized.
  const Mailbox& mailbox(int src, int dst) const;

 private:
  const MailboxTransport* mailboxes_;
};

}  // namespace snapstab::runtime

#endif  // SNAPSTAB_RUNTIME_THREAD_RUNTIME_HPP
