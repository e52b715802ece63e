#include "runtime/thread_runtime.hpp"

namespace snapstab::runtime {

// One Mailbox per directed edge. A receive attempt pops the mailbox of the
// k-th incident channel, so an empty channel never ends the activation.
class MailboxTransport final : public Transport {
 public:
  MailboxTransport(const sim::Topology& topology, std::size_t capacity,
                   StringPool& pool)
      : topology_(topology) {
    mailboxes_.reserve(static_cast<std::size_t>(topology.edge_count()));
    for (sim::EdgeId e = 0; e < topology.edge_count(); ++e)
      mailboxes_.push_back(std::make_unique<Mailbox>(capacity, &pool));
  }

  Mailbox& at(sim::EdgeId e) const {
    return *mailboxes_[static_cast<std::size_t>(e)];
  }

  bool send(sim::EdgeId e, const Message& m) override {
    return at(e).try_push(m);
  }

  Poll receive(int p, int k, Inbound& in) override {
    const sim::EdgeId e = topology_.in_edge(p, k);
    auto m = at(e).try_pop();
    if (!m.has_value()) return Poll::Nothing;
    in.edge = e;
    in.message = *m;
    return Poll::Message;
  }

  // Replaces the edge's content with 1..capacity garbage messages.
  void inject_garbage(sim::EdgeId e, Rng& rng,
                      const std::function<Message()>& random_message) override {
    Mailbox& mb = at(e);
    while (mb.try_pop().has_value()) {
    }
    const std::size_t count = 1 + rng.below(mb.capacity());
    for (std::size_t i = 0; i < count; ++i) mb.try_push(random_message());
  }

 private:
  const sim::Topology& topology_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
};

ThreadRuntime::ThreadRuntime(sim::Topology topology,
                             ThreadRuntimeOptions options)
    : HostRuntime(std::move(topology), options.seed, options.loss_rate, {}) {
  auto transport = std::make_unique<MailboxTransport>(
      this->topology(), options.mailbox_capacity, string_pool());
  mailboxes_ = transport.get();
  attach(std::move(transport));
}

ThreadRuntime::ThreadRuntime(int process_count, ThreadRuntimeOptions options)
    : ThreadRuntime(sim::Topology::complete(process_count), options) {}

const Mailbox& ThreadRuntime::mailbox(int src, int dst) const {
  return mailboxes_->at(topology().edge_between(src, dst));
}

}  // namespace snapstab::runtime
