#include "core/forward.hpp"
#include "core/forward_world.hpp"

// Context method bodies (the sealed sim fast path) are inline in
// sim/simulator.hpp; every TU calling them must see the definitions.
#include "sim/simulator.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "mutate/mutate.hpp"

namespace snapstab::core {

Forward::Forward(sim::ProcessId self, int degree,
                 std::shared_ptr<const sim::RoutingTable> routes,
                 Options options)
    : self_(self),
      routes_(std::move(routes)),
      options_(options),
      flag_bound_(MUTATION_POINT("fwd.flag_bound.short",
                                 2 * options.channel_capacity + 2,
                                 2 * options.channel_capacity + 1)) {
  SNAPSTAB_CHECK(routes_ != nullptr);
  SNAPSTAB_CHECK(self_ >= 0 && self_ < routes_->process_count());
  SNAPSTAB_CHECK_MSG(routes_->process_count() <= 0x10000,
                     "process ids must fit the 16-bit FwdHeader fields");
  SNAPSTAB_CHECK_MSG(degree >= 1, "forwarding needs at least one link");
  SNAPSTAB_CHECK_MSG(options_.channel_capacity >= 1,
                     "snap-stabilization requires a known capacity bound");
  SNAPSTAB_CHECK_MSG(options_.hop_buffer >= 1,
                     "a hop needs room for at least one payload");
  out_.resize(static_cast<std::size_t>(degree));
  // The constructed state is quiescent (no transfer running, every
  // handshake complete) — randomize() overwrites everything.
  racc_.assign(static_cast<std::size_t>(degree), flag_bound_);
}

std::int32_t Forward::clamp_flag(std::int32_t v) const noexcept {
  return std::clamp<std::int32_t>(v, 0, flag_bound_);
}

ForwardSubmit Forward::submit(const Value& payload, sim::ProcessId dst) {
  if (dst < 0 || dst >= routes_->process_count())
    return ForwardSubmit::NoRoute;
  const Item item{payload,
                  pack_fwd_header({self_, dst, next_seq_})};
  if (dst == self_) {
    // Self-addressed submissions honor the same per-hop bound as routed
    // ones — the local delivery queue is a buffer like any other.
    if (local_.size() >= static_cast<std::size_t>(options_.hop_buffer))
      return ForwardSubmit::SelfDestination;
    ++next_seq_;
    local_.push_back(item);
    return ForwardSubmit::Accepted;
  }
  if (!enqueue(MUTATION_POINT("fwd.submit.wrong_first_hop",
                              (routes_->next_index(self_, dst)),
                              ((routes_->next_index(self_, dst) + 1) %
                               degree())),
               item))
    return ForwardSubmit::BufferFull;
  ++next_seq_;
  return ForwardSubmit::Accepted;
}

int Forward::relay_index(sim::ProcessId dst) const {
  return MUTATION_POINT("fwd.relay.wrong_neighbor",
                        (routes_->next_index(self_, dst)),
                        ((routes_->next_index(self_, dst) + 1) % degree()));
}

bool Forward::link_full(const OutLink& out) const noexcept {
  return out.pending.size() + (out.active ? 1 : 0) >=
         static_cast<std::size_t>(options_.hop_buffer);
}

bool Forward::enqueue(int ch, const Item& item) {
  OutLink& out = out_[static_cast<std::size_t>(ch)];
  if (link_full(out)) return false;
  out.pending.push_back(item);
  return true;
}

void Forward::deliver(sim::Context& ctx, const Item& item) {
  const FwdHeader h = unpack_fwd_header(item.header);
  const int origin =
      MUTATION_POINT("fwd.deliver.misattribute_origin",
                     (h.origin >= 0 && h.origin < routes_->process_count()
                          ? h.origin
                          : -1),
                     h.dst);
  delivered_ += MUTATION_POINT("fwd.deliver.uncounted", 1, 0);
  ctx.observe(sim::Layer::Service, sim::ObsKind::FwdDeliver, origin,
              item.payload);
  if (on_deliver_) on_deliver_(h, item.payload);
}

void Forward::tick(sim::Context& ctx) {
  // Self-addressed submissions (and randomize()-planted local garbage).
  while (!local_.empty()) {
    deliver(ctx, local_.front());
    local_.pop_front();
  }
  for (int ch = 0; ch < degree(); ++ch) {
    OutLink& out = out_[static_cast<std::size_t>(ch)];
    // Self-correction: a fault can leave a zombie transfer whose flag is
    // already at (or beyond) the bound — it would never retransmit and no
    // echo could ever complete it, wedging the link forever. Retire it; a
    // transfer in that state is complete for all the handshake can tell.
    if (out.active &&
        MUTATION_POINT("fwd.zombie.immortal", out.sstate >= flag_bound_,
                       out.sstate > flag_bound_))
      out.active = false;
    // Start the next queued transfer (the analogue of PIF's A1: the hop
    // flag restarts from 0, which is what makes the handshake exact).
    if (!out.active && !out.pending.empty()) {
      out.current = out.pending.front();
      out.pending.pop_front();
      out.active = true;
      out.sstate = MUTATION_POINT("fwd.start.skew", 0, 1);
    }
    // Retransmit (the analogue of A2). A refused push — full channel — is
    // simply a loss; the next tick retries.
    if (out.active && MUTATION_POINT("fwd.tick.mute_retransmit",
                                     out.sstate < flag_bound_,
                                     out.sstate == 0))
      ctx.send(ch, Message::fwd_data(out.current.payload, out.current.header,
                                     out.sstate));
  }
}

bool Forward::tick_enabled() const noexcept {
  if (!local_.empty()) return true;
  for (const OutLink& out : out_)
    if (out.active || !out.pending.empty()) return true;
  return false;
}

void Forward::accept(sim::Context& ctx, const Message& m) {
  // The accepted payload is whatever genuinely arrived — never stored
  // state — so a corrupted queue cannot substitute contents.
  if (!m.f.is_int()) {
    ++discarded_;
    return;
  }
  const FwdHeader h = unpack_fwd_header(m.f.as_int());
  if (h.dst < 0 || h.dst >= routes_->process_count()) {
    ++discarded_;
    return;
  }
  const Item item{m.b, m.f.as_int()};
  if (h.dst == self_) {
    deliver(ctx, item);
    return;
  }
  // accept() only runs after the caller verified there is room.
  SNAPSTAB_CHECK(enqueue(relay_index(h.dst), item));
  ++relayed_;
}

bool Forward::handle_message(sim::Context& ctx, int ch, const Message& m) {
  SNAPSTAB_CHECK(ch >= 0 && ch < degree());
  const auto chi = static_cast<std::size_t>(ch);

  if (m.kind == MsgKind::FwdEcho) {
    // Sender role: an echo carrying the exact current flag advances the
    // handshake; anything else is stale and ignored (safety over speed).
    OutLink& out = out_[chi];
    const std::int32_t es = clamp_flag(m.state);
    if (out.active &&
        MUTATION_POINT("fwd.echo.accept_stale", es == out.sstate,
                       es >= out.sstate) &&
        out.sstate < flag_bound_) {
      ++out.sstate;
      if (MUTATION_POINT("fwd.echo.early_ack", out.sstate == flag_bound_,
                         out.sstate >= flag_bound_ - 1)) {
        out.active = false;  // hop acknowledged; tick starts the next item
        ++acked_;
      }
    }
    return true;
  }

  if (m.kind != MsgKind::FwdData) return false;

  // Receiver role.
  const std::int32_t ds = clamp_flag(m.state);
  const bool accepting =
      MUTATION_POINT("fwd.accept.duplicates",
                     (racc_[chi] != flag_bound_ - 1 && ds == flag_bound_ - 1),
                     (ds == flag_bound_ - 1));
  if (accepting && m.f.is_int()) {
    const FwdHeader h = unpack_fwd_header(m.f.as_int());
    if (h.dst >= 0 && h.dst < routes_->process_count() && h.dst != self_) {
      const OutLink& relay =
          out_[static_cast<std::size_t>(relay_index(h.dst))];
      if (link_full(relay)) {
        // Bounded-buffer backpressure: stall the handshake instead of
        // dropping the payload. Ignoring the message is indistinguishable
        // from channel loss; the sender's retransmission completes the
        // transfer once the relay queue drains.
        ++stalled_;
        return true;
      }
    }
  }
  racc_[chi] = ds;
  if (accepting) accept(ctx, m);
  if (ds < flag_bound_) ctx.send(ch, Message::fwd_echo(racc_[chi]));
  return true;
}

void Forward::randomize(Rng& rng) {
  local_.clear();
  next_seq_ = static_cast<std::uint32_t>(rng.below(1u << 20));
  const auto random_item = [&] {
    return Item{Value::random(rng), static_cast<std::int64_t>(rng.next())};
  };
  for (int ch = 0; ch < degree(); ++ch) {
    OutLink& out = out_[static_cast<std::size_t>(ch)];
    out.pending.clear();
    const std::uint64_t queued = rng.below(3);  // 0..2 garbage payloads
    for (std::uint64_t i = 0; i < queued; ++i)
      out.pending.push_back(random_item());
    out.active = rng.chance(0.5);
    out.current = random_item();
    out.sstate = static_cast<std::int32_t>(rng.range(0, flag_bound_));
    racc_[static_cast<std::size_t>(ch)] =
        static_cast<std::int32_t>(rng.range(0, flag_bound_));
  }
}

std::uint64_t Forward::queued_payloads() const noexcept {
  std::uint64_t total = local_.size();
  for (const OutLink& out : out_)
    total += out.pending.size() + (out.active ? 1 : 0);
  return total;
}

std::uint64_t forward_ghost_budget(sim::Simulator& sim) {
  std::uint64_t budget = 0;
  for (sim::EdgeId e = 0; e < sim.network().edge_count(); ++e)
    for (const Message& m : sim.network().edge_channel(e).contents())
      if (m.kind == MsgKind::FwdData) ++budget;
  for (int p = 0; p < sim.process_count(); ++p)
    budget += sim.process_as<svc::ServiceHost>(p).forward().queued_payloads();
  return budget;
}

namespace {

svc::HostConfig forward_only_config(
    sim::ProcessId self, int degree,
    std::shared_ptr<const sim::RoutingTable> routes,
    Forward::Options options) {
  svc::HostConfig cfg;
  cfg.with_pif = false;
  cfg.self = self;
  cfg.degree = degree;
  cfg.channel_capacity = options.channel_capacity;
  cfg.routes = std::move(routes);
  cfg.forward_options = options;
  return cfg;
}

}  // namespace

ForwardProcess::ForwardProcess(sim::ProcessId self, int degree,
                               std::shared_ptr<const sim::RoutingTable> routes,
                               Forward::Options options)
    : ServiceHost(forward_only_config(self, degree, std::move(routes),
                                      options)) {}

std::unique_ptr<sim::Simulator> forward_world(sim::Topology topology,
                                              std::size_t channel_capacity,
                                              std::uint64_t seed,
                                              Forward::Options options) {
  auto sim = std::make_unique<sim::Simulator>(std::move(topology),
                                              channel_capacity, seed);
  auto routes = std::make_shared<const sim::RoutingTable>(sim->topology());
  options.channel_capacity = static_cast<int>(channel_capacity);
  for (int p = 0; p < sim->process_count(); ++p)
    sim->add_process(std::make_unique<ForwardProcess>(
        p, sim->topology().degree(p), routes, options));
  return sim;
}

}  // namespace snapstab::core
