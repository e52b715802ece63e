// forward.hpp — a snap-stabilizing point-to-point message-forwarding
// service, the end-to-end layer the follow-up literature builds on PIF
// (Cournier–Dubois–Villain, "Two snap-stabilizing point-to-point
// communication protocols in message-switched networks").
//
// The service routes application payloads hop by hop along shortest paths
// (sim::RoutingTable — read-only configuration derived from the topology,
// which the paper's corruption model leaves intact). Every hop transfer is
// guarded by the *same flag-counting handshake that makes Protocol PIF
// snap-stabilizing*, specialized to a single directed link:
//
//   sender (per out-link)              receiver (per in-link)
//   ----------------------             ----------------------
//   sstate ∈ {0..F}, F = 2c+2          racc ∈ {0..F}
//   start transfer: sstate := 0
//   retransmit <FwdData, payload,      on FwdData ds:
//     header, sstate> while              accept payload iff racc != F-1
//     sstate < F                           and ds = F-1  (first sight)
//   on FwdEcho es:                       racc := ds
//     if es = sstate: sstate += 1        reply <FwdEcho, racc> if ds < F
//   sstate = F: hop acknowledged,
//     start next queued payload
//
// Lemma-4 argument, per hop: once a transfer starts, sstate climbs one by
// one and each increment consumes an echo carrying the exact current value.
// Arbitrary initial channel contents supply at most c stale echoes plus c
// echoes of stale data = 2c bogus increments, so with F = 2c+2 the final
// increments ride genuine round trips; FIFO order then guarantees the
// receiver's accept at flag F-1 fires exactly once per started transfer,
// with the genuinely transferred payload. Hence, from *any* initial
// configuration: every payload submitted after the faults cease is
// delivered to its destination exactly once. Initial-configuration garbage
// can still surface as deliveries (ghosts) — each corrupted buffer entry
// yields at most one, and core/specs.hpp's check_forward_spec bounds them.
//
// Bounded per-hop buffers: each out-link holds at most `hop_buffer` queued
// payloads. Local submissions that would overflow are refused (submit()
// returns false); relayed payloads are never dropped — the receiver simply
// stalls the hop handshake (ignores the accepting FwdData) until its relay
// queue has room, and the sender's retransmission completes the transfer
// later. Store-and-forward deadlock across a saturated cycle is the classic
// price of this scheme; see ROADMAP "Open items" for the linear-forwarding
// variant that removes it.
#ifndef SNAPSTAB_CORE_FORWARD_HPP
#define SNAPSTAB_CORE_FORWARD_HPP

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "msg/message.hpp"
#include "sim/process.hpp"
#include "sim/simulator.hpp"
#include "sim/topology.hpp"

namespace snapstab::core {

struct ForwardOptions {
  int channel_capacity = 1;  // known bound c; hop flag range is {0..2c+2}
  int hop_buffer = 8;        // max queued payloads per out-link
};

// Admission status of submit(). Everything except Accepted is a refusal:
// the submission is NOT covered by the exactly-once guarantee and must be
// resubmitted by the application once the refusing condition clears.
enum class ForwardSubmit : std::uint8_t {
  Accepted,         // queued on the first hop (or the local delivery queue)
  BufferFull,       // the first-hop out-link buffer is full (backpressure)
  NoRoute,          // dst is not a process of this topology
  SelfDestination,  // dst == self and the local delivery queue is full
};

inline constexpr int kForwardSubmitCount = 4;

constexpr const char* forward_submit_name(ForwardSubmit s) noexcept {
  static_assert(kForwardSubmitCount ==
                    static_cast<int>(ForwardSubmit::SelfDestination) + 1,
                "new ForwardSubmit: update count and forward_submit_name");
  switch (s) {
    case ForwardSubmit::Accepted: return "accepted";
    case ForwardSubmit::BufferFull: return "buffer-full";
    case ForwardSubmit::NoRoute: return "no-route";
    case ForwardSubmit::SelfDestination: return "self-destination";
  }
  return "?";
}

class Forward {
 public:
  using Options = ForwardOptions;

  // `routes` is shared by every process of the world (it is a pure function
  // of the topology). `self` is this process's global id, `degree` its
  // incident-channel count in the topology the table was built from.
  Forward(sim::ProcessId self, int degree,
          std::shared_ptr<const sim::RoutingTable> routes,
          Options options = {});

  sim::ProcessId self() const noexcept { return self_; }
  std::int32_t flag_bound() const noexcept { return flag_bound_; }
  int hop_buffer() const noexcept { return options_.hop_buffer; }

  // Accepts `payload` for delivery at `dst`; anything except Accepted is a
  // refusal with its reason (see ForwardSubmit above).
  ForwardSubmit submit(const Value& payload, sim::ProcessId dst);

  // The wire sequence number the next accepted submission will carry in its
  // packed FwdHeader (20-bit field; see msg/message.hpp). The service layer
  // reads it before submit() to key end-to-end delivery matching.
  std::uint32_t next_wire_seq() const noexcept { return next_seq_ & 0xFFFFF; }

  // Optional delivery hook: called for every payload delivered *here*
  // (genuine and ghost alike), after the FwdDeliver observation, with the
  // unpacked routing header. The svc::ServiceHost uses it to record
  // (origin, seq, payload) for end-to-end session completion.
  void set_on_deliver(
      std::function<void(const FwdHeader&, const Value&)> hook) {
    on_deliver_ = std::move(hook);
  }

  // Spontaneous actions: deliver self-addressed submissions, start queued
  // transfers, retransmit active hops.
  void tick(sim::Context& ctx);
  bool tick_enabled() const noexcept;

  // Receive action for FwdData / FwdEcho; other kinds are ignored
  // (returns false).
  bool handle_message(sim::Context& ctx, int ch, const Message& m);

  // Arbitrary initial state: scrambles handshake flags, sequence counter and
  // per-hop queues (queued garbage payloads are exactly the "corrupted
  // routing state" the snap-stabilization tests start from).
  void randomize(Rng& rng);

  // --- diagnostics ---
  std::uint64_t delivered_count() const noexcept { return delivered_; }
  std::uint64_t relayed_count() const noexcept { return relayed_; }
  std::uint64_t hops_acked() const noexcept { return acked_; }
  std::uint64_t discarded_invalid() const noexcept { return discarded_; }
  std::uint64_t stalled_accepts() const noexcept { return stalled_; }
  // Queued + in-transfer payloads — after randomize(), the number of ghost
  // deliveries this process's corrupted queues can still produce.
  std::uint64_t queued_payloads() const noexcept;

 private:
  struct Item {
    Value payload;
    std::int64_t header = 0;
  };
  struct OutLink {
    std::deque<Item> pending;
    bool active = false;
    Item current;
    std::int32_t sstate = 0;
  };

  int degree() const noexcept { return static_cast<int>(out_.size()); }
  void accept(sim::Context& ctx, const Message& m);
  void deliver(sim::Context& ctx, const Item& item);
  // The one definition of hop-buffer fullness: the stall check in
  // handle_message and the refusal in enqueue must agree, or accept()'s
  // post-stall enqueue assertion fires.
  bool link_full(const OutLink& out) const noexcept;
  // The one definition of the relay out-link for a destination: the stall
  // check and accept() must pick the same link for the same header, or
  // accept()'s post-stall enqueue assertion fires.
  int relay_index(sim::ProcessId dst) const;
  bool enqueue(int ch, const Item& item);
  std::int32_t clamp_flag(std::int32_t v) const noexcept;

  sim::ProcessId self_;
  std::shared_ptr<const sim::RoutingTable> routes_;
  Options options_;
  std::int32_t flag_bound_;
  std::function<void(const FwdHeader&, const Value&)> on_deliver_;

  std::vector<OutLink> out_;        // sender role, one per local index
  std::vector<std::int32_t> racc_;  // receiver role, one per local index
  std::deque<Item> local_;          // self-addressed, delivered on tick
  std::uint32_t next_seq_ = 0;

  std::uint64_t delivered_ = 0;
  std::uint64_t relayed_ = 0;
  std::uint64_t acked_ = 0;
  std::uint64_t discarded_ = 0;
  std::uint64_t stalled_ = 0;
};

// The ForwardProcess simulator wrapper, forward_world and
// forward_ghost_budget live in core/forward_world.hpp (the wrapper is a
// svc::ServiceHost now, and this header must stay includable from there).

}  // namespace snapstab::core

#endif  // SNAPSTAB_CORE_FORWARD_HPP
