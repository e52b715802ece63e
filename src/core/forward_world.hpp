// forward_world.hpp — simulator wiring for the forwarding service.
//
// Split out of forward.hpp: the per-node wrapper is a svc::ServiceHost
// (forward-only configuration) since PR 5, and forward.hpp itself must stay
// includable from svc/host.hpp. Everything here works uniformly over
// ForwardProcess worlds and full ServiceHost worlds (svc::service_world
// with forwarding enabled).
#ifndef SNAPSTAB_CORE_FORWARD_WORLD_HPP
#define SNAPSTAB_CORE_FORWARD_WORLD_HPP

#include <memory>

#include "core/forward.hpp"
#include "svc/host.hpp"

namespace snapstab::core {

// Wrapper running the forwarding service alone (no PIF stack) — a named
// forward-only ServiceHost, kept for the historic constructor signature.
class ForwardProcess final : public svc::ServiceHost {
 public:
  ForwardProcess(sim::ProcessId self, int degree,
                 std::shared_ptr<const sim::RoutingTable> routes,
                 Forward::Options options = {});
};

// Builds a forwarding world: one ForwardProcess per node of `topology`, all
// sharing one routing table.
std::unique_ptr<sim::Simulator> forward_world(sim::Topology topology,
                                              std::size_t channel_capacity,
                                              std::uint64_t seed,
                                              Forward::Options options = {});

// The number of corrupted entries in `sim`'s *current* configuration that
// can lawfully surface as ghost deliveries: forged FwdData messages in the
// channels plus payloads sitting in per-hop queues. Capture it right after
// fuzzing and pass it as ForwardSpecOptions::max_ghost_deliveries — the
// single definition the tests, exp_forwarding and the svc session tests
// use. Works over any world whose processes are ServiceHosts with the
// forwarding service configured.
std::uint64_t forward_ghost_budget(sim::Simulator& sim);

}  // namespace snapstab::core

#endif  // SNAPSTAB_CORE_FORWARD_WORLD_HPP
