// stack.hpp — the historic per-process protocol-stack wrappers, now thin
// configured views over svc::ServiceHost.
//
// The paper layers its protocols: IDL runs on top of PIF, and ME runs on
// top of both, all sharing a *single* PIF instance per process. That
// sharing — and the dispatch rule routing received broadcasts/feedbacks to
// the right layer — lives in svc::ServiceHost since PR 5; each class below
// is just a named HostConfig so existing worlds, tests and the pinned
// golden traces keep constructing the exact same stacks:
//
//   PifProcess        — Protocol PIF alone, with an application hook;
//   IdlProcess        — IDL over PIF (experiment E4);
//   MeStackProcess    — ME over IDL over PIF (experiments E5, E11);
//   ResetProcess / ElectionProcess / SnapshotProcess / TermDetectProcess
//                     — the PIF-based services of the paper's §4.1 list.
//
// Drivers request a computation from any of these stacks through
// svc::Client::submit (the session API, see svc/client.hpp), which sets the
// serving layer's Request variable to Wait and records the request in the
// observation log.
#ifndef SNAPSTAB_CORE_STACK_HPP
#define SNAPSTAB_CORE_STACK_HPP

#include <cstdint>
#include <memory>

#include "core/election.hpp"
#include "core/idl.hpp"
#include "core/me.hpp"
#include "core/pif.hpp"
#include "core/reset.hpp"
#include "core/snapshot.hpp"
#include "core/termdetect.hpp"
#include "sim/process.hpp"
#include "sim/simulator.hpp"
#include "svc/host.hpp"

namespace snapstab::core {

// ---------------------------------------------------------------------------
// PIF alone.
// ---------------------------------------------------------------------------

class PifProcess final : public svc::ServiceHost {
 public:
  // `app_brd` supplies the feedback for a received broadcast; by default
  // every broadcast is acknowledged with OK.
  PifProcess(int degree, int channel_capacity,
             std::function<Value(sim::Context&, int, const Value&)> app_brd =
                 {});
};

// ---------------------------------------------------------------------------
// IDL over PIF.
// ---------------------------------------------------------------------------

class IdlProcess final : public svc::ServiceHost {
 public:
  // `unsafe_lower_layer_first` reverses the tick order (PIF before IDL),
  // reopening the ghost-feedback window pinned by the regression
  // Idl.GhostFeedbackInTheStartWindowCannotPoisonMinId (tests/test_idl.cpp)
  // — FOR THE ABLATION EXPERIMENT (bench/exp_ablation.cpp) ONLY.
  IdlProcess(std::int64_t id, int degree, int channel_capacity,
             bool unsafe_lower_layer_first = false);
};

// ---------------------------------------------------------------------------
// The full ME stack.
// ---------------------------------------------------------------------------

struct StackOptions {
  int channel_capacity = 1;
  MeOptions me;
};

class MeStackProcess final : public svc::ServiceHost {
 public:
  MeStackProcess(std::int64_t id, int degree, StackOptions options = {});
};

// ---------------------------------------------------------------------------
// PIF-based services (the paper's §4.1 list: Reset, Leader Election,
// Snapshot, Termination Detection).
// ---------------------------------------------------------------------------

class ResetProcess final : public svc::ServiceHost {
 public:
  ResetProcess(int degree, int channel_capacity,
               std::function<void(sim::Context&)> on_reset = {});
};

class ElectionProcess final : public svc::ServiceHost {
 public:
  ElectionProcess(std::int64_t id, int degree, int channel_capacity);
};

class SnapshotProcess final : public svc::ServiceHost {
 public:
  SnapshotProcess(int degree, int channel_capacity,
                  std::function<Value()> local_state);
};

class TermDetectProcess final : public svc::ServiceHost {
 public:
  TermDetectProcess(int degree, int channel_capacity, DiffusingApp app);
};

}  // namespace snapstab::core

#endif  // SNAPSTAB_CORE_STACK_HPP
