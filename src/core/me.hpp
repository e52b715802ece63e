// me.hpp — Protocol ME (Algorithm 3 of the paper): snap-stabilizing mutual
// exclusion.
//
// The process with the smallest identity (the *leader* L) arbitrates: its
// variable Value designates the process currently authorized to enter the
// critical section ("L favours p"): Value = 0 favours L itself, Value = q
// (a local channel number, 1..n-1 in the paper, local index q-1 here)
// favours the neighbor on that channel.
//
// Each process cycles through five phases; every phase-change waits for the
// termination of the sub-computation launched by the previous phase:
//
//   Phase 0 (A0): start an IDL computation; take a pending request into
//                 account (Request: Wait -> In).
//   Phase 1 (A1): IDL done — the leader is known; PIF-broadcast ASK.
//   Phase 2 (A2): ASK done — Privileges[] holds everyone's answer; if
//                 Winner, PIF-broadcast EXIT to force every other process
//                 back to phase 0 (kills ghost winners).
//   Phase 3 (A3): if Winner: execute the CS when Request = In, then release
//                 — the leader advances Value from 0 to 1 itself, a
//                 non-leader PIF-broadcasts EXITCS so the leader advances.
//   Phase 4 (A4): wait for the release broadcast to finish; back to 0.
//
// Receive handlers (dispatched via the shared PIF, see stack.hpp):
//   A5 receive-brd<ASK> from q    -> feedback YES iff Value = q
//   A6 receive-brd<EXIT> from q   -> Phase := 0, feedback OK
//   A7 receive-brd<EXITCS> from q -> if Value = q: advance Value; OK
//   A8/A9 receive-fck<YES|NO>     -> Privileges[q] := true|false
//   A10 receive-fck<OK>           -> nothing
//
// Deviations from the paper (each pinned by tests/test_me.cpp):
//  * Value advances modulo n, not the paper's literal (n+1): the declared
//    domain is {0..n-1} and value n would favour nobody forever — a
//    deadlock, reproduced by `paper_faithful_increment` and the regression
//    tests.
//  * The critical section occupies an interval of `cs_length` activations
//    during which the process is busy (receives nothing); the paper folds
//    the CS into atomic action A3, which would make mutual-exclusion
//    violations unobservable in a faithful simulator.
#ifndef SNAPSTAB_CORE_ME_HPP
#define SNAPSTAB_CORE_ME_HPP

#include <cstdint>
#include <functional>
#include <vector>

#include "core/idl.hpp"
#include "core/pif.hpp"
#include "core/request.hpp"

namespace snapstab::core {

struct MeOptions {
  int cs_length = 3;  // critical-section duration in activations (>= 1)
  // Use the paper's literal A7 increment `(Value+1) mod (n+1)`; deadlocks
  // once Value reaches n (experiment E5 regression).
  bool paper_faithful_increment = false;
  // Optional body executed when the critical section completes.
  std::function<void()> cs_body;
};

class Me {
 public:
  Me(std::int64_t own_id, int degree, Pif& pif, Idl& idl, MeOptions options);

  // External request for the critical section (Request := Wait). Ignored
  // while a previous request is still being served, per the paper's usage
  // rule. Returns true when the request was accepted. Drivers should submit
  // a svc::CriticalSection session instead, which queues a request that
  // arrives too early and records it in the observation log.
  bool request_cs();

  RequestState request_state() const noexcept { return st_.request; }
  int phase() const noexcept { return st_.phase; }
  int value() const noexcept { return st_.value; }
  bool in_cs() const noexcept { return st_.cs_remaining > 0; }
  bool privilege(int ch) const {
    return st_.privileges[static_cast<std::size_t>(ch)];
  }
  std::int64_t own_id() const noexcept { return own_id_; }

  // The paper's Winner(p) predicate.
  bool winner() const;

  // True when this process currently believes it is the leader.
  bool believes_leader() const { return idl_.min_id() == own_id_; }

  // Spontaneous actions A0..A4 in text order, plus the CS countdown.
  void tick(sim::Context& ctx);
  bool tick_enabled() const noexcept;

  // Dispatch targets (see stack.hpp).
  Value on_brd_ask(sim::Context& ctx, int ch);     // A5
  Value on_brd_exit(sim::Context& ctx, int ch);    // A6
  Value on_brd_exitcs(sim::Context& ctx, int ch);  // A7
  void on_fck_ask(sim::Context& ctx, int ch, const Value& f);  // A8 / A9

  void randomize(Rng& rng);

  struct State {
    RequestState request = RequestState::Done;
    int phase = 0;
    int value = 0;
    std::vector<bool> privileges;
    int cs_remaining = 0;  // > 0 while inside the critical section
    // Instrumentation, not protocol state: set only by request_cs(), so the
    // specification checker can tell externally-requested computations from
    // ghost computations present in the arbitrary initial configuration.
    bool externally_requested = false;
  };
  const State& state() const noexcept { return st_; }
  State& mutable_state() noexcept { return st_; }

 private:
  int value_modulus() const noexcept;
  void release();  // the token hand-off half of A3
  void finish_cs(sim::Context& ctx);

  std::int64_t own_id_;
  int degree_;
  Pif& pif_;
  Idl& idl_;
  MeOptions options_;
  State st_;
};

}  // namespace snapstab::core

#endif  // SNAPSTAB_CORE_ME_HPP
