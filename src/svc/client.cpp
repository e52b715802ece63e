#include "svc/client.hpp"

// Context method bodies (the sealed sim fast path) are inline in
// sim/simulator.hpp; every TU calling them must see the definitions.
#include "sim/simulator.hpp"

namespace snapstab::svc {

template <typename F>
auto Client::with_host(sim::ProcessId p, F&& f) {
  if (sim_ != nullptr) return f(sim_->process_as<ServiceHost>(p));
  return rt_->with_process<ServiceHost>(p, std::forward<F>(f));
}

int Client::process_count() const {
  return sim_ != nullptr ? sim_->process_count() : rt_->process_count();
}

Session Client::submit_desc(sim::ProcessId origin, const Descriptor& d,
                            CompletionFn cb) {
  // A forwarding session completes by matching the delivery record at its
  // destination — turn recording on there before anything can arrive.
  // Worlds with no ForwardMsg session record nothing (their ghost
  // deliveries keep the allocation-free delivery path).
  if (d.service == ServiceId::ForwardMsg) {
    if (d.dst >= 0 && d.dst < process_count())
      with_host(d.dst, [](ServiceHost& host) {
        host.enable_delivery_recording();
        return 0;
      });
  }
  // The RequestWait / FwdSubmit observation of a driver-side submission
  // goes to the backend's log, stamped with the current step.
  ServiceHost::Emit emit;
  if (sim_ != nullptr) {
    emit = [this, origin](sim::Layer l, sim::ObsKind k, int peer,
                          const Value& v) {
      sim_->log().emit(
          sim::Observation{sim_->step_count(), origin, l, k, peer, v});
    };
  } else {
    emit = [this, origin](sim::Layer l, sim::ObsKind k, int peer,
                          const Value& v) {
      rt_->observe_external(origin, l, k, peer, v);
    };
  }
  const ServiceHost::Submitted sub = with_host(
      origin, [&](ServiceHost& host) {
        return host.submit(origin, d, std::move(cb), emit);
      });
  Session s;
  s.key = sub.key;
  s.admission = sub.admission;
  s.coalesced = sub.coalesced;
  if (d.service == ServiceId::ForwardMsg) {
    s.dst = d.dst;
    s.wire_seq = sub.wire_seq;
    s.payload = d.payload;
  }
  return s;
}

SessionState Client::state(const Session& s) {
  const SessionState raw = with_host(s.key.origin, [&](ServiceHost& host) {
    return host.session_state(s.key.seq);
  });
  if (s.key.service != ServiceId::ForwardMsg || raw != SessionState::In)
    return raw;
  // End-to-end completion is cross-host: match the destination's delivery
  // record, then finish the origin's session (fires its callback).
  const bool delivered = with_host(s.dst, [&](ServiceHost& host) {
    return host.consume_delivery(s.key.origin, s.wire_seq, s.payload);
  });
  if (!delivered) return SessionState::In;
  with_host(s.key.origin, [&](ServiceHost& host) {
    host.finish_forward(s.key.seq);
    return 0;
  });
  return SessionState::Done;
}

SessionResult Client::result(const Session& s) {
  return with_host(s.key.origin, [&](ServiceHost& host) {
    return host.session_result(s.key.seq);
  });
}

void Client::release(const Session& s) {
  with_host(s.key.origin, [&](ServiceHost& host) {
    host.release_session(s.key.seq);
    return 0;
  });
}

bool Client::poll_all(const std::vector<Session>& sessions) {
  bool all = true;
  for (const Session& s : sessions)
    if (state(s) != SessionState::Done) all = false;
  return all;
}

AwaitResult Client::await_all(const std::vector<Session>& sessions,
                              AwaitOptions opts) {
  if (sim_ != nullptr) {
    // The stop predicate runs after every step (per opts.policy): resolve
    // each session's host(s) once up front so the hot loop is a phase check
    // per live session, not a dynamic_cast per step.
    struct Slot {
      const Session* s = nullptr;
      ServiceHost* origin = nullptr;
      ServiceHost* dst = nullptr;  // accepted ForwardMsg only
      bool done = false;
    };
    std::vector<Slot> slots;
    slots.reserve(sessions.size());
    for (const Session& s : sessions) {
      Slot slot;
      slot.s = &s;
      slot.origin = &sim_->process_as<ServiceHost>(s.key.origin);
      if (s.key.service == ServiceId::ForwardMsg && s.accepted())
        slot.dst = &sim_->process_as<ServiceHost>(s.dst);
      slots.push_back(slot);
    }
    const auto poll = [&slots] {
      bool all = true;
      for (Slot& slot : slots) {
        if (slot.done) continue;
        const Session& s = *slot.s;
        SessionState st = slot.origin->session_state(s.key.seq);
        if (st == SessionState::In && slot.dst != nullptr &&
            slot.dst->consume_delivery(s.key.origin, s.wire_seq, s.payload)) {
          slot.origin->finish_forward(s.key.seq);
          st = SessionState::Done;
        }
        if (st == SessionState::Done)
          slot.done = true;
        else
          all = false;
      }
      return all;
    };
    if (poll()) return AwaitResult::Done;
    const sim::Simulator::StopReason reason = sim_->run(
        opts.max_steps, [&poll](sim::Simulator&) { return poll(); },
        opts.policy);
    if (poll()) return AwaitResult::Done;
    // Quiescent with sessions incomplete: no step is enabled, so no amount
    // of budget can finish the batch (a stranded session — e.g. one whose
    // in-flight computation a fault wiped — is the caller's to handle).
    return reason == sim::Simulator::StopReason::Quiescent
               ? AwaitResult::RuntimeDown
               : AwaitResult::BudgetExhausted;
  }
  // The node threads keep serving between awaits, so a timed-out batch can
  // be awaited again with a bigger budget. Only shutdown() makes the
  // runtime terminal.
  if (poll_all(sessions)) return AwaitResult::Done;
  if (rt_->run([this, &sessions] { return poll_all(sessions); },
               opts.timeout))
    return AwaitResult::Done;
  return rt_->running() ? AwaitResult::BudgetExhausted
                        : AwaitResult::RuntimeDown;
}

}  // namespace snapstab::svc
