// test_svc.cpp — the unified service/session API (svc::ServiceHost +
// svc::Client): one submit/poll/complete surface over every protocol.
//
// Covers the session lifecycle edges: Wait/In/Done mirroring of the
// paper's Request variable, submit-while-In queuing order, duplicate
// submit coalescing, forwarding admission reasons and end-to-end delivery
// acks, completion across a mid-run corruption burst (ghost-budget
// assertion), and identical session transcripts Simulator vs
// ThreadRuntime.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "core/forward_world.hpp"
#include "core/specs.hpp"
#include "core/stack.hpp"
#include "net/socket_runtime.hpp"
#include "runtime/thread_runtime.hpp"
#include "sim/fuzz.hpp"
#include "sim/simulator.hpp"
#include "svc/client.hpp"
#include "svc/supervisor.hpp"

namespace snapstab::svc {
namespace {

using core::ForwardSubmit;
using sim::Simulator;
using sim::Step;

std::unique_ptr<Simulator> pif_host_world(int n, std::uint64_t seed) {
  auto sim = std::make_unique<Simulator>(n, 1, seed);
  for (int i = 0; i < n; ++i)
    sim->add_process(std::make_unique<core::PifProcess>(n - 1, 1));
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(seed));
  return sim;
}

// ---------------------------------------------------------------------------
// Lifecycle basics: Wait -> In -> Done, uniform results.
// ---------------------------------------------------------------------------

TEST(SvcSession, MirrorsThePapersRequestVariable) {
  auto sim = pif_host_world(3, 1);
  Client client(*sim);
  const Value payload = Value::text("How old are you?");
  const Session s = client.submit(0, PifBroadcast{payload});
  EXPECT_EQ(s.key.origin, 0);
  EXPECT_EQ(s.key.service, ServiceId::PifBroadcast);
  // Submitted = the application set Request := Wait (A1 has not run).
  EXPECT_EQ(client.state(s), SessionState::Wait);
  // One activation of the host executes A1: the computation is In.
  sim->execute(Step::tick(0));
  EXPECT_EQ(client.state(s), SessionState::In);
  ASSERT_TRUE(client.run_until(s));
  EXPECT_EQ(client.state(s), SessionState::Done);
  const SessionResult r = client.result(s);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.value, payload);
}

TEST(SvcSession, CompletionCallbackFiresOnceWithKeyAndResult) {
  auto sim = pif_host_world(2, 2);
  Client client(*sim);
  int fired = 0;
  SessionKey seen_key;
  SessionResult seen_result;
  const Session s = client.submit(
      1, PifBroadcast{Value::integer(7)},
      [&](const SessionKey& k, const SessionResult& r) {
        ++fired;
        seen_key = k;
        seen_result = r;
      });
  ASSERT_TRUE(client.run_until(s));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(seen_key, s.key);
  EXPECT_TRUE(seen_result.completed);
  EXPECT_EQ(seen_result.value, Value::integer(7));
}

TEST(SvcSession, ReleaseRecyclesTheHostRecord) {
  auto sim = pif_host_world(2, 3);
  Client client(*sim);
  const Session s = client.submit(0, PifBroadcast{Value::integer(1)});
  ASSERT_TRUE(client.run_until(s));
  auto& host = sim->process_as<ServiceHost>(0);
  EXPECT_EQ(host.session_count(), 1);
  client.release(s);
  EXPECT_EQ(host.session_count(), 0);
  // A released session reads as Done-and-forgotten.
  EXPECT_EQ(client.state(s), SessionState::Done);
}

// ---------------------------------------------------------------------------
// Submit-while-In queuing.
// ---------------------------------------------------------------------------

TEST(SvcSession, SubmitWhileInQueuesInSubmissionOrder) {
  auto sim = pif_host_world(3, 5);
  Client client(*sim);
  const Value b1 = Value::integer(101);
  const Value b2 = Value::integer(102);
  const Value b3 = Value::integer(103);
  const Session s1 = client.submit(0, PifBroadcast{b1});
  const Session s2 = client.submit(0, PifBroadcast{b2});
  const Session s3 = client.submit(0, PifBroadcast{b3});
  EXPECT_EQ(client.state(s1), SessionState::Wait);
  EXPECT_EQ(client.state(s2), SessionState::Wait);  // queued behind s1
  sim->execute(Step::tick(0));
  EXPECT_EQ(client.state(s1), SessionState::In);
  EXPECT_EQ(client.state(s2), SessionState::Wait);  // still queued
  ASSERT_TRUE(client.run_until({s1, s2, s3}));
  // The host ran the three computations strictly in submission order:
  // request and decision events appear b1, b2, b3.
  std::vector<Value> requests;
  std::vector<Value> decisions;
  for (const auto& e : sim->log().events()) {
    if (e.process != 0 || e.layer != sim::Layer::Pif) continue;
    if (e.kind == sim::ObsKind::RequestWait) requests.push_back(e.value);
    if (e.kind == sim::ObsKind::Decide) decisions.push_back(e.value);
  }
  EXPECT_EQ(requests, (std::vector<Value>{b1, b2, b3}));
  EXPECT_EQ(decisions, (std::vector<Value>{b1, b2, b3}));
}

TEST(SvcSession, DuplicateSubmitCoalescesWithTheQueuedTwin) {
  auto sim = pif_host_world(3, 6);
  Client client(*sim);
  const Value dup = Value::integer(55);
  int cb2 = 0, cb3 = 0;
  const Session s1 = client.submit(0, PifBroadcast{Value::integer(11)});
  const Session s2 = client.submit(  // queued
      0, PifBroadcast{dup},
      [&cb2](const SessionKey&, const SessionResult&) { ++cb2; });
  const Session s3 = client.submit(  // coalesces
      0, PifBroadcast{dup},
      [&cb3](const SessionKey&, const SessionResult&) { ++cb3; });
  EXPECT_FALSE(s2.coalesced);
  EXPECT_TRUE(s3.coalesced);
  EXPECT_EQ(s3.key, s2.key);
  ASSERT_TRUE(client.run_until({s1, s2, s3}));
  // Both callers' completion callbacks fired, chained on the one session.
  EXPECT_EQ(cb2, 1);
  EXPECT_EQ(cb3, 1);
  // The coalesced pair ran as ONE computation: one request, one decision.
  int dup_requests = 0;
  for (const auto& e : sim->log().events())
    if (e.process == 0 && e.kind == sim::ObsKind::RequestWait &&
        e.value == dup)
      ++dup_requests;
  EXPECT_EQ(dup_requests, 1);
}

TEST(SvcSession, CriticalSectionSessionsQueueInsteadOfRefusing) {
  auto sim = std::make_unique<Simulator>(3, 1, 9);
  for (int i = 0; i < 3; ++i)
    sim->add_process(std::make_unique<core::MeStackProcess>(i + 1, 2));
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(9));
  Client client(*sim);
  const Session g1 = client.submit(1, CriticalSection{});
  const Session g2 = client.submit(1, CriticalSection{});  // queues (no false)
  EXPECT_FALSE(g2.coalesced);  // CS grants do not coalesce: two grants wanted
  ASSERT_TRUE(client.run_until({g1, g2}));
  EXPECT_TRUE(client.result(g1).cs_granted);
  EXPECT_TRUE(client.result(g2).cs_granted);
  // ...while the layer itself still refuses a second request mid-service.
  const Session g3 = client.submit(1, CriticalSection{});
  EXPECT_FALSE(sim->process_as<core::MeStackProcess>(1).me().request_cs());
  ASSERT_TRUE(client.run_until(g3));
}

// ---------------------------------------------------------------------------
// The PIF-based services through sessions.
// ---------------------------------------------------------------------------

TEST(SvcServices, ResetElectionSnapshotTermdetectUniformSurface) {
  const int n = 4;
  std::vector<int> hooks(static_cast<std::size_t>(n), 0);
  auto sim = service_world(
      sim::Topology::complete(n), 1, 21, [&](sim::ProcessId p) {
        HostConfig cfg;
        cfg.id = 100 - p;  // process n-1 holds the smallest id
        cfg.with_reset = true;
        cfg.with_election = true;
        cfg.with_snapshot = true;
        cfg.on_reset = [&hooks, p](sim::Context&) {
          ++hooks[static_cast<std::size_t>(p)];
        };
        cfg.local_state = [p] { return Value::integer(1000 + p); };
        return cfg;
      });
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(22));
  Client client(*sim);

  std::vector<Session> sessions;
  sessions.push_back(client.submit(0, Reset{}));
  for (int p = 0; p < n; ++p)
    sessions.push_back(client.submit(p, Election{}));
  sessions.push_back(client.submit(2, Snapshot{}));
  ASSERT_TRUE(client.run_until(sessions));

  for (int p = 0; p < n; ++p)
    EXPECT_GE(hooks[static_cast<std::size_t>(p)], 1) << "p" << p;
  std::set<int> ranks;
  for (int p = 0; p < n; ++p) {
    const SessionResult r = client.result(sessions[1 + static_cast<std::size_t>(p)]);
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.min_id, 100 - (n - 1));
    ranks.insert(r.rank);
  }
  EXPECT_EQ(static_cast<int>(ranks.size()), n);
  const SessionResult snap = client.result(sessions.back());
  EXPECT_TRUE(snap.completed);
  EXPECT_TRUE(snap.value.is_int());  // the digest
  EXPECT_NE(snap.value, Value::none());
}

// ---------------------------------------------------------------------------
// Forwarding sessions: admission reasons, delivery acks.
// ---------------------------------------------------------------------------

TEST(SvcForward, AdmissionReasonsSurfaceThroughResult) {
  auto sim = core::forward_world(sim::Topology::line(3), 1, 31,
                                 core::Forward::Options{.hop_buffer = 1});
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(31));
  Client client(*sim);

  const Session ok = client.submit(0, ForwardMsg{2, Value::integer(2'000'000)});
  EXPECT_EQ(ok.admission, ForwardSubmit::Accepted);
  EXPECT_TRUE(ok.accepted());

  const Session full =
      client.submit(0, ForwardMsg{2, Value::integer(2'000'001)});
  EXPECT_EQ(full.admission, ForwardSubmit::BufferFull);
  EXPECT_EQ(client.state(full), SessionState::Done);  // born Done (refused)
  EXPECT_FALSE(client.result(full).completed);
  EXPECT_EQ(client.result(full).admission, ForwardSubmit::BufferFull);

  const Session no_route =
      client.submit(0, ForwardMsg{7, Value::integer(2'000'002)});
  EXPECT_EQ(no_route.admission, ForwardSubmit::NoRoute);

  const Session self_ok =
      client.submit(1, ForwardMsg{1, Value::integer(2'000'003)});
  EXPECT_EQ(self_ok.admission, ForwardSubmit::Accepted);
  const Session self_full =
      client.submit(1, ForwardMsg{1, Value::integer(2'000'004)});
  EXPECT_EQ(self_full.admission, ForwardSubmit::SelfDestination);

  ASSERT_TRUE(client.run_until({ok, self_ok}));
  EXPECT_EQ(client.result(ok).value, Value::integer(2'000'000));
  EXPECT_EQ(client.result(self_ok).value, Value::integer(2'000'003));
  EXPECT_TRUE(core::check_forward_spec(*sim).ok());
}

TEST(SvcForward, SessionCompletesAcrossAMidRunCorruptionBurst) {
  auto sim = core::forward_world(sim::Topology::ring(5), 1, 41);
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(
      41, sim::LossOptions{.rate = 0.1, .max_consecutive = 4}));
  Client client(*sim);

  // Phase 1: clean service.
  const Session a = client.submit(0, ForwardMsg{2, Value::integer(3'000'000)});
  const Session b = client.submit(3, ForwardMsg{1, Value::integer(3'000'001)});
  ASSERT_TRUE(client.run_until({a, b}));

  // Mid-run corruption burst: scramble every hop handshake and queue, stuff
  // forged forwarding traffic into the channels.
  Rng chaos(411);
  sim::FuzzOptions burst;
  burst.flag_limit = 4;
  burst.forward_header_n = 5;
  sim::fuzz(*sim, chaos, burst);
  const std::uint64_t ghost_budget = core::forward_ghost_budget(*sim);

  // Phase 2: sessions submitted after the burst still complete...
  const Session c = client.submit(1, ForwardMsg{4, Value::integer(3'000'002)});
  const Session d = client.submit(2, ForwardMsg{0, Value::integer(3'000'003)});
  ASSERT_TRUE(client.run_until({c, d}));
  EXPECT_EQ(client.result(c).value, Value::integer(3'000'002));
  EXPECT_EQ(client.result(d).value, Value::integer(3'000'003));

  // ...and the burst's garbage surfaces as at most ghost_budget deliveries
  // (each corrupted entry at most once — the snap-stabilization bound).
  const auto report = core::check_forward_spec(
      *sim, {.require_all_delivered = true,
             .max_ghost_deliveries = ghost_budget});
  EXPECT_TRUE(report.ok()) << report.summary();
}

// ---------------------------------------------------------------------------
// Backend equivalence: the same client program on Simulator and
// ThreadRuntime yields the same session transcript.
// ---------------------------------------------------------------------------

struct Transcript {
  std::vector<SessionKey> keys;
  std::vector<bool> done;
  std::vector<Value> values;

  bool operator==(const Transcript&) const = default;
};

// The one client program, written once against Client's backend-neutral
// surface (the acceptance shape of the svc API).
template <typename Backend>
Transcript run_program(Backend& backend) {
  Client client(backend);
  std::vector<Session> sessions;
  sessions.push_back(client.submit(0, PifBroadcast{Value::text("alpha")}));
  sessions.push_back(client.submit(1, PifBroadcast{Value::text("beta")}));
  sessions.push_back(client.submit(0, PifBroadcast{Value::text("gamma")}));
  EXPECT_TRUE(client.run_until(sessions));
  Transcript t;
  for (const Session& s : sessions) {
    t.keys.push_back(s.key);
    t.done.push_back(client.done(s));
    t.values.push_back(client.result(s).value);
  }
  return t;
}

TEST(SvcBackends, IdenticalSessionTranscriptSimulatorVsThreadRuntime) {
  const int n = 3;
  auto sim = pif_host_world(n, 51);
  const Transcript sim_transcript = run_program(*sim);

  runtime::ThreadRuntime rt(n, {.seed = 51});
  for (int i = 0; i < n; ++i)
    rt.add_process(std::make_unique<core::PifProcess>(n - 1, 1));
  const Transcript rt_transcript = run_program(rt);

  EXPECT_EQ(sim_transcript, rt_transcript);
  // Both backends recorded the submissions in their observation streams.
  int rt_requests = 0;
  for (const auto& e : rt.observations())
    if (e.kind == sim::ObsKind::RequestWait) ++rt_requests;
  EXPECT_EQ(rt_requests, 3);
}

// ---------------------------------------------------------------------------
// Sessions add no RNG draws: a session-driven world replays the exact
// engine step sequence of one whose Request variable was set directly.
// ---------------------------------------------------------------------------

TEST(SvcDeterminism, SessionDriveMatchesRawRequestPoke) {
  const auto run_raw = [] {
    auto sim = pif_host_world(4, 77);
    sim->process_as<core::PifProcess>(0).pif().request(Value::integer(7));
    sim->run(100'000, [](Simulator& s) {
      return s.process_as<core::PifProcess>(0).pif().done();
    });
    return sim;
  };
  const auto run_session = [] {
    auto sim = pif_host_world(4, 77);
    Client client(*sim);
    const Session s = client.submit(0, PifBroadcast{Value::integer(7)});
    EXPECT_TRUE(client.run_until(s));
    return sim;
  };
  auto a = run_raw();
  auto b = run_session();
  EXPECT_EQ(a->metrics().steps, b->metrics().steps);
  EXPECT_EQ(a->metrics().sends, b->metrics().sends);
  EXPECT_EQ(a->metrics().deliveries, b->metrics().deliveries);
  // The session's log is the raw run's log behind one RequestWait line.
  ASSERT_EQ(b->log().size(), a->log().size() + 1);
  const sim::Observation& request = b->log().events()[0];
  EXPECT_EQ(request.kind, sim::ObsKind::RequestWait);
  EXPECT_EQ(request.process, 0);
  EXPECT_EQ(request.value, Value::integer(7));
  for (std::size_t i = 0; i < a->log().size(); ++i)
    EXPECT_EQ(a->log().events()[i].to_string(),
              b->log().events()[i + 1].to_string())
        << "event " << i;
}

// ---------------------------------------------------------------------------
// AwaitOptions hardening: a bounded run_until returns false instead of
// spinning when sessions cannot complete, on both backends.
// ---------------------------------------------------------------------------

TEST(SvcAwait, SimulatorBudgetExhaustionReturnsFalseAndIsRetryable) {
  auto sim = pif_host_world(3, 91);
  Client client(*sim);
  const Session s = client.submit(0, PifBroadcast{Value::integer(5)});
  // Far too few steps for a PIF cycle on n=3: the await must give up at the
  // budget, not spin, and leave the session In.
  AwaitOptions tight;
  tight.max_steps = 3;
  EXPECT_FALSE(client.run_until(s, tight));
  EXPECT_EQ(sim->step_count(), 3u);
  EXPECT_FALSE(client.done(s));
  // A follow-up await with a real budget finishes the same session.
  EXPECT_TRUE(client.run_until(s));
  EXPECT_TRUE(client.result(s).completed);
}

TEST(SvcAwait, RefusedForwardSessionIsDoneNotAwaitedForever) {
  auto sim = core::forward_world(sim::Topology::line(3), 1, 92,
                                 core::Forward::Options{.hop_buffer = 1});
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(92));
  Client client(*sim);
  // dst 99 is not a process of this topology: refused at admission, born
  // Done. run_until must see Done immediately (zero steps), with the
  // refusal surfaced through the result, not loop on an unreachable goal.
  const Session s = client.submit(0, ForwardMsg{99, Value::integer(1)});
  EXPECT_EQ(s.admission, ForwardSubmit::NoRoute);
  EXPECT_TRUE(client.run_until(s));
  EXPECT_EQ(sim->step_count(), 0u);
  const SessionResult r = client.result(s);
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.admission, ForwardSubmit::NoRoute);
}

TEST(SvcAwait, ThreadRuntimeTimeoutReturnsFalseAndSecondAwaitDoesNotCrash) {
  const int n = 3;
  // Total message loss: the PIF wave can never complete, so the await can
  // only end at the wall-clock budget.
  runtime::ThreadRuntime rt(n, {.loss_rate = 1.0, .seed = 93});
  for (int i = 0; i < n; ++i)
    rt.add_process(std::make_unique<core::PifProcess>(n - 1, 1));
  Client client(rt);
  const Session s = client.submit(0, PifBroadcast{Value::integer(9)});
  AwaitOptions opts;
  opts.timeout = std::chrono::milliseconds(50);
  EXPECT_FALSE(client.run_until(s, opts));
  // The node threads keep serving: a retry after the timeout waits out its
  // own budget and reports false again.
  EXPECT_FALSE(client.run_until(s, opts));
  EXPECT_FALSE(client.done(s));
}

// ---------------------------------------------------------------------------
// Supervisor resilience stack: the per-service circuit breaker
// (Closed -> Open -> HalfOpen) and hedged resubmits, all deterministic on
// the engine step clock.
// ---------------------------------------------------------------------------

TEST(SvcBreaker, TripsOpensProbesAndCloses) {
  auto sim = pif_host_world(3, 61);
  Client client(*sim);
  SuperviseOptions so;
  so.attempt_deadline = 2'000;
  so.retry_budget = 6;
  so.backoff_base = 4;
  so.backoff_max = 8;
  so.breaker.enabled = true;
  so.breaker.failure_threshold = 2;
  so.breaker.open_cooldown = 50'000;  // never elapses inside this run
  Supervisor sup(client, so);
  EXPECT_EQ(sup.breaker_state(ServiceId::PifBroadcast), BreakerState::Closed);
  const auto t = sup.supervise(0, PifBroadcast{Value::integer(41)});
  // Kill exactly the first two attempts: crash the origin host once per
  // attempt number, the first pump after each launch.
  Rng rng(7);
  int last_killed = 0;
  sup.set_on_pump([&] {
    if (sup.terminal(t)) return;
    const int a = sup.attempts(t);
    if (a >= 1 && a <= 2 && a != last_killed) {
      sim->process_as<ServiceHost>(0).crash_restart(rng);
      last_killed = a;
    }
  });
  AwaitOptions aw;
  aw.policy.check_every = 1;
  ASSERT_TRUE(sup.run_all(aw));
  EXPECT_EQ(sup.outcome(t), SessionOutcome::Ok);
  // Two kills reach the threshold and trip the breaker; the resubmission
  // lands on it Open (held, no attempt burned), the quiescent cooldown
  // fast-forward half-opens it, and the probe succeeds and closes it.
  EXPECT_EQ(sup.attempts(t), 3);
  EXPECT_EQ(sup.stats().breaker_trips, 1u);
  EXPECT_EQ(sup.stats().breaker_short_circuits, 1u);
  EXPECT_EQ(sup.stats().probes, 1u);
  EXPECT_EQ(sup.breaker_state(ServiceId::PifBroadcast), BreakerState::Closed);
}

TEST(SvcBreaker, ProbeQuotaAdmitsExactlyOneWhileHalfOpen) {
  auto sim = pif_host_world(3, 63);
  Client client(*sim);
  SuperviseOptions so;
  so.attempt_deadline = 2'000;
  so.retry_budget = 6;
  so.backoff_base = 4;
  so.backoff_max = 8;
  so.breaker.enabled = true;
  so.breaker.failure_threshold = 1;
  so.breaker.open_cooldown = 50'000;
  so.breaker.probe_quota = 1;
  Supervisor sup(client, so);
  const auto t1 = sup.supervise(0, PifBroadcast{Value::integer(7)});
  const auto t2 = sup.supervise(1, PifBroadcast{Value::integer(8)});
  // Kill both first attempts before any pump: the first failure trips the
  // breaker, the second lands on it already Open.
  Rng rng(9);
  sim->process_as<ServiceHost>(0).crash_restart(rng);
  sim->process_as<ServiceHost>(1).crash_restart(rng);
  AwaitOptions aw;
  aw.policy.check_every = 1;
  ASSERT_TRUE(sup.run_all(aw));
  EXPECT_EQ(sup.outcome(t1), SessionOutcome::Ok);
  EXPECT_EQ(sup.outcome(t2), SessionOutcome::Ok);
  EXPECT_EQ(sup.stats().breaker_trips, 1u);
  EXPECT_EQ(sup.stats().probes, 1u);  // the quota admitted exactly one
  EXPECT_EQ(sup.breaker_state(ServiceId::PifBroadcast), BreakerState::Closed);
}

TEST(SvcBreaker, FailedProbeReopensTheBreaker) {
  auto sim = pif_host_world(3, 65);
  Client client(*sim);
  SuperviseOptions so;
  so.attempt_deadline = 2'000;
  so.retry_budget = 6;
  so.backoff_base = 4;
  so.backoff_max = 8;
  so.breaker.enabled = true;
  so.breaker.failure_threshold = 1;
  so.breaker.open_cooldown = 50'000;
  Supervisor sup(client, so);
  const auto t = sup.supervise(0, PifBroadcast{Value::integer(9)});
  Rng rng(11);
  int last_killed = 0;
  sup.set_on_pump([&] {
    if (sup.terminal(t)) return;
    const int a = sup.attempts(t);
    if (a >= 1 && a <= 2 && a != last_killed) {
      sim->process_as<ServiceHost>(0).crash_restart(rng);
      last_killed = a;
    }
  });
  AwaitOptions aw;
  aw.policy.check_every = 1;
  ASSERT_TRUE(sup.run_all(aw));
  // Attempt 1 trips the breaker; attempt 2 IS the HalfOpen probe and dies,
  // reopening it (the second trip); attempt 3 is the second probe and
  // closes it.
  EXPECT_EQ(sup.outcome(t), SessionOutcome::Ok);
  EXPECT_EQ(sup.attempts(t), 3);
  EXPECT_EQ(sup.stats().breaker_trips, 2u);
  EXPECT_EQ(sup.stats().probes, 2u);
  EXPECT_EQ(sup.breaker_state(ServiceId::PifBroadcast), BreakerState::Closed);
}

TEST(SvcBreaker, DisabledBreakerNeverTripsOrHolds) {
  auto sim = pif_host_world(3, 67);
  Client client(*sim);
  SuperviseOptions so;
  so.attempt_deadline = 2'000;
  so.retry_budget = 6;
  so.backoff_base = 4;
  Supervisor sup(client, so);  // breaker disabled by default
  const auto t = sup.supervise(0, PifBroadcast{Value::integer(3)});
  Rng rng(13);
  int last_killed = 0;
  sup.set_on_pump([&] {
    if (sup.terminal(t)) return;
    const int a = sup.attempts(t);
    if (a >= 1 && a <= 2 && a != last_killed) {
      sim->process_as<ServiceHost>(0).crash_restart(rng);
      last_killed = a;
    }
  });
  AwaitOptions aw;
  aw.policy.check_every = 1;
  ASSERT_TRUE(sup.run_all(aw));
  EXPECT_EQ(sup.outcome(t), SessionOutcome::Ok);
  EXPECT_EQ(sup.stats().breaker_trips, 0u);
  EXPECT_EQ(sup.stats().breaker_short_circuits, 0u);
  EXPECT_EQ(sup.stats().probes, 0u);
  EXPECT_EQ(sup.breaker_state(ServiceId::PifBroadcast), BreakerState::Closed);
}

TEST(SvcHedge, HealthyRequestLaunchesNoBackup) {
  auto sim = pif_host_world(3, 69);
  Client client(*sim);
  SuperviseOptions so;
  so.hedge.enabled = true;
  so.hedge.hedge_after = 100'000;  // far beyond the healthy completion
  Supervisor sup(client, so);
  const auto t = sup.supervise(0, PifBroadcast{Value::integer(5)});
  AwaitOptions aw;
  aw.policy.check_every = 1;
  ASSERT_TRUE(sup.run_all(aw));
  EXPECT_EQ(sup.outcome(t), SessionOutcome::Ok);
  EXPECT_EQ(sup.stats().hedges_launched, 0u);
  EXPECT_EQ(sup.stats().hedge_wins, 0u);
}

TEST(SvcHedge, BackupLaunchesAfterTheLatencyBudgetAndFirstTerminalWins) {
  auto sim = pif_host_world(3, 71);
  Client client(*sim);
  SuperviseOptions so;
  so.hedge.enabled = true;
  so.hedge.hedge_after = 1;  // fires on the first pump past launch
  so.hedge.max_hedges = 1;
  Supervisor sup(client, so);
  const auto t = sup.supervise(0, PifBroadcast{Value::integer(6)});
  AwaitOptions aw;
  aw.policy.check_every = 1;
  ASSERT_TRUE(sup.run_all(aw));
  // Exactly one backup launched (max_hedges caps it even though the budget
  // keeps elapsing), the first terminal result won, and the ticket settled
  // once — no double completion.
  EXPECT_EQ(sup.outcome(t), SessionOutcome::Ok);
  EXPECT_EQ(sup.result(t).value, Value::integer(6));
  EXPECT_EQ(sup.stats().hedges_launched, 1u);
  EXPECT_EQ(sup.stats().ok, 1u);
  EXPECT_EQ(sup.live(), 0);
}

TEST(SvcResilience, BreakerPlusHedgeRunsAreDeterministic) {
  const auto run_once = [] {
    auto sim = pif_host_world(4, 73);
    Client client(*sim);
    SuperviseOptions so;
    so.attempt_deadline = 1'200;
    so.retry_budget = 4;
    so.backoff_base = 8;
    so.seed = 73;
    so.breaker.enabled = true;
    so.breaker.failure_threshold = 2;
    so.breaker.open_cooldown = 256;
    so.hedge.enabled = true;
    so.hedge.hedge_after = 600;
    Supervisor sup(client, so);
    Rng rng(17);
    int pumps = 0;
    sup.set_on_pump([&] {
      // A deterministic burst of kills early in the run.
      if (++pumps <= 3)
        sim->process_as<ServiceHost>(pumps % 4).crash_restart(rng);
    });
    std::vector<Supervisor::Ticket> ts;
    for (int i = 0; i < 4; ++i)
      ts.push_back(sup.supervise(i, PifBroadcast{Value::integer(500 + i)}));
    AwaitOptions aw;
    aw.policy.check_every = 4;
    sup.run_all(aw);
    std::vector<int> outcomes;
    for (const auto t : ts)
      outcomes.push_back(static_cast<int>(sup.outcome(t)));
    return std::tuple(sim->step_count(), outcomes, sup.stats().resubmits,
                      sup.stats().breaker_trips, sup.stats().probes,
                      sup.stats().hedges_launched, sup.stats().hedge_wins);
  };
  EXPECT_EQ(run_once(), run_once());
}

// ---------------------------------------------------------------------------
// AwaitResult: the typed verdict behind the bool shim — "more budget might
// finish this" (BudgetExhausted) vs "no budget ever will" (RuntimeDown).
// ---------------------------------------------------------------------------

TEST(SvcAwait, AwaitResultNamesAreExhaustive) {
  EXPECT_STREQ(await_result_name(AwaitResult::Done), "done");
  EXPECT_STREQ(await_result_name(AwaitResult::BudgetExhausted),
               "budget-exhausted");
  EXPECT_STREQ(await_result_name(AwaitResult::RuntimeDown), "runtime-down");
}

TEST(SvcAwait, SimulatorBudgetVerdictIsTypedAndRetryable) {
  auto sim = pif_host_world(3, 94);
  Client client(*sim);
  const Session s = client.submit(0, PifBroadcast{Value::integer(4)});
  // Steps remain enabled at the budget: BudgetExhausted, not RuntimeDown —
  // a bigger budget finishes the same session. (A quiescent Simulator with
  // incomplete sessions would read RuntimeDown, but the snap-stabilizing
  // protocols retransmit: even a fully wiped channel set re-enables, which
  // is exactly why the typed verdict matters on a HostRuntime, which a
  // shutdown() really can stop under the await.)
  AwaitOptions tight;
  tight.max_steps = 2;
  EXPECT_EQ(client.await_all({s}, tight), AwaitResult::BudgetExhausted);
  EXPECT_FALSE(client.done(s));
  AwaitOptions roomy;
  roomy.max_steps = 1'000'000;
  EXPECT_EQ(client.await_all({s}, roomy), AwaitResult::Done);
  EXPECT_TRUE(client.result(s).completed);
}

// Total loss: the wave cannot complete, so every await on the live
// runtime ends at its wall budget — BudgetExhausted, however often it is
// retried. Only shutdown() makes the runtime terminal: RuntimeDown.
template <typename Runtime>
void expect_timeouts_then_shutdown(Runtime& rt) {
  for (int i = 0; i < rt.process_count(); ++i)
    rt.add_process(
        std::make_unique<core::PifProcess>(rt.process_count() - 1, 1));
  Client client(rt);
  const Session s = client.submit(0, PifBroadcast{Value::integer(6)});
  AwaitOptions opts;
  opts.timeout = std::chrono::milliseconds(50);
  EXPECT_EQ(client.await_all({s}, opts), AwaitResult::BudgetExhausted);
  EXPECT_EQ(client.await_all({s}, opts), AwaitResult::BudgetExhausted);
  rt.shutdown();
  EXPECT_EQ(client.await_all({s}, opts), AwaitResult::RuntimeDown);
  EXPECT_FALSE(client.done(s));
}

TEST(SvcAwait, HostRuntimeDistinguishesTimeoutFromShutdown) {
  const int n = 3;
  runtime::ThreadRuntime rt(n, {.loss_rate = 1.0, .seed = 95});
  expect_timeouts_then_shutdown(rt);
  net::SocketRuntime srt(n, {.seed = 95, .loss_rate = 1.0});
  expect_timeouts_then_shutdown(srt);
}

}  // namespace
}  // namespace snapstab::svc
