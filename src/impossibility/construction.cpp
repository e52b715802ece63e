#include "impossibility/construction.hpp"

#include <cstdio>
#include <memory>

#include "common/check.hpp"
#include "core/specs.hpp"
#include "core/stack.hpp"
#include "sim/simulator.hpp"
#include "svc/client.hpp"

namespace snapstab::impossibility {

namespace {

using sim::Simulator;

constexpr std::int64_t kIdP = 10;  // process 0 — the leader (smallest id)
constexpr std::int64_t kIdQ = 20;  // process 1
constexpr int kCsLength = 1 << 20;  // long CS: the winner parks inside it
constexpr std::uint64_t kRecordBudget = 2'000'000;

std::string fmt(const char* pattern, auto... args) {
  char buf[256];
  std::snprintf(buf, sizeof buf, pattern, args...);
  return buf;
}

core::StackOptions stack_options() {
  core::StackOptions opts;
  opts.channel_capacity = 1;
  opts.me.cs_length = kCsLength;
  return opts;
}

std::unique_ptr<Simulator> fresh_world(std::size_t capacity,
                                       std::uint64_t seed) {
  auto sim = std::make_unique<Simulator>(2, capacity, seed);
  sim->add_process(
      std::make_unique<core::MeStackProcess>(kIdP, 1, stack_options()));
  sim->add_process(
      std::make_unique<core::MeStackProcess>(kIdQ, 1, stack_options()));
  return sim;
}

bool in_cs(Simulator& sim, sim::ProcessId p) {
  return sim.process_as<core::MeStackProcess>(p).me().in_cs();
}

// Step 1/2 of the construction: a fresh system in which `initiator`
// requests the CS; runs deterministically until the initiator enters the
// CS and returns the simulator with its recording intact.
std::unique_ptr<Simulator> record_initiator_run(sim::ProcessId initiator,
                                                std::uint64_t seed,
                                                ConstructionReport& report) {
  auto sim = fresh_world(/*capacity=*/1, seed);
  sim->enable_recording();
  sim->set_scheduler(std::make_unique<sim::RoundRobinScheduler>(seed));
  svc::Client(*sim).submit(initiator, svc::CriticalSection{});
  const auto reason = sim->run(kRecordBudget, [&](Simulator& s) {
    return in_cs(s, initiator);
  });
  SNAPSTAB_CHECK_MSG(reason == Simulator::StopReason::Predicate,
                     "recording run did not reach the critical section");
  report.narrative.push_back(
      fmt("recorded e_%c: initiator p%d entered the CS after %llu steps, "
          "having received %zu messages",
          initiator == 0 ? 'p' : 'q', initiator,
          static_cast<unsigned long long>(sim->step_count()),
          sim->delivered(1 - initiator, initiator).size()));
  return sim;
}

// Replays one recorded activation sequence against the stuffed world.
void replay_process(Simulator& world, sim::ProcessId p,
                    const std::vector<sim::Activation>& activations,
                    ConstructionReport& report) {
  const sim::ProcessId other = 1 - p;
  for (const auto& act : activations) {
    if (act.kind == sim::StepKind::Tick) {
      world.execute(sim::Step::tick(p));
      continue;
    }
    // Deliver: the head of the preloaded channel must be exactly the
    // recorded message — that is the heart of the proof (the process cannot
    // distinguish the stuffed configuration from the recorded execution).
    auto& ch = world.network().channel(other, p);
    if (ch.empty() || !(ch.peek() == act.message)) ++report.replay_mismatches;
    world.execute(sim::Step::deliver(other, p));
  }
}

}  // namespace

ConstructionReport run_unbounded_construction(std::uint64_t seed) {
  ConstructionReport report;

  // Steps 1 and 2 — record e_p and e_q.
  auto run_p = record_initiator_run(0, seed, report);
  auto run_q = record_initiator_run(1, seed + 1, report);

  // Step 3 — the stuffed initial configuration γ0 on unbounded channels.
  // Both requests are part of γ0 itself (Request = Wait at p and q), so
  // they are installed in the layer state, not submitted.
  auto world = fresh_world(sim::Channel::kUnbounded, seed + 2);
  world->process_as<core::MeStackProcess>(0).me().request_cs();
  world->process_as<core::MeStackProcess>(1).me().request_cs();
  for (const auto& m : run_p->delivered(1, 0)) {
    if (world->network().channel(1, 0).push(m))
      ++report.preloaded_to_p;
    else
      ++report.preload_refused;
  }
  for (const auto& m : run_q->delivered(0, 1)) {
    if (world->network().channel(0, 1).push(m))
      ++report.preloaded_to_q;
    else
      ++report.preload_refused;
  }
  report.narrative.push_back(
      fmt("stuffed γ0: %zu messages in channel q->p, %zu in channel p->q, "
          "%zu refused",
          report.preloaded_to_p, report.preloaded_to_q,
          report.preload_refused));

  // Step 4 — replay both bad factors.
  replay_process(*world, 0, run_p->activations(0), report);
  const bool p_in_cs = in_cs(*world, 0);
  replay_process(*world, 1, run_q->activations(1), report);
  const bool q_in_cs = in_cs(*world, 1);

  report.both_requested_cs = true;  // both requests were installed in γ0
  report.both_in_cs_concurrently = p_in_cs && q_in_cs;
  report.narrative.push_back(
      fmt("after replay: p0 in CS = %s, p1 in CS = %s, replay mismatches = "
          "%zu",
          p_in_cs ? "yes" : "no", q_in_cs ? "yes" : "no",
          report.replay_mismatches));
  if (report.both_in_cs_concurrently)
    report.narrative.push_back(
        "=> two REQUESTING processes execute the critical section "
        "concurrently: the bad factor of the mutual-exclusion specification "
        "(Theorem 1)");
  return report;
}

ConstructionReport run_bounded_counterfactual(std::size_t capacity,
                                              std::uint64_t seed) {
  SNAPSTAB_CHECK(capacity >= 1);
  ConstructionReport report;

  auto run_p = record_initiator_run(0, seed, report);
  auto run_q = record_initiator_run(1, seed + 1, report);

  // The same stuffing attempt against channels with a known bound: almost
  // all of it is refused — the configuration required by Theorem 1 is not
  // installable. The critical section is short here so the counterfactual
  // run completes.
  auto bounded = std::make_unique<Simulator>(2, capacity, seed + 2);
  core::StackOptions opts;
  opts.channel_capacity = static_cast<int>(capacity);
  opts.me.cs_length = 3;
  bounded->add_process(std::make_unique<core::MeStackProcess>(kIdP, 1, opts));
  bounded->add_process(std::make_unique<core::MeStackProcess>(kIdQ, 1, opts));
  // Submitted, not poked: check_me_spec's liveness check reads the
  // RequestWait observations the sessions record.
  svc::Client client(*bounded);
  client.submit(0, svc::CriticalSection{});
  client.submit(1, svc::CriticalSection{});
  for (const auto& m : run_p->delivered(1, 0)) {
    if (bounded->network().channel(1, 0).push(m))
      ++report.preloaded_to_p;
    else
      ++report.preload_refused;
  }
  for (const auto& m : run_q->delivered(0, 1)) {
    if (bounded->network().channel(0, 1).push(m))
      ++report.preloaded_to_q;
    else
      ++report.preload_refused;
  }
  report.narrative.push_back(
      fmt("bounded stuffing (capacity %zu): %zu + %zu accepted, %zu refused",
          capacity, report.preloaded_to_p, report.preloaded_to_q,
          report.preload_refused));

  // Run a fair execution from the installable remainder of γ0 and check
  // Specification 3: the guarantee holds.
  bounded->set_scheduler(
      std::make_unique<sim::RandomScheduler>(seed + 3));
  bounded->run(400'000, [&](Simulator& s) {
    // Stop once both requests were served (both back to Done).
    return s.process_as<core::MeStackProcess>(0).me().request_state() ==
               core::RequestState::Done &&
           s.process_as<core::MeStackProcess>(1).me().request_state() ==
               core::RequestState::Done;
  });
  const auto spec = core::check_me_spec(*bounded, {.require_liveness = true});
  report.spec_violations = spec.violations;
  report.both_in_cs_concurrently = false;
  for (const auto& v : spec.violations)
    if (v.find("mutual exclusion violated") != std::string::npos)
      report.both_in_cs_concurrently = true;
  report.narrative.push_back(
      fmt("counterfactual fair run: %zu specification violation(s)",
          report.spec_violations.size()));
  return report;
}

}  // namespace snapstab::impossibility
