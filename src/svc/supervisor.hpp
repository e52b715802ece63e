// supervisor.hpp — per-session deadlines, retries and terminal outcomes.
//
// A Supervisor wraps svc::Client with the driver-side recovery discipline
// the fault engine requires: every supervised request gets a per-attempt
// deadline (engine steps on the Simulator backend, wall milliseconds on a
// HostRuntime, over either transport), a retry budget with seeded
// exponential backoff, and a guaranteed *terminal* SessionOutcome — Ok,
// Refused, Expired or GaveUp — instead of a silent hang. That is the
// snap-stabilization contract seen from the client's chair: a request
// caught by a transient fault may fail, but it fails *visibly*, and a fresh
// attempt issued after the fault ceases succeeds.
//
// Determinism: the supervisor draws backoff jitter only from its own seeded
// stream, and on the Simulator backend measures time purely in steps — the
// same (world seed, plan, supervisor seed) replays bit-identically.
#ifndef SNAPSTAB_SVC_SUPERVISOR_HPP
#define SNAPSTAB_SVC_SUPERVISOR_HPP

#include <chrono>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "svc/client.hpp"

namespace snapstab::svc {

// Terminal answer for one supervised request.
enum class SessionOutcome : std::uint8_t {
  Ok,       // an attempt completed with result.completed == true
  Refused,  // every failed attempt was an admission refusal (backpressure)
  Expired,  // the final attempt hit its deadline (still In/Wait, abandoned)
  GaveUp,   // retry budget exhausted on non-refusal failures (e.g. killed
            // by a crash-restart window)
};

inline constexpr int kSessionOutcomeCount = 4;

constexpr const char* session_outcome_name(SessionOutcome o) noexcept {
  static_assert(kSessionOutcomeCount ==
                    static_cast<int>(SessionOutcome::GaveUp) + 1,
                "new SessionOutcome: update kSessionOutcomeCount and every "
                "switch");
  switch (o) {
    case SessionOutcome::Ok: return "ok";
    case SessionOutcome::Refused: return "refused";
    case SessionOutcome::Expired: return "expired";
    case SessionOutcome::GaveUp: return "gave-up";
  }
  return "?";
}

// Circuit-breaker state for one service, the classic three-state machine:
// Closed admits everything; `failure_threshold` consecutive non-refusal
// failures trip it Open; Open short-circuits submissions (held, no attempt
// consumed) until `open_cooldown` elapses; HalfOpen admits up to
// `probe_quota` seeded probes, `close_threshold` probe successes close it,
// one probe failure reopens it.
enum class BreakerState : std::uint8_t { Closed, Open, HalfOpen };

inline constexpr int kBreakerStateCount = 3;

constexpr const char* breaker_state_name(BreakerState s) noexcept {
  static_assert(kBreakerStateCount ==
                    static_cast<int>(BreakerState::HalfOpen) + 1,
                "new BreakerState: update kBreakerStateCount and every "
                "switch");
  switch (s) {
    case BreakerState::Closed: return "closed";
    case BreakerState::Open: return "open";
    case BreakerState::HalfOpen: return "half-open";
  }
  return "?";
}

struct BreakerOptions {
  bool enabled = false;
  int failure_threshold = 3;  // consecutive non-refusal failures to trip
  std::uint64_t open_cooldown = 2'000;  // clock units Open holds submissions
  int probe_quota = 1;      // concurrent HalfOpen probes admitted
  int close_threshold = 1;  // probe successes that close the breaker
  double probe_admit = 1.0;  // per-pump admission chance for a probe slot
};

struct HedgeOptions {
  bool enabled = false;
  // Launch a backup attempt once the primary has flown this long without a
  // result (clock units); first terminal result wins, the loser is
  // abandoned. Pick ~p99 of the healthy latency so hedges stay rare.
  std::uint64_t hedge_after = 10'000;
  int max_hedges = 1;  // backups per attempt
  // Submit the backup from a rotated origin (salted per ticket so
  // concurrent hedges spread across backups) so a crashed/partitioned
  // origin-side host doesn't doom both attempts.
  bool spray_origins = true;
};

struct SuperviseOptions {
  // Per-attempt deadline and backoff pacing, in the backend's clock units:
  // engine steps (Simulator) or milliseconds (HostRuntime).
  std::uint64_t attempt_deadline = 50'000;
  int retry_budget = 3;  // resubmissions allowed after the initial attempt
  std::uint64_t backoff_base = 64;
  std::uint64_t backoff_max = 1u << 16;
  std::uint64_t seed = 0x5EED;  // jitter stream
  BreakerOptions breaker;
  HedgeOptions hedge;
};

class Supervisor {
 public:
  struct Ticket {
    std::uint32_t id = 0;
  };

  explicit Supervisor(Client& client, SuperviseOptions options = {});

  // Submits the request immediately and starts supervising it.
  template <typename D>
  Ticket supervise(sim::ProcessId origin, const D& d) {
    return supervise_desc(origin, Descriptor::of(d));
  }
  Ticket supervise_desc(sim::ProcessId origin, const Descriptor& d);

  // One supervision pass: polls every live ticket, fails over expired and
  // killed attempts (resubmit after seeded exponential backoff, within the
  // retry budget), settles terminal outcomes. Returns true when every
  // ticket is terminal. Cheap when nothing is live.
  bool pump();

  bool terminal(Ticket t) const;
  // Valid once terminal(t); the last attempt's result alongside.
  SessionOutcome outcome(Ticket t) const;
  const SessionResult& result(Ticket t) const;
  int attempts(Ticket t) const;

  // Drives the backend until every ticket is terminal, pump()ing from the
  // stop predicate. Simulator: quiescent spells (backoff timers pending
  // while no step is enabled) fast-forward deterministically, and flying
  // attempts that can never finish are expired — so this always terminates
  // with every ticket settled. HostRuntime: one wall-clock run bounded by
  // `opts.timeout`; tickets still live at the end (or on a runtime already
  // shut down) are settled. Returns false when the step/wall budget forced
  // the settlement rather than the protocol finishing.
  bool run_all(AwaitOptions opts = {});

  // Called at the start of every pump(): the fault tests chain the
  // Injector's poll here without coupling svc to the fault engine.
  void set_on_pump(std::function<void()> hook) { on_pump_ = std::move(hook); }

  struct Stats {
    std::uint64_t resubmits = 0;
    std::uint64_t deadline_hits = 0;
    std::uint64_t ok = 0;
    std::uint64_t refused = 0;
    std::uint64_t expired = 0;
    std::uint64_t gave_up = 0;
    std::uint64_t breaker_trips = 0;  // Closed→Open and HalfOpen→Open
    std::uint64_t breaker_short_circuits = 0;  // submissions held, no attempt
    std::uint64_t probes = 0;           // HalfOpen probe attempts admitted
    std::uint64_t hedges_launched = 0;  // backup attempts submitted
    std::uint64_t hedge_wins = 0;       // backups that beat their primary
  };
  const Stats& stats() const noexcept { return stats_; }
  int live() const noexcept { return live_; }
  BreakerState breaker_state(ServiceId s) const noexcept {
    return breakers_[static_cast<std::size_t>(s)].state;
  }

 private:
  enum class St : std::uint8_t { Flying, Backoff, Terminal };
  struct Rec {
    Descriptor desc;
    sim::ProcessId origin = -1;
    Session session;
    Session hedge_session;
    St st = St::Flying;
    std::uint64_t deadline = 0;   // Flying: expire the attempt at this time
    std::uint64_t resume_at = 0;  // Backoff: resubmit at this time
    std::uint64_t flying_since = 0;  // launch time of the current attempt
    int attempts = 0;
    int hedges = 0;          // backups launched for the current attempt
    bool hedge_live = false;  // hedge_session holds a flying backup
    bool is_probe = false;    // current attempt is a HalfOpen probe
    bool non_refusal_failure = false;  // saw a killed / failed attempt
    bool last_was_deadline = false;
    SessionOutcome outcome = SessionOutcome::Ok;
    SessionResult result;
  };
  struct Breaker {
    BreakerState state = BreakerState::Closed;
    int consecutive_failures = 0;
    int probe_successes = 0;
    int probes_in_flight = 0;
    std::uint64_t opened_at = 0;
  };

  std::uint64_t now() const;
  std::uint64_t backoff_delay(int attempts_so_far);
  // Launches the next attempt: submit + deadline + hedge reset.
  void launch(Rec& rec);
  // Circuit-breaker admission gate for the next attempt. True admits (and
  // may mark the attempt a HalfOpen probe); false parks the rec in Backoff
  // without consuming an attempt. Always true when the breaker is off or
  // force_settle() is draining.
  bool admit(Rec& rec, std::uint64_t t);
  void breaker_note_success(Rec& rec);
  void breaker_note_failure(Rec& rec, std::uint64_t t);
  Breaker& breaker_for(const Rec& rec) noexcept {
    return breakers_[static_cast<std::size_t>(rec.desc.service)];
  }
  sim::ProcessId hedge_origin(const Rec& rec, std::size_t index) const;
  void fail_over(Rec& rec, std::uint64_t now_t);
  void settle(Rec& rec, SessionOutcome o);
  // Forces every live ticket to a terminal outcome (no more progress is
  // possible: budget exhausted, runtime down). Bypasses the breaker gate
  // (settling_) so it stays bounded by the retry budget.
  void force_settle();

  Client* client_;
  SuperviseOptions opts_;
  Rng rng_;
  std::vector<Rec> recs_;
  Breaker breakers_[kServiceIdCount];
  int live_ = 0;
  bool settling_ = false;
  std::function<void()> on_pump_;
  std::chrono::steady_clock::time_point start_;
  Stats stats_;
};

}  // namespace snapstab::svc

#endif  // SNAPSTAB_SVC_SUPERVISOR_HPP
