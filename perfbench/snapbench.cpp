// snapbench — the layered closed-loop benchmark of snapstab.
//
//   snapbench --workload W --seed N --seconds S --trace 0|1 [--trace-out F]
//
// Workloads (perfbench/README.md says why each exists):
//   sim_mix      load::run_sharded, 3 shards on 3 threads, each a ring(16)
//                world at capacity 1 with 64 sessions in flight, a mixed
//                service mix, no faults;
//   sim_storm    the same world and mix under a compiled fault plan whose
//                windows cover most of each repetition, failed attempts
//                retried;
//   thread_loop  ThreadRuntime on complete(3), 10% mailbox loss, one session
//                in flight per origin (PIF, every 4th an Election);
//   socket_loop  the same script on SocketRuntime over loopback UDP with 10%
//                injected datagram loss.
//
// Untraced (--trace 0) the last stdout line carries the end-to-end metrics.
// Traced (--trace 1) the run measures half its time untraced and half
// traced, prints the per-layer metrics and the tracing overhead, and writes
// the spans as Chrome trace-event JSON to --trace-out. Every input the
// program sees is generated from --seed. Exit status 1 means a correctness
// check failed; 2 means bad arguments.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "common/rng.hpp"
#include "fault/plan.hpp"
#include "load/workload.hpp"
#include "msg/codec.hpp"
#include "net/socket_runtime.hpp"
#include "net/wire.hpp"
#include "runtime/thread_runtime.hpp"
#include "sim/scheduler.hpp"
#include "svc/client.hpp"
#include "svc/host.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using namespace snapstab;
using svc::ServiceId;

// --- measurement helpers ---------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

// Linear interpolation between closest ranks (q in [0, 1]).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// Percentile of a log-bucketed histogram, interpolated inside its bucket.
// LatencyHistogram::percentile() reports a bucket's upper bound, which
// repeats exactly from run to run; interpolating by rank keeps a wall-time
// percentile continuous. The bucket's first and last ranks are found by
// bisection over percentile(), which is monotone in the rank.
double hist_percentile(const load::LatencyHistogram& h, double pct) {
  const std::uint64_t n = h.count();
  if (n == 0) return 0.0;
  const auto at_rank = [&](std::uint64_t r) {
    return h.percentile(100.0 * (static_cast<double>(r) - 0.5) /
                        static_cast<double>(n));
  };
  auto rank = static_cast<std::uint64_t>(std::ceil(pct / 100.0 * n));
  rank = std::clamp<std::uint64_t>(rank, 1, n);
  const std::uint64_t v = at_rank(rank);
  std::uint64_t lo = 1, hi = rank;  // first rank whose value is v
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (at_rank(mid) < v) lo = mid + 1; else hi = mid;
  }
  const std::uint64_t first = lo;
  lo = rank;
  hi = n;  // last rank whose value is v
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo + 1) / 2;
    if (at_rank(mid) > v) hi = mid - 1; else lo = mid;
  }
  const std::uint64_t last = lo;
  using H = load::LatencyHistogram;
  const int b = H::index_of(v);
  const double low =
      b == 0 ? 0.0 : static_cast<double>(H::bucket_high(b - 1) + 1);
  const double top = std::max(low, static_cast<double>(std::min(v, h.max())));
  const double frac = (static_cast<double>(rank - first) + 0.5) /
                      static_cast<double>(last - first + 1);
  return low + frac * (top - low);
}

struct Usage {
  double user_ms = 0;
  double sys_ms = 0;
  double vol_ctxsw = 0;
  double invol_ctxsw = 0;

  static Usage now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto ms = [](const timeval& tv) {
      return static_cast<double>(tv.tv_sec) * 1e3 +
             static_cast<double>(tv.tv_usec) / 1e3;
    };
    return {ms(ru.ru_utime), ms(ru.ru_stime),
            static_cast<double>(ru.ru_nvcsw),
            static_cast<double>(ru.ru_nivcsw)};
  }
  Usage operator+(const Usage& o) const {
    return {user_ms + o.user_ms, sys_ms + o.sys_ms, vol_ctxsw + o.vol_ctxsw,
            invol_ctxsw + o.invol_ctxsw};
  }
  Usage operator-(const Usage& o) const {
    return {user_ms - o.user_ms, sys_ms - o.sys_ms, vol_ctxsw - o.vol_ctxsw,
            invol_ctxsw - o.invol_ctxsw};
  }
  double cpu_ms() const { return user_ms + sys_ms; }
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double per(double x, double n) { return n > 0 ? x / n : 0.0; }

// --- the result -------------------------------------------------------------

// Every metric the benchmark can print, in print order. The end-to-end set
// is printed by untraced runs, the per-layer set by traced runs; a metric a
// workload has no layer for reads 0.
struct MetricDef {
  const char* name;
  const char* unit;
};
constexpr MetricDef kEndToEnd[] = {
    {"sessions_per_s", "1/s"},    {"session_p50_ms", "ms"},
    {"session_p75_ms", "ms"},     {"cpu_ms_per_session", "ms"},
    {"ok_ratio", "ratio"},        {"recovery_steps_p50", "steps"},
    {"setup_s", "s"},             {"peak_rss_mb", "MB"},
};
constexpr MetricDef kPerLayer[] = {
    {"sim.ns_per_step", "ns"},
    {"sim.steps_per_session", "steps"},
    {"core.session_steps_p50", "steps"},
    {"core.session_steps_p99", "steps"},
    {"svc.submit_us", "us"},
    {"svc.poll_us", "us"},
    {"svc.release_us", "us"},
    {"svc.polls_per_session", "count"},
    {"svc.world_build_ms", "ms"},
    {"load.retry_ratio", "ratio"},
    {"load.failed", "count"},
    {"load.coalesced_ratio", "ratio"},
    {"load.harness_overhead_ms", "ms"},
    {"fault.compile_ms", "ms"},
    {"fault.windows", "count"},
    {"fault.completed_during", "count"},
    {"fault.completed_after", "count"},
    {"fault.first_ok_steps", "steps"},
    {"runtime.mailbox_pushed_per_session", "count"},
    {"runtime.lost_on_full_ratio", "ratio"},
    {"runtime.decode_failures", "count"},
    {"net.datagrams_per_session", "count"},
    {"net.delivered_ratio", "ratio"},
    {"net.loss_drops", "count"},
    {"net.rejected_frames", "count"},
    {"msg.encode_ns", "ns"},
    {"msg.decode_ns", "ns"},
    {"net.frame_encode_ns", "ns"},
    {"net.frame_decode_ns", "ns"},
    {"proc.user_ms_per_session", "ms"},
    {"proc.sys_ms_per_session", "ms"},
    {"proc.vol_ctxsw_per_session", "count"},
    {"proc.invol_ctxsw_per_session", "count"},
    {"trace.overhead_pct", "%"},
    {"trace.spans", "count"},
};

struct Outcome {
  std::map<std::string, std::uint64_t> failures;  // check -> times failed
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> values;

  void check(bool ok, const std::string& what) {
    if (!ok) ++failures[what];
  }
  void set(const std::string& name, double v) { values[name] = v; }

  // The result line: metrics of `defs`, in order, each with its unit.
  template <std::size_t N>
  void print(const MetricDef (&defs)[N]) const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                failures.empty() ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < N; ++i) {
      const auto it = values.find(defs[i].name);
      std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", defs[i].name,
                  it == values.end() ? 0.0 : it->second, defs[i].unit);
    }
    std::printf("}}\n");
  }
};

// --- codec calibration (traced runs only) -----------------------------------

// Messages the workload's own mix puts on the wire: a simulator world of the
// same shape serves a few sessions of every service in the mix with delivery
// recording on, and every delivered message is kept.
std::vector<Message> recorded_messages(sim::Simulator& sim,
                                       const std::vector<svc::Session>& work,
                                       svc::Client& client) {
  std::vector<Message> out;
  if (!client.run_until(work, {.max_steps = 5'000'000}))
    return out;  // the caller fails the check on an empty sample
  const sim::Topology& topo = sim.topology();
  for (sim::EdgeId e = 0; e < topo.edge_count(); ++e) {
    const auto& d = sim.delivered(topo.edge_src(e), topo.edge_dst(e));
    out.insert(out.end(), d.begin(), d.end());
  }
  return out;
}

// Times msg::encode/decode and the wire frame over `sample`, in ns per
// message, each loop under its own span.
void calibrate_codecs(const std::vector<Message>& sample, Tracer& tr,
                      Outcome& out) {
  out.check(!sample.empty(), "codec calibration: no messages recorded");
  if (sample.empty()) return;
  constexpr std::size_t kOps = 400'000;
  constexpr sim::EdgeId kEdge = 0;  // the frame header's edge field only
  const std::size_t rounds = std::max<std::size_t>(1, kOps / sample.size());
  const double ops = static_cast<double>(rounds * sample.size());
  std::vector<std::vector<std::uint8_t>> bytes, frames;
  for (const Message& m : sample) {
    bytes.push_back(encode(m));
    frames.push_back(net::encode_frame(kEdge, m));
  }
  // Sums of the results, so no loop can be optimized away.
  std::uint64_t encoded = 0, decoded = 0, framed = 0, unframed = 0;
  const auto timed = [&](const char* layer, const char* name, auto&& body) {
    const std::uint64_t t0 = now_ns();
    tr.span(layer, name, {}, [&] {
      for (std::size_t r = 0; r < rounds; ++r) body();
    });
    out.set(std::string(layer) + "." + name + "_ns",
            static_cast<double>(now_ns() - t0) / ops);
  };
  timed("msg", "encode", [&] {
    for (const Message& m : sample) encoded += encode(m).size();
  });
  timed("msg", "decode", [&] {
    for (const auto& b : bytes) decoded += decode(b).has_value() ? 1 : 0;
  });
  timed("net", "frame_encode", [&] {
    for (const Message& m : sample)
      framed += net::encode_frame(kEdge, m).size();
  });
  timed("net", "frame_decode", [&] {
    for (const auto& f : frames) unframed += net::decode_frame(f).ok() ? 1 : 0;
  });
  out.check(encoded > 0 && framed > encoded,
            "codec calibration: empty encodings");
  out.check(decoded == rounds * bytes.size(),
            "codec calibration: a recorded message failed to decode");
  out.check(unframed == rounds * frames.size(),
            "codec calibration: a recorded message failed its frame decode");
}

// --- sim_mix and sim_storm ---------------------------------------------------

constexpr int kSimN = 16;
// Three independent shard worlds on three threads. A single-threaded run's
// speed follows the one core it lands on, which on a shared host drifts by
// tens of percent from run to run; three cores average that out and leave
// one core for the rest of the system.
constexpr int kSimShards = 3;
constexpr std::uint64_t kSimMeasure = 40'000;  // completions per shard

load::WorkloadSpec sim_spec(std::uint64_t seed, bool storm) {
  load::WorkloadSpec spec;
  spec.topology = "ring";
  spec.n = kSimN;
  spec.channel_capacity = 1;
  spec.seed = seed;
  spec.set_weight(ServiceId::PifBroadcast, 4);
  spec.set_weight(ServiceId::Idl, 1);
  spec.set_weight(ServiceId::Snapshot, 1);
  spec.set_weight(ServiceId::Election, 1);
  spec.arrival = load::WorkloadSpec::Arrival::Closed;
  spec.concurrency = 64 * kSimShards;
  spec.warmup = 256 * kSimShards;
  spec.measure = kSimMeasure * kSimShards;
  spec.record_wall = true;
  if (storm) {
    // Independent windows of every kind plus a crash storm, over the first
    // ~70% of a repetition's steps: the paper's transient faults, which then
    // cease so recovery can be measured. A crash window kills every attempt
    // on its host within a pump period, so the retry cap must outlast the
    // longest window: no request is abandoned, and the storm's cost shows
    // as retries and latency.
    spec.fault_max_retries = 1000;
    fault::FaultPlanSpec& fs = spec.faults;
    std::uint64_t s = seed ^ 0x5707;
    fs.seed = splitmix64(s);
    fs.horizon = 1'000'000;
    fs.crash_windows = 20;
    fs.garbage_windows = 30;
    fs.loss_windows = 25;
    fs.duplicate_windows = 20;
    fs.partition_windows = 10;
    fs.min_len = 500;
    fs.max_len = 5'000;
    fault::PatternSpec storm_pattern;
    storm_pattern.kind = fault::PatternKind::CrashStorm;
    storm_pattern.begin = 200'000;
    storm_pattern.span = fs.horizon * 2 / 3;
    storm_pattern.count = 10;
    storm_pattern.len = 2'000;
    fs.patterns.push_back(storm_pattern);
  }
  return spec;
}

// The host configuration load::run_workload_shard gives this mix, so the
// set-up time and the calibration sample come from the same world.
std::unique_ptr<sim::Simulator> sim_world(const load::WorkloadSpec& spec) {
  auto sim = svc::service_world(
      sim::Topology::ring(spec.n), spec.channel_capacity, spec.seed,
      [](sim::ProcessId p) {
        svc::HostConfig cfg;
        cfg.id = p + 1;
        cfg.with_idl = true;
        cfg.with_snapshot = true;
        cfg.with_election = true;
        cfg.local_state = [p] { return Value::integer(p); };
        return cfg;
      });
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(spec.seed + 1));
  return sim;
}

// Set-up samples. One construction takes tens of microseconds and does not
// repeat within a tenth from one run to the next, so a run takes batches of
// constructions spread over its measured time and reports their median.
struct Setups {
  std::vector<double> total_s, world_ms, compile_ms;
};

constexpr int kSimSetupBatch = 40;  // after every repetition

void sim_setup(const load::WorkloadSpec& spec, Tracer& tr, Setups& st,
               Outcome& out) {
  for (int i = 0; i < kSimSetupBatch; ++i) {
    const std::uint64_t t0 = now_ns();
    auto sim =
        tr.span("svc", "world_build", {}, [&] { return sim_world(spec); });
    const std::uint64_t t1 = now_ns();
    if (spec.faults.enabled()) {
      const fault::FaultPlan plan = tr.span("fault", "compile", {}, [&] {
        return fault::FaultPlan::compile(spec.faults, sim->topology());
      });
      out.check(!plan.empty(), "sim_storm: the fault plan compiled empty");
    }
    const std::uint64_t t2 = now_ns();
    st.total_s.push_back(static_cast<double>(t2 - t0) / 1e9);
    st.world_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    st.compile_ms.push_back(static_cast<double>(t2 - t1) / 1e6);
  }
}

struct SimPhase {
  int reps = 0;
  std::vector<double> rate, cpu_per_session, ns_per_step, harness_ms;
  load::LatencyHistogram wall_hist;
  load::LoadReport last;
  Usage usage;  // summed over the repetitions
  Setups setups;
  std::uint64_t completed = 0;
};

void check_sim_report(const load::LoadReport& r,
                      const load::WorkloadSpec& spec,
                      const std::string& digest, Outcome& out) {
  out.check(r.deterministic_json(spec) == digest,
            "sim: deterministic digest differs between runs of one seed");
  out.check(!r.total.stalled, "sim: a shard stalled");
  out.check(!r.total.hit_step_budget, "sim: a shard hit its step budget");
  out.check(r.total.counters.completed >= spec.warmup + spec.measure,
            "sim: a shard ended short of its completion target");
  if (spec.faults.enabled())
    for (const load::ShardResult& s : r.shards)
      out.check(s.recovered, "sim_storm: a shard did not recover");
}

SimPhase sim_phase(const load::WorkloadSpec& spec, const std::string& digest,
                   double seconds, Tracer& tr, Outcome& out) {
  SimPhase ph;
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  while (ph.reps == 0 || now_ns() < deadline) {
    const Usage before = Usage::now();
    const std::uint64_t start = now_ns();
    load::LoadReport r = tr.span("load", "run_sharded", {-1, -1, ph.reps}, [&] {
      return load::run_sharded(spec, kSimShards, kSimShards);
    });
    const std::uint64_t end = now_ns();
    const Usage used = Usage::now() - before;
    ph.usage = ph.usage + used;
    check_sim_report(r, spec, digest, out);
    // Each shard's rate over its own wall time, summed; the slowest shard's
    // wall time is the fan's critical path.
    double rate = 0;
    std::uint64_t slowest_ns = 0;
    for (const load::ShardResult& sh : r.shards) {
      rate += per(static_cast<double>(sh.counters.completed),
                  static_cast<double>(sh.wall_ns) / 1e9);
      slowest_ns = std::max(slowest_ns, sh.wall_ns);
    }
    // The shards' wall time, placed inside the harness span: the simulator
    // engine, services and protocols run inside it.
    slowest_ns = std::min(slowest_ns, end - start);
    const std::uint64_t lead = (end - start - slowest_ns) / 2;
    tr.add("sim", "shards", {-1, -1, ph.reps}, start + lead,
           start + lead + slowest_ns);
    const auto done = static_cast<double>(r.total.counters.completed);
    ph.rate.push_back(rate);
    ph.cpu_per_session.push_back(per(used.cpu_ms(), done));
    ph.ns_per_step.push_back(per(static_cast<double>(r.total.wall_ns),
                                 static_cast<double>(r.total.steps)));
    ph.harness_ms.push_back(
        static_cast<double>(r.harness_wall_ns - slowest_ns) / 1e6);
    ph.wall_hist.merge(r.total.wall_hist);
    ph.completed += r.total.counters.completed;
    const load::WorkloadCounters& c = r.total.counters;
    out.attempted += c.completed + c.failed + c.refused + c.shed;
    out.failed += c.failed + c.refused + c.shed;
    ph.last = std::move(r);
    ++ph.reps;
    sim_setup(spec, tr, ph.setups, out);
  }
  return ph;
}

void run_sim(bool storm, std::uint64_t seed, double seconds, bool traced,
             Tracer& tr, Outcome& out) {
  const load::WorkloadSpec spec = sim_spec(seed, storm);
  Tracer off(false);
  // The first repetition warms caches and the allocator; its deterministic
  // digest is what every later repetition of this seed must reproduce.
  const load::LoadReport warm =
      load::run_sharded(spec, kSimShards, kSimShards);
  const std::string digest = warm.deterministic_json(spec);
  check_sim_report(warm, spec, digest, out);

  const SimPhase a = sim_phase(spec, digest, traced ? seconds / 2 : seconds,
                               off, out);
  const load::ShardResult& t = a.last.total;
  const auto ok = static_cast<double>(t.counters.completed);
  if (!traced) {
    out.set("sessions_per_s", median(a.rate));
    out.set("session_p50_ms", hist_percentile(a.wall_hist, 50) / 1e6);
    out.set("session_p75_ms", hist_percentile(a.wall_hist, 75) / 1e6);
    out.set("cpu_ms_per_session", median(a.cpu_per_session));
    out.set("ok_ratio",
            per(ok, ok + static_cast<double>(t.counters.failed +
                                              t.counters.refused +
                                              t.counters.shed)));
    // Without faults every session is submitted after the last fault
    // window (there is none), so the metric is the plain step latency.
    out.set("recovery_steps_p50",
            static_cast<double>(storm ? t.recovery_hist.percentile(50)
                                      : t.steps_hist.percentile(50)));
    out.set("setup_s", median(a.setups.total_s));
    out.set("peak_rss_mb", peak_rss_mb());
    const auto ms = [&](double pct) {
      return hist_percentile(a.wall_hist, pct) / 1e6;
    };
    std::fprintf(stderr, "%s: %d repetitions, %llu sessions, %llu latency "
                 "samples; latency ms p50 %.3f p75 %.3f p90 %.3f p95 %.3f "
                 "p99 %.3f\n", storm ? "sim_storm" : "sim_mix", a.reps,
                 static_cast<unsigned long long>(a.completed),
                 static_cast<unsigned long long>(a.wall_hist.count()), ms(50),
                 ms(75), ms(90), ms(95), ms(99));
    return;
  }

  const SimPhase b = sim_phase(spec, digest, seconds / 2, tr, out);
  const load::ShardResult& bt = b.last.total;
  const auto sub = static_cast<double>(bt.counters.submitted);
  const auto bdone = static_cast<double>(b.completed);
  out.set("sim.ns_per_step", median(b.ns_per_step));
  out.set("sim.steps_per_session",
          per(static_cast<double>(bt.steps),
              static_cast<double>(bt.counters.completed)));
  out.set("core.session_steps_p50",
          static_cast<double>(bt.steps_hist.percentile(50)));
  out.set("core.session_steps_p99",
          static_cast<double>(bt.steps_hist.percentile(99)));
  out.set("svc.world_build_ms", median(b.setups.world_ms));
  out.set("load.retry_ratio",
          per(static_cast<double>(bt.counters.retries), sub));
  out.set("load.failed", static_cast<double>(bt.counters.failed));
  out.set("load.coalesced_ratio",
          per(static_cast<double>(bt.counters.coalesced), sub));
  out.set("load.harness_overhead_ms", median(b.harness_ms));
  if (storm) {
    out.set("fault.compile_ms", median(b.setups.compile_ms));
    out.set("fault.windows", static_cast<double>(bt.fault_windows));
    out.set("fault.completed_during",
            static_cast<double>(bt.completed_during_fault));
    out.set("fault.completed_after",
            static_cast<double>(bt.completed_after_fault));
    out.set("fault.first_ok_steps",
            static_cast<double>(bt.first_success_after_fault));
  }
  out.set("proc.user_ms_per_session", per(b.usage.user_ms, bdone));
  out.set("proc.sys_ms_per_session", per(b.usage.sys_ms, bdone));
  out.set("proc.vol_ctxsw_per_session", per(b.usage.vol_ctxsw, bdone));
  out.set("proc.invol_ctxsw_per_session", per(b.usage.invol_ctxsw, bdone));
  const double cpu_a = per(a.usage.cpu_ms(), static_cast<double>(a.completed));
  out.set("trace.overhead_pct",
          100.0 * per(per(b.usage.cpu_ms(), bdone) - cpu_a, cpu_a));

  auto sim = sim_world(spec);
  sim->enable_recording();
  svc::Client client(*sim);
  std::vector<svc::Session> work;
  Rng rng(seed ^ 0xCA11);
  for (int p = 0; p < kSimN; ++p) {
    work.push_back(client.submit(
        p, svc::PifBroadcast{Value::integer(
               static_cast<std::int64_t>(rng.below(1u << 30)))}));
    work.push_back(client.submit(p, svc::Idl{}));
    work.push_back(client.submit(p, svc::Snapshot{}));
    work.push_back(client.submit(p, svc::Election{}));
  }
  calibrate_codecs(recorded_messages(*sim, work, client), tr, out);
}

// --- thread_loop and socket_loop ---------------------------------------------

// The loops run on either wall-clock backend.
template <typename R>
constexpr bool kIsThread = std::is_same_v<R, runtime::ThreadRuntime>;

constexpr int kLoopN = 3;
constexpr double kLoopLoss = 0.10;
constexpr int kLoopSetupBatch = 100;  // before and after the closed loop
constexpr std::uint64_t kWarmupNs = 300'000'000;
constexpr std::uint64_t kDrainNs = 5'000'000'000;  // in-flight await deadline
// The window's rate and CPU cost are taken per sub-window of 64 completions
// (about 25 ms on thread_loop, 2 s on socket_loop) and reported as their
// median, like the simulator's repetitions. A hypervisor steal burst stalls
// the node threads' timed sleeps for milliseconds; short sub-windows confine
// it to a few of them instead of every one.
constexpr std::uint64_t kBucketSessions = 64;

// Distinct seeded identities; the election leader is their minimum.
std::vector<std::int64_t> loop_ids(std::uint64_t seed) {
  Rng rng(seed ^ 0x1D5);
  std::vector<std::int64_t> ids;
  while (static_cast<int>(ids.size()) < kLoopN) {
    const auto id = static_cast<std::int64_t>(rng.below(1'000'000)) + 1;
    if (std::find(ids.begin(), ids.end(), id) == ids.end()) ids.push_back(id);
  }
  return ids;
}

svc::HostConfig loop_host(const std::vector<std::int64_t>& ids, int p) {
  svc::HostConfig cfg;
  cfg.id = ids[static_cast<std::size_t>(p)];
  cfg.degree = kLoopN - 1;
  cfg.channel_capacity = 1;
  cfg.with_election = true;
  return cfg;
}

template <typename R>
std::unique_ptr<R> loop_runtime(std::uint64_t seed,
                                const std::vector<std::int64_t>& ids) {
  std::unique_ptr<R> rt;
  if constexpr (kIsThread<R>)
    rt = std::make_unique<R>(sim::Topology::complete(kLoopN),
                             runtime::ThreadRuntimeOptions{
                                 .mailbox_capacity = 1,
                                 .loss_rate = kLoopLoss,
                                 .seed = seed});
  else {
    net::SocketRuntimeOptions opts;
    opts.seed = seed;
    opts.loss_rate = kLoopLoss;
    rt = std::make_unique<R>(sim::Topology::complete(kLoopN), opts);
  }
  for (int p = 0; p < kLoopN; ++p)
    rt->add_process(std::make_unique<svc::ServiceHost>(loop_host(ids, p)));
  return rt;
}

// Construction and start of a ready-to-serve world. ThreadRuntime starts
// its node threads only inside its one-shot run(), so its start is a run()
// whose predicate already holds (threads spawned, stopped and joined).
template <typename R>
void loop_setup(std::uint64_t seed, const std::vector<std::int64_t>& ids,
                Tracer& tr, Setups& st) {
  for (int i = 0; i < kLoopSetupBatch; ++i) {
    const std::uint64_t t0 = now_ns();
    auto rt = tr.span("svc", "world_build", {},
                      [&] { return loop_runtime<R>(seed + i, ids); });
    const std::uint64_t t1 = now_ns();
    tr.span(kIsThread<R> ? "runtime" : "net", "start", {}, [&] {
      if constexpr (kIsThread<R>)
        rt->run([] { return true; }, std::chrono::milliseconds(1000));
      else
        rt->start();
    });
    const std::uint64_t t2 = now_ns();
    st.total_s.push_back(static_cast<double>(t2 - t0) / 1e9);
    st.world_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
  }
}

// Pairs each session's RequestWait with its Decide in the runtime's
// observation log (steps there are the runtime's event counter), and checks
// that every PIF wave decided with exactly one feedback per neighbour.
struct LogScan {
  std::vector<double> session_steps;
  std::uint64_t waves = 0;
  std::uint64_t incomplete_waves = 0;
};

LogScan scan_log(const std::vector<sim::Observation>& log) {
  struct PerProcess {
    bool wave_open = false;
    int feedbacks = 0;
    bool pending = false;
    sim::Layer pending_layer = sim::Layer::Pif;
    std::uint64_t pending_step = 0;
  };
  std::vector<PerProcess> st(kLoopN);
  LogScan out;
  for (const sim::Observation& o : log) {
    if (o.process < 0 || o.process >= kLoopN) continue;
    PerProcess& p = st[static_cast<std::size_t>(o.process)];
    if (o.layer == sim::Layer::Pif) {
      if (o.kind == sim::ObsKind::Start) {
        p.wave_open = true;
        p.feedbacks = 0;
      } else if (o.kind == sim::ObsKind::RecvFck && p.wave_open) {
        ++p.feedbacks;
      } else if (o.kind == sim::ObsKind::Decide && p.wave_open) {
        ++out.waves;
        if (p.feedbacks != kLoopN - 1) ++out.incomplete_waves;
        p.wave_open = false;
      }
    }
    if (o.kind == sim::ObsKind::RequestWait) {
      p.pending = true;
      p.pending_layer = o.layer;
      p.pending_step = o.step;
    } else if (o.kind == sim::ObsKind::Decide && p.pending &&
               o.layer == p.pending_layer) {
      out.session_steps.push_back(static_cast<double>(o.step - p.pending_step));
      p.pending = false;
    }
  }
  return out;
}

struct LoopPhase {
  std::vector<double> latency_ms;      // sessions submitted in the window
  std::uint64_t submitted = 0;         // in the window
  std::uint64_t ok = 0;                // of those, completed correctly
  std::uint64_t ok_in_window = 0;      // completions inside the window
  std::uint64_t completed_total = 0;   // every completion, warm-up included
  std::uint64_t polls = 0;
  double window_s = 0;
  std::vector<double> bucket_rate;     // completions per second
  std::vector<double> bucket_cpu_ms;   // cpu ms per completion
  Usage usage;                         // over the window
  double rss_mb = 0;                   // when the window's sessions are done
  LogScan log;
  runtime::Mailbox::Stats mail;        // ThreadRuntime only
  net::SocketRuntime::WireStats wire;  // SocketRuntime only
};

template <typename R>
LoopPhase loop_phase(std::uint64_t seed, const std::vector<std::int64_t>& ids,
                     double seconds, Tracer& tr, Outcome& out) {
  LoopPhase ph;
  auto rt = loop_runtime<R>(seed, ids);
  svc::Client client(*rt);
  const std::int64_t leader = *std::min_element(ids.begin(), ids.end());
  std::vector<std::int64_t> sorted = ids;
  std::sort(sorted.begin(), sorted.end());

  struct Slot {
    svc::Session s;
    bool live = false;
    bool measured = false;
    std::uint64_t submit_ns = 0;
    Value payload;
    std::uint64_t k = 0;  // sessions this origin has submitted
  };
  std::vector<Slot> slots(kLoopN);
  Rng rng(seed ^ 0x9A7);

  const std::uint64_t t0 = now_ns();
  const std::uint64_t warm_end = t0 + kWarmupNs;
  const std::uint64_t window_end =
      warm_end + static_cast<std::uint64_t>(seconds * 1e9);
  const std::uint64_t drain_end = window_end + kDrainNs;
  bool in_window = false, window_closed = false;
  Usage u_start;
  std::uint64_t bucket_start = 0, bucket_ok = 0;
  Usage bucket_usage;
  const auto close_bucket = [&](std::uint64_t now) {
    const Usage u = Usage::now();
    const auto n = static_cast<double>(bucket_ok);
    ph.bucket_rate.push_back(
        per(n, static_cast<double>(now - bucket_start) / 1e9));
    ph.bucket_cpu_ms.push_back((u - bucket_usage).cpu_ms() / n);
    bucket_start = now;
    bucket_usage = u;
    bucket_ok = 0;
  };

  const auto submit = [&](int o, std::uint64_t now) {
    Slot& sl = slots[static_cast<std::size_t>(o)];
    const bool election = sl.k % 4 == 3;
    ++sl.k;
    sl.payload = Value::integer(static_cast<std::int64_t>(rng.below(1u << 30)));
    const std::uint64_t start = now_ns();
    sl.s = election ? client.submit(o, svc::Election{})
                    : client.submit(o, svc::PifBroadcast{sl.payload});
    tr.add("svc", "submit",
           {o, static_cast<int>(sl.s.key.service), sl.s.key.seq}, start,
           now_ns());
    sl.live = true;
    sl.submit_ns = now;
    sl.measured = now >= warm_end && now < window_end;
    if (sl.measured) ++ph.submitted;
  };

  // The closed loop runs inside the runtime's own await predicate, which the
  // supervising thread polls every millisecond: poll each origin's session,
  // check and release it when Done, submit the origin's next one.
  const auto loop = [&] {
    return tr.span("load", "closed_loop", {}, [&] {
      const std::uint64_t now = now_ns();
      if (!in_window && now >= warm_end) {
        in_window = true;
        u_start = Usage::now();
        bucket_start = now;
        bucket_usage = u_start;
      }
      if (in_window && !window_closed && now >= window_end) {
        window_closed = true;  // a partial last sub-window is dropped
        ph.usage = Usage::now() - u_start;
        ph.window_s = static_cast<double>(now - warm_end) / 1e9;
      }
      bool live = false;
      for (int o = 0; o < kLoopN; ++o) {
        Slot& sl = slots[static_cast<std::size_t>(o)];
        if (sl.live) {
          const SpanKey key{o, static_cast<int>(sl.s.key.service),
                            sl.s.key.seq};
          ++ph.polls;
          if (!tr.span("svc", "poll", key, [&] { return client.done(sl.s); })) {
            live = true;
            continue;
          }
          const std::uint64_t done_ns = now_ns();
          const svc::SessionResult res = client.result(sl.s);
          tr.span("svc", "release", key, [&] { client.release(sl.s); });
          sl.live = false;
          bool ok = res.completed;
          if (sl.s.key.service == ServiceId::Election) {
            out.check(res.min_id == leader,
                      "loop: an Election named another leader");
            const auto rank = std::find(sorted.begin(), sorted.end(),
                                        ids[static_cast<std::size_t>(o)]) -
                              sorted.begin();
            out.check(res.rank == rank, "loop: an Election ranked wrongly");
            ok = ok && res.min_id == leader && res.rank == rank;
          } else {
            out.check(res.value == sl.payload,
                      "loop: a PIF session returned another payload");
            ok = ok && res.value == sl.payload;
          }
          ++ph.completed_total;
          if (ok && in_window && !window_closed) {
            ++ph.ok_in_window;
            if (++bucket_ok == kBucketSessions) close_bucket(done_ns);
          }
          if (sl.measured) {
            ph.latency_ms.push_back(
                static_cast<double>(done_ns - sl.submit_ns) / 1e6);
            if (ok) ++ph.ok;
          }
        }
        if (now < window_end) {
          submit(o, now);
          live = true;
        }
      }
      return (window_closed && !live) || now >= drain_end;
    });
  };

  tr.span(kIsThread<R> ? "runtime" : "net", "run", {}, [&] {
    return rt->run(loop, std::chrono::milliseconds(
                             (drain_end - t0) / 1'000'000 + 5'000));
  });
  if constexpr (!kIsThread<R>) rt->shutdown();
  // Read before the checks below copy the runtime's observation log.
  ph.rss_mb = peak_rss_mb();
  for (const Slot& sl : slots)
    out.check(!sl.live || !sl.measured,
              "loop: a session was still in flight at the await deadline");
  out.attempted += ph.submitted;
  out.failed += ph.submitted - ph.ok;

  ph.log = scan_log(rt->observations());
  out.check(ph.log.waves > 0, "loop: no PIF wave decided");
  out.check(ph.log.incomplete_waves == 0,
            "loop: a PIF wave decided without every neighbour's feedback");
  if constexpr (kIsThread<R>) {
    for (int s = 0; s < kLoopN; ++s)
      for (int d = 0; d < kLoopN; ++d) {
        if (s == d) continue;
        const runtime::Mailbox::Stats m = rt->mailbox(s, d).stats();
        ph.mail.pushed += m.pushed;
        ph.mail.lost_on_full += m.lost_on_full;
        ph.mail.popped += m.popped;
        ph.mail.decode_failures += m.decode_failures;
      }
  } else {
    ph.wire = rt->wire_stats();
  }
  return ph;
}

template <typename R>
void run_loop(const char* name, std::uint64_t seed, double seconds,
              bool traced, Tracer& tr, Outcome& out) {
  const std::vector<std::int64_t> ids = loop_ids(seed);
  Tracer off(false);
  Setups st;
  loop_setup<R>(seed, ids, off, st);
  const LoopPhase a =
      loop_phase<R>(seed, ids, traced ? seconds / 2 : seconds, off, out);
  loop_setup<R>(seed, ids, off, st);
  const auto a_ok = static_cast<double>(a.ok_in_window);
  if (!traced) {
    // A window too short for one full sub-window falls back to the whole
    // window.
    const bool whole = a.bucket_rate.empty();
    out.set("sessions_per_s",
            whole ? per(a_ok, a.window_s) : median(a.bucket_rate));
    out.set("session_p50_ms", quantile(a.latency_ms, 0.5));
    out.set("session_p75_ms", quantile(a.latency_ms, 0.75));
    out.set("cpu_ms_per_session", whole ? per(a.usage.cpu_ms(), a_ok)
                                        : median(a.bucket_cpu_ms));
    out.set("ok_ratio", per(static_cast<double>(a.ok),
                            static_cast<double>(a.submitted)));
    out.set("recovery_steps_p50", quantile(a.log.session_steps, 0.5));
    out.set("setup_s", median(st.total_s));
    out.set("peak_rss_mb", a.rss_mb);
    std::fprintf(stderr, "%s: %llu sessions in a %.2f s window, %zu latency "
                 "samples; latency ms p50 %.3f p75 %.3f p90 %.3f p95 %.3f "
                 "p99 %.3f\n", name,
                 static_cast<unsigned long long>(a.ok_in_window), a.window_s,
                 a.latency_ms.size(), quantile(a.latency_ms, 0.5),
                 quantile(a.latency_ms, 0.75), quantile(a.latency_ms, 0.9),
                 quantile(a.latency_ms, 0.95), quantile(a.latency_ms, 0.99));
    return;
  }

  Setups tst;
  loop_setup<R>(seed, ids, tr, tst);
  const LoopPhase b = loop_phase<R>(seed, ids, seconds / 2, tr, out);
  loop_setup<R>(seed, ids, tr, tst);
  const auto b_ok = static_cast<double>(b.ok_in_window);
  const auto all = static_cast<double>(b.completed_total);
  out.set("core.session_steps_p50", quantile(b.log.session_steps, 0.5));
  out.set("core.session_steps_p99", quantile(b.log.session_steps, 0.99));
  out.set("svc.submit_us", tr.mean_ns("svc", "submit") / 1e3);
  out.set("svc.poll_us", tr.mean_ns("svc", "poll") / 1e3);
  out.set("svc.release_us", tr.mean_ns("svc", "release") / 1e3);
  out.set("svc.polls_per_session", per(static_cast<double>(b.polls), all));
  out.set("svc.world_build_ms", median(tst.world_ms));
  if constexpr (kIsThread<R>) {
    out.set("runtime.mailbox_pushed_per_session",
            per(static_cast<double>(b.mail.pushed), all));
    out.set("runtime.lost_on_full_ratio",
            per(static_cast<double>(b.mail.lost_on_full),
                static_cast<double>(b.mail.pushed)));
    out.set("runtime.decode_failures",
            static_cast<double>(b.mail.decode_failures));
  } else {
    out.set("net.datagrams_per_session",
            per(static_cast<double>(b.wire.datagrams_sent), all));
    out.set("net.delivered_ratio",
            per(static_cast<double>(b.wire.delivered),
                static_cast<double>(b.wire.datagrams_received)));
    out.set("net.loss_drops", static_cast<double>(b.wire.loss_drops));
    out.set("net.rejected_frames",
            static_cast<double>(b.wire.rejected_frames));
  }
  out.set("proc.user_ms_per_session", per(b.usage.user_ms, b_ok));
  out.set("proc.sys_ms_per_session", per(b.usage.sys_ms, b_ok));
  out.set("proc.vol_ctxsw_per_session", per(b.usage.vol_ctxsw, b_ok));
  out.set("proc.invol_ctxsw_per_session", per(b.usage.invol_ctxsw, b_ok));
  const double cpu_a = per(a.usage.cpu_ms(), a_ok);
  out.set("trace.overhead_pct",
          100.0 * per(per(b.usage.cpu_ms(), b_ok) - cpu_a, cpu_a));

  // The loop's own mix on the same topology, served by the simulator with
  // delivery recording on.
  auto sim = svc::service_world(
      sim::Topology::complete(kLoopN), 1, seed,
      [&](sim::ProcessId p) { return loop_host(ids, p); });
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(seed + 1));
  sim->enable_recording();
  svc::Client client(*sim);
  std::vector<svc::Session> work;
  Rng rng(seed ^ 0xCA11);
  for (int p = 0; p < kLoopN; ++p) {
    for (int k = 0; k < 3; ++k)
      work.push_back(client.submit(
          p, svc::PifBroadcast{Value::integer(
                 static_cast<std::int64_t>(rng.below(1u << 30)))}));
    work.push_back(client.submit(p, svc::Election{}));
  }
  calibrate_codecs(recorded_messages(*sim, work, client), tr, out);
}

// --- main --------------------------------------------------------------------

int usage_error(const char* why) {
  std::fprintf(stderr,
               "snapbench: %s\nusage: snapbench --workload "
               "sim_mix|sim_storm|thread_loop|socket_loop --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload, trace_out;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      workload = v;
    } else if (flag == "--seed") {
      seed = std::strtoull(v, nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(v);
    } else if (flag == "--trace-out") {
      trace_out = v;
    } else {
      return usage_error(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return usage_error("every flag takes a value");
  if (!have_seed || !(seconds > 0) || (trace != 0 && trace != 1))
    return usage_error("--seed, --seconds > 0 and --trace 0|1 are required");

  const bool traced = trace == 1;
  Tracer tr(traced);
  Outcome out;
  if (workload == "sim_mix")
    run_sim(false, seed, seconds, traced, tr, out);
  else if (workload == "sim_storm")
    run_sim(true, seed, seconds, traced, tr, out);
  else if (workload == "thread_loop")
    run_loop<snapstab::runtime::ThreadRuntime>("thread_loop", seed, seconds,
                                               traced, tr, out);
  else if (workload == "socket_loop")
    run_loop<snapstab::net::SocketRuntime>("socket_loop", seed, seconds,
                                           traced, tr, out);
  else
    return usage_error(("unknown workload " + workload).c_str());

  if (traced) {
    out.set("trace.spans", static_cast<double>(tr.spans().size()));
    std::fprintf(stderr, "self time by layer (traced phase):\n");
    for (const auto& [layer, lt] : tr.self_times())
      std::fprintf(stderr,
                   "  %-8s spans %8llu  total %10.3f ms  self %10.3f ms\n",
                   layer.c_str(), static_cast<unsigned long long>(lt.spans),
                   static_cast<double>(lt.total_ns) / 1e6,
                   static_cast<double>(lt.self_ns) / 1e6);
    std::fprintf(stderr, "tracing overhead (traced minus untraced cpu per "
                 "session): %.2f%%\n", out.values["trace.overhead_pct"]);
    if (!trace_out.empty()) {
      char other[256];
      std::snprintf(other, sizeof other,
                    "\"workload\":\"%s\",\"seed\":%llu,\"overhead_pct\":%.4f",
                    workload.c_str(), static_cast<unsigned long long>(seed),
                    out.values["trace.overhead_pct"]);
      out.check(tr.write_chrome(trace_out, other),
                "could not write the trace file " + trace_out);
    }
  }
  for (const auto& [what, times] : out.failures)
    std::fprintf(stderr, "CHECK FAILED (%llux): %s\n",
                 static_cast<unsigned long long>(times), what.c_str());
  std::printf("{\"build_type\": \"%s\", \"compiler\": \"%s\"}\n",
              PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER);
  if (traced)
    out.print(kPerLayer);
  else
    out.print(kEndToEnd);
  return out.failures.empty() ? 0 : 1;
}
