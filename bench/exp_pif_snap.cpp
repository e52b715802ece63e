// exp_pif_snap — Experiment E3 (+ E6): Theorem 2, empirically.
//
// Fuzzes arbitrary initial configurations and checks every property of
// Specification 1 on every run, plus Property 1 (channel flushing). The
// headline number is the violation count: snap-stabilization means zero,
// from the very first request, under every corruption and loss setting.
#include "exp_common.hpp"

namespace snapstab::bench {
namespace {

struct Cell {
  int runs = 0;
  int violations = 0;
  int property1_failures = 0;
  Summary steps;
  Summary messages;
};

Cell run_cell(int n, bool corrupted, double loss, int trials,
              std::uint64_t seed0) {
  Cell cell;
  const Value marker = Value::text("ghost-marker");
  for (int t = 0; t < trials; ++t) {
    const std::uint64_t seed = seed0 + static_cast<std::uint64_t>(t);
    auto world = pif_world(n, 1, seed);
    if (corrupted) {
      Rng rng(seed ^ 0xF00D);
      sim::fuzz(*world, rng);
    }
    // Property 1 markers in the initiator's incident channels (replacing
    // whatever fuzz put there — still an arbitrary configuration).
    auto& net = world->network();
    for (int other = 1; other < n; ++other) {
      net.channel(other, 0).clear();
      net.channel(0, other).clear();
      net.channel(other, 0).push(Message::pif(marker, marker, 2, 2));
      net.channel(0, other).push(Message::pif(marker, marker, 1, 0));
    }
    world->set_scheduler(std::make_unique<sim::RandomScheduler>(
        seed + 1, sim::LossOptions{.rate = loss, .max_consecutive = 6}));
    const bool decided = broadcast(
        *world, 0, Value::integer(static_cast<int>(seed)), 2'000'000);
    ++cell.runs;
    if (!decided) {
      ++cell.violations;  // termination violation
      continue;
    }
    cell.steps.add(static_cast<double>(world->step_count()));
    cell.messages.add(static_cast<double>(world->metrics().sends));
    const auto report = core::check_pif_spec(
        *world, {.require_termination = false, .require_start = false});
    if (!report.ok()) ++cell.violations;
    // Property 1: the markers are gone from the initiator's channels.
    for (int other = 1; other < n; ++other) {
      for (const auto& m : net.channel(other, 0).contents())
        if (m.b == marker) ++cell.property1_failures;
      for (const auto& m : net.channel(0, other).contents())
        if (m.b == marker) ++cell.property1_failures;
    }
  }
  return cell;
}

}  // namespace
}  // namespace snapstab::bench

int main(int argc, char** argv) {
  using namespace snapstab;
  using namespace snapstab::bench;
  CliArgs args(argc, argv, {"trials", "seed", "json"});
  const int trials = static_cast<int>(args.get_int("trials", 60));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1000));

  banner("E3/E6: exp_pif_snap",
         "Theorem 2 (Protocol PIF is snap-stabilizing) + Property 1",
         "Specification-1 violations across fuzzed initial configurations,\n"
         "loss rates and system sizes; plus Property-1 channel flushing.");

  TextTable table({"n", "initial config", "loss", "runs", "spec violations",
                   "Property-1 failures", "steps to decide",
                   "messages sent"});
  int total_violations = 0;
  int total_p1 = 0;
  for (int n : {2, 3, 5, 8}) {
    for (const bool corrupted : {false, true}) {
      for (const double loss : {0.0, 0.2}) {
        const auto cell =
            run_cell(n, corrupted, loss, trials,
                     seed + static_cast<std::uint64_t>(n) * 7919);
        total_violations += cell.violations;
        total_p1 += cell.property1_failures;
        table.add_row({TextTable::cell(n),
                       corrupted ? "arbitrary" : "clean",
                       TextTable::cell(loss, 2), TextTable::cell(cell.runs),
                       TextTable::cell(cell.violations),
                       TextTable::cell(cell.property1_failures),
                       cell.steps.brief(), cell.messages.brief()});
      }
    }
  }
  table.print();
  verdict(total_violations == 0,
          "zero Specification-1 violations: every started computation was "
          "correct from the first request");
  verdict(total_p1 == 0,
          "Property 1 held: terminated computations flushed the "
          "initiator's channels");

  BenchJson json("exp_pif_snap");
  json.set("trials", trials);
  json.set("total_violations", total_violations);
  json.set("property1_failures", total_p1);
  return exit_code(json.write_if_requested(args));
}
