// Experiment "run_scenario" — one online fault-injection run, scripted.
//
// Runs the online world (online/world.hpp) over one scenario script and
// writes the replayable event-log CSV plus a per-event re-allocation
// report table.  The scenario comes from, in order of preference:
//
//   1. `cps_run --scenario FILE`          (ctx.scenario_path)
//   2. a campaign spec's `[scenario] file = "..."` key
//   3. the built-in demo script below     (so `cps_run all` always runs)
//
// Seed resolution is "explicit flags win" (online/scenario.hpp):
// --seed > the scenario's seed > the spec's seed > the default.
//
// Determinism: the event-log CSV is byte-identical for a given
// (scenario, resolved seed) at any --jobs — the world runs on one
// thread and wall-clock times stay in the stdout table (CI runs the
// j1-vs-j4 and repeat-run cmp).
#include <cstdio>
#include <string>
#include <vector>

#include "online/scenario.hpp"
#include "online/world.hpp"
#include "runtime/campaign_spec.hpp"
#include "runtime/experiment.hpp"
#include "util/format.hpp"
#include "util/table.hpp"
#include "util/toml.hpp"

namespace {

using namespace cps;

/// The built-in demo: a mid-size fleet surviving slot loss, drift and
/// churn.  Kept small enough to run in well under a second.
constexpr const char* kBuiltinScenario = R"(
scenario_version = 1

[scenario]
name         = "builtin_demo"
ticks        = 30
tick_seconds = 0.5

[fleet]
n_apps      = 8
utilization = 1.8

[[event]]
at_tick = 6
kind    = "drop_slot"

[[event]]
at_tick = 12
kind    = "drift"
app     = "G2"
factor  = 1.3

[[event]]
at_tick = 18
kind    = "drop_frames"
app     = "G5"
factor  = 1.4

[[event]]
at_tick = 24
kind    = "leave"
app     = "G1"
)";

online::ScenarioSpec resolve_scenario(const cps::runtime::ExperimentContext& ctx) {
  if (!ctx.scenario_path.empty()) return online::load_scenario(ctx.scenario_path);
  const std::string spec_file = runtime::spec_string(ctx.spec, "scenario.file", "");
  if (!spec_file.empty()) return online::load_scenario(spec_file);
  return online::make_scenario(util::parse_toml(kBuiltinScenario, "<builtin>"), "<builtin>");
}

}  // namespace

CPS_EXPERIMENT(run_scenario,
               "Online mode: tick one fault-injection scenario script to its end "
               "(--scenario FILE; deterministic event-log CSV)") {
  const online::ScenarioSpec scenario = resolve_scenario(ctx);
  const std::uint64_t seed = online::effective_scenario_seed(ctx, scenario);

  std::fprintf(ctx.out, "== Online scenario: %s (%s) ==\n", scenario.name.c_str(),
               scenario.source.c_str());
  std::fprintf(ctx.out,
               "(%llu ticks x %s s, %zu apps at utilization %s, seed %llu)\n\n",
               static_cast<unsigned long long>(scenario.ticks),
               format_general(scenario.tick_seconds).c_str(), scenario.n_apps,
               format_general(scenario.utilization).c_str(),
               static_cast<unsigned long long>(seed));

  online::World world(scenario, seed);
  world.run();

  // Per-event re-allocation reports.  Proof wall time lives HERE, never
  // in the event log (the CSV is byte-compared across runs and jobs).
  TextTable table({"tick", "trigger", "slots", "warm", "gap", "feasible", "proof ms"});
  for (const auto& report : world.reports()) {
    table.add_row({std::to_string(report.tick), report.trigger,
                   std::to_string(report.slots_before) + "->" +
                       std::to_string(report.slots_after),
                   report.warm_incumbent == 0 ? "cold" : std::to_string(report.warm_incumbent),
                   std::to_string(report.anytime_gap), report.feasible ? "yes" : "NO",
                   format_fixed(report.proof_seconds * 1e3, 2)});
  }
  std::fprintf(ctx.out, "%s\n", table.render().c_str());

  std::fprintf(ctx.out,
               "%llu arrivals, %llu deadline misses, %zu apps resident, %zu slots, %s\n",
               static_cast<unsigned long long>(world.total_arrivals()),
               static_cast<unsigned long long>(world.total_misses()),
               world.app_names().size(), world.allocation().slot_count(),
               world.feasible() ? "feasible" : (world.outage() ? "OUTAGE" : "INFEASIBLE"));

  const std::string csv_path = ctx.csv_path("scenario_" + scenario.name + "_events.csv");
  online::write_event_log_csv(csv_path, world);
  std::fprintf(ctx.out, "event log (%zu rows) written to %s\n\n", world.event_log().size(),
               csv_path.c_str());
}
