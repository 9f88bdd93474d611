// fleet_codesign: the paper's co-design flow, run by one in-process caller
// on fresh plant-backed fleets (never through the FixtureCache), so the
// numeric layers — linalg, sim, control, plants, flexray, core — do the
// work and a campaign's exact search does not.
//
// Per fleet, in order:
//   plants::synthesize_extra_fleet -> control::design_hybrid_loops
//   ControlApplication::measure_curve -> fit_model(kNonMonotonic)
//   analysis::first_fit_allocate + analysis::optimal_allocate
//   core::CoSimulator::run on the exact allocation
//
// Correctness: every fitted envelope dominates its measured curve, the
// exact slot count never exceeds first-fit's, and the digest over slot
// counts and curve characteristic values of a fixed reference block (the
// first fleets of the reference seed) is printed for run.py to compare
// with the recorded one.
#include <exception>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/slot_allocation.hpp"
#include "common.hpp"
#include "control/loop_design.hpp"
#include "core/application.hpp"
#include "core/co_simulation.hpp"
#include "linalg/expm.hpp"
#include "plants/table1.hpp"
#include "runtime/sweep_runner.hpp"
#include "subcommands.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using cps::core::ControlApplication;

constexpr std::size_t kFleetSizes[] = {6, 8, 10, 12};
/// Fleets of the run's seed the layer counts are taken over; a traced run
/// always completes at least this many, so the counts repeat exactly per seed.
constexpr std::size_t kCountedFleets = 32;
constexpr int kExpmReps = 16;

volatile double g_sink = 0.0;  // keeps the expm probe's results live

struct FleetResult {
  double latency_s = 0.0;
  std::size_t ff_slots = 0;
  std::size_t exact_slots = 0;
  std::size_t curve_points = 0;
  std::size_t deadline_misses = 0;
  std::uint64_t digest = 0;  ///< slot counts and curve characteristic values
  std::vector<cps::linalg::Matrix> sampled_dynamics;  ///< A*h per plant, for the expm probe
};

/// Co-design one fleet; reports broken invariants through `report`.
FleetResult codesign_fleet(std::uint64_t fleet_seed, Tracer& tracer, std::uint64_t request,
                           Report& report) {
  FleetResult result;
  Digest digest;
  const auto start = Clock::now();
  Tracer::Scope fleet_span(tracer, "fleet", request);

  cps::Rng rng(fleet_seed);
  const std::size_t n_apps = kFleetSizes[rng.uniform_int(0, 3)];
  const std::uint64_t synth_seed = rng.engine()();
  std::vector<cps::plants::SynthesizedApp> fleet;
  {
    Tracer::Scope span(tracer, "plants.synthesize", request);
    fleet = cps::plants::synthesize_extra_fleet(n_apps, synth_seed);
  }

  std::vector<ControlApplication> apps;
  apps.reserve(fleet.size());  // the co-simulator keeps pointers into apps
  for (const auto& item : fleet) {
    auto design = [&] {
      Tracer::Scope span(tracer, "control.design", request);
      return cps::control::design_hybrid_loops(item.plant, item.spec);
    }();
    apps.emplace_back(item.target.name, std::move(design),
                      cps::core::TimingRequirements{item.target.r, item.target.xi_d,
                                                    item.threshold},
                      item.x0);
    result.sampled_dynamics.push_back(item.plant.a() * item.spec.sampling_period);
  }

  std::vector<cps::analysis::AppSchedParams> params;
  params.reserve(apps.size());
  for (auto& app : apps) {
    const cps::sim::DwellWaitCurve* curve = nullptr;
    {
      Tracer::Scope span(tracer, "sim.curve", request);
      curve = &app.measure_curve();
    }
    cps::analysis::ModelPtr model;
    {
      Tracer::Scope span(tracer, "analysis.fit", request);
      model = app.fit_model(ControlApplication::ModelKind::kNonMonotonic);
    }
    if (!model->dominates(*curve))
      report.fail("fleet " + std::to_string(request) + ": envelope of " + app.name() +
                  " does not dominate its curve");
    result.curve_points += curve->points().size();
    digest.add(curve->xi_tt());
    digest.add(curve->xi_m());
    digest.add(curve->k_p());
    digest.add(curve->xi_et());
    params.push_back(app.sched_params());
  }

  cps::analysis::Allocation first_fit, exact;
  {
    Tracer::Scope span(tracer, "analysis.ff", request);
    first_fit = cps::analysis::first_fit_allocate(params);
  }
  {
    Tracer::Scope span(tracer, "analysis.exact", request);
    exact = cps::analysis::optimal_allocate(params);
  }
  result.ff_slots = first_fit.slot_count();
  result.exact_slots = exact.slot_count();
  if (result.exact_slots > result.ff_slots)
    report.fail("fleet " + std::to_string(request) + ": exact uses more slots than first-fit");
  digest.add(static_cast<std::uint64_t>(n_apps));
  digest.add(static_cast<std::uint64_t>(result.ff_slots));
  digest.add(static_cast<std::uint64_t>(result.exact_slots));

  std::map<std::string, std::size_t> slot_of;
  for (std::size_t s = 0; s < exact.slots.size(); ++s)
    for (const auto& name : exact.slots[s]) slot_of[name] = s;
  cps::core::CoSimulator cosim;
  for (const auto& app : apps) cosim.add_application(app, slot_of.at(app.name()), {0.0});
  cps::core::CoSimulationResult simulated;
  {
    Tracer::Scope span(tracer, "core.cosim", request);
    simulated = cosim.run();
  }
  for (const auto& app : simulated.apps)
    if (!app.all_deadlines_met) ++result.deadline_misses;
  digest.add(static_cast<std::uint64_t>(result.deadline_misses));
  result.digest = digest.value();

  result.latency_s = seconds_since(start);
  return result;
}

/// ns per linalg::expm call on each sampled plant matrix.
void expm_probe(const std::vector<cps::linalg::Matrix>& matrices, Tracer& tracer,
                std::uint64_t request, std::vector<double>& ns_per_call) {
  for (const auto& ah : matrices) {
    const auto start = Clock::now();
    {
      Tracer::Scope span(tracer, "linalg.expm", request);
      for (int rep = 0; rep < kExpmReps; ++rep) g_sink = cps::linalg::expm(ah)(0, 0);
    }
    ns_per_call.push_back(seconds_since(start) * 1e9 / kExpmReps);
  }
}

double median_of(const std::map<std::string, std::vector<double>>& self, const char* name) {
  const auto it = self.find(name);
  return it == self.end() ? 0.0 : quantile(it->second, 0.5);
}

}  // namespace

int run_codesign(const Args& args) {
  const std::uint64_t seed = args.u64("seed", 0x5EED5EEDULL);
  const double seconds = args.real("seconds", 10.0);
  const std::uint64_t reference_seed = args.u64("reference-seed", 0x5EED5EEDULL);
  const std::size_t reference_fleets = args.u64("reference-fleets", 8);
  const bool trace = args.u64("trace", 0) != 0;
  const std::size_t first_fleet = args.u64("first-fleet", 0);

  Report report;
  Tracer idle(false);

  // Reference block: fixed inputs whose digest is recorded; doubles as the
  // warm-up (page faults, lazy statics) before anything is timed.
  Digest reference_digest;
  for (std::size_t i = 0; i < reference_fleets; ++i) {
    ++report.attempted;
    try {
      reference_digest.add(
          codesign_fleet(cps::runtime::task_seed(reference_seed, i), idle, i, report).digest);
    } catch (const std::exception& error) {
      report.fail(std::string("reference fleet: ") + error.what());
    }
  }

  // Measured fleets of this run's seed.  A traced run co-designs each
  // fleet twice, untraced then traced, which pairs the tracing overhead.
  Tracer tracer(trace);
  Digest counted_digest;
  std::vector<double> latency_ms, overhead_pct, expm_ns;
  std::size_t ff_total = 0, exact_total = 0, curve_points = 0, misses = 0;
  const auto start = Clock::now();
  for (std::size_t i = first_fleet;
       seconds_since(start) < seconds || (trace && i < kCountedFleets); ++i) {
    ++report.attempted;
    const std::uint64_t fleet_seed = cps::runtime::task_seed(seed, i);
    try {
      const auto result = codesign_fleet(fleet_seed, idle, i, report);
      latency_ms.push_back(result.latency_s * 1e3);
      if (trace) {
        const auto traced = codesign_fleet(fleet_seed, tracer, i, report);
        if (traced.digest != result.digest)
          report.fail("fleet " + std::to_string(i) + ": a repeat gave different results");
        overhead_pct.push_back(100.0 * (traced.latency_s - result.latency_s) /
                               result.latency_s);
        expm_probe(traced.sampled_dynamics, tracer, i, expm_ns);
      }
      if (i < kCountedFleets) {
        counted_digest.add(result.digest);
        ff_total += result.ff_slots;
        exact_total += result.exact_slots;
        curve_points += result.curve_points;
        misses += result.deadline_misses;
      }
    } catch (const std::exception& error) {
      report.fail("fleet " + std::to_string(i) + ": " + error.what());
    }
  }
  report.info.push_back({"reference_digest", "\"" + reference_digest.hex() + "\""});
  report.info.push_back({"counted_digest", "\"" + counted_digest.hex() + "\""});
  report.info.push_back({"fleets", std::to_string(latency_ms.size())});
  if (!trace) {
    // run.py pools the fleets of every segment of a run into its metrics.
    std::ostringstream list;
    list.precision(17);
    for (std::size_t i = 0; i < latency_ms.size(); ++i) list << (i ? "," : "[") << latency_ms[i];
    report.info.push_back({"latencies_ms", latency_ms.empty() ? "[]" : list.str() + "]"});
    report.info.push_back({"peak_rss_mb", std::to_string(self_peak_rss_mb())});
  } else {
    const auto self = tracer.self_times();
    report.metric("plants.synthesize_ms", median_of(self, "plants.synthesize") * 1e3, "ms");
    report.metric("control.design_us", median_of(self, "control.design") * 1e6, "us");
    report.metric("sim.curve_ms", median_of(self, "sim.curve") * 1e3, "ms");
    report.metric("analysis.fit_us", median_of(self, "analysis.fit") * 1e6, "us");
    report.metric("analysis.ff_us", median_of(self, "analysis.ff") * 1e6, "us");
    report.metric("analysis.exact_us", median_of(self, "analysis.exact") * 1e6, "us");
    report.metric("core.cosim_ms", median_of(self, "core.cosim") * 1e3, "ms");
    report.metric("linalg.expm_ns", quantile(expm_ns, 0.5), "ns");
    report.metric("sim.curve_points", static_cast<double>(curve_points), "count");
    report.metric("core.cosim_deadline_misses", static_cast<double>(misses), "count");
    report.metric("analysis.ff_slots", static_cast<double>(ff_total), "count");
    report.metric("analysis.exact_slots", static_cast<double>(exact_total), "count");
    report.metric("analysis.exact_slot_saving",
                  ff_total ? 1.0 - static_cast<double>(exact_total) / ff_total : 0.0, "ratio");
    report.info.push_back({"overhead_pct", std::to_string(quantile(overhead_pct, 0.5))});
    report.info.push_back({"layer_self_s", layer_self_json(tracer)});
    write_spans(tracer, args.str("spans"));
  }
  report.emit();
  return 0;
}

}  // namespace perfbench
