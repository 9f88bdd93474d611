// Experiment "sweep_loop_design" — batch two-mode loop design across the
// synthesized Table I fleet (new workload, not a paper figure): every
// (application x repeat) grid cell runs the full design pipeline from
// scratch — c2d_pair discretization (shared e^{Ah} factorization),
// Ackermann pole placement on the augmented realizations, the
// spectral-radius stability audit, and the ET-loop transient-envelope
// audit (matrix powers) — exercising the allocation-free linalg path
// end-to-end under cps_run.  A second phase fetches the same designs
// through the content-addressed FixtureCache (one miss per application,
// hits afterwards) and cross-checks the cached gains bit-for-bit against
// the freshly computed ones, so a cache or codec that altered a design
// fails the run.
//
// The CSV records only deterministic design facts (dimensions, spectral
// radii, gain norms), so the artifact is bit-identical at any --jobs; the
// measured design throughput goes to the narrative stream.
#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

#include "analysis/transient.hpp"
#include "control/loop_design.hpp"
#include "experiments/fixtures.hpp"
#include "plants/table1.hpp"
#include "runtime/experiment.hpp"
#include "runtime/fixture_cache.hpp"
#include "runtime/sweep_runner.hpp"
#include "util/csv.hpp"
#include "util/format.hpp"
#include "util/table.hpp"

namespace {

using namespace cps;

constexpr std::size_t kRepeatsPerApp = 25;

struct DesignCell {
  double rho_tt = 0.0;
  double rho_et = 0.0;
  double gamma_et = 1.0;   // ET-loop transient envelope peak (plant states)
  linalg::Matrix gain_tt;  // kept whole so the cache cross-check is elementwise
  linalg::Matrix gain_et;
  double design_seconds = 0.0;  // narrative only — never written to the CSV
};

}  // namespace

CPS_EXPERIMENT(sweep_loop_design,
               "Sweep: batch two-mode loop design across the fleet (FixtureCache-backed)") {
  std::fprintf(ctx.out, "== Sweep: batch loop design across the synthesized fleet ==\n");
  const auto fleet = experiments::paper_fleet();
  const std::size_t apps = fleet->size();
  std::fprintf(ctx.out, "(%zu applications x %zu repeats, %d jobs)\n\n", apps,
               kRepeatsPerApp, ctx.jobs);

  // Phase 1: cold design of every grid cell, then an audit of its ET
  // loop's transient envelope (the growth that produces the Fig. 3
  // non-monotonicity).
  runtime::SweepRunner sweep({ctx.jobs, ctx.seed});
  const auto cells = sweep.run(apps * kRepeatsPerApp, [&](std::size_t index, Rng&) {
    const auto& app = (*fleet)[index % apps];
    const auto start = std::chrono::steady_clock::now();
    const auto design = control::design_hybrid_loops(app.plant, app.spec);
    const auto stop = std::chrono::steady_clock::now();
    const auto growth = analysis::transient_growth_restricted(design.a_et, design.state_dim);
    DesignCell cell;
    cell.design_seconds = std::chrono::duration<double>(stop - start).count();
    cell.rho_tt = design.rho_tt;
    cell.rho_et = design.rho_et;
    cell.gamma_et = growth.peak_gain;
    cell.gain_tt = design.gain_tt;
    cell.gain_et = design.gain_et;
    return cell;
  });

  double batch_seconds = 0.0;
  for (const auto& cell : cells) batch_seconds += cell.design_seconds;

  // Phase 2: the cached path every later experiment takes — one miss per
  // application, then hits that must return the identical design.
  const auto stats_before = runtime::FixtureCache::instance().stats();
  const auto cached_apps = experiments::build_paper_fleet();
  const auto stats_after = runtime::FixtureCache::instance().stats();

  bool cache_matches = true;
  for (std::size_t i = 0; i < apps; ++i) {
    const auto& fresh = cells[i];  // repeat 0 of application i
    const auto& cached = cached_apps[i];
    // Bit-exact, elementwise agreement between the freshly designed and
    // cached gain matrices (Matrix::operator== compares every entry).
    if (!(cached.design().gain_tt == fresh.gain_tt) ||
        !(cached.design().gain_et == fresh.gain_et)) {
      cache_matches = false;
    }
  }

  const std::string csv_path = ctx.csv_path("sweep_loop_design.csv");
  CsvWriter csv(csv_path,
                {"app", "state_dim", "input_dim", "rho_tt", "rho_et", "gamma_et",
                 "gain_tt_fro", "gain_et_fro"});
  TextTable table({"app", "n", "m", "rho_tt", "rho_et", "gamma_et", "|K_tt|", "|K_et|"});
  for (std::size_t i = 0; i < apps; ++i) {
    const auto& app = (*fleet)[i];
    const auto& cell = cells[i];
    const double gain_tt_norm = cell.gain_tt.norm_frobenius();
    const double gain_et_norm = cell.gain_et.norm_frobenius();
    csv.write_row(std::vector<std::string>{
        app.target.name, std::to_string(app.plant.state_dim()),
        std::to_string(app.plant.input_dim()), format_fixed(cell.rho_tt, 12),
        format_fixed(cell.rho_et, 12), format_fixed(cell.gamma_et, 12),
        format_fixed(gain_tt_norm, 12), format_fixed(gain_et_norm, 12)});
    table.add_row({app.target.name, std::to_string(app.plant.state_dim()),
                   std::to_string(app.plant.input_dim()), format_fixed(cell.rho_tt, 4),
                   format_fixed(cell.rho_et, 4), format_fixed(cell.gamma_et, 3),
                   format_fixed(gain_tt_norm, 3), format_fixed(gain_et_norm, 3)});
  }
  std::fprintf(ctx.out, "%s\n", table.render().c_str());

  const double per_design_us = batch_seconds * 1e6 / static_cast<double>(cells.size());
  std::fprintf(ctx.out,
               "batch: %zu designs in %.1f ms (%.2f us/design, includes the "
               "spectral-radius audit)\n",
               cells.size(), batch_seconds * 1e3, per_design_us);
  std::fprintf(ctx.out, "cache: +%zu misses, +%zu hits while building the fleet; gains %s\n",
               stats_after.misses - stats_before.misses, stats_after.hits - stats_before.hits,
               cache_matches ? "bit-identical to the fresh designs" : "MISMATCH");
  std::fprintf(ctx.out, "per-application design facts written to %s\n\n", csv_path.c_str());
  if (!cache_matches) throw cps::Error("sweep_loop_design: cached designs diverged");
}
