// Experiment "sweep_alloc_parallel" — strong-scaling profile of the
// exact slot allocator (new workload, not a paper figure).
//
// The paper's NP-hard minimum-slot problem is the kernel every campaign
// leans on.  This experiment runs it (analysis/slot_allocation.cpp) on
// fixed proving instances of n = 14..20 applications:
//
//  1. OPTIMUM — one optimal_allocate per instance.  profile_exact_search
//     must prove the same slot count (CPS_ENSURE); the CSV's
//     jobs_identical column records that check as 1, so a run that
//     writes the CSV at all has passed it.
//  2. STRONG SCALING — profile_exact_search splits the bound-proving
//     pass into its frontier subtree tasks, times them sequentially, and
//     emulates the wall-clock on j dedicated cores by greedy list
//     scheduling (the same critical-path emulation
//     bench/campaign_scaling.cpp uses for process shards).  The
//     decomposition only measures: the allocator itself proves on one
//     thread.
//
// sweep_alloc_parallel.csv (instance facts, proven optima, task counts)
// is bit-identical for any --jobs.  The *_times.csv sidecar holds
// measured wall-clocks and is explicitly exempt from the bit-identity
// contract; the committed strong-scaling snapshot lives in
// bench/results/BENCH_alloc_parallel.json (bench/alloc_parallel.cpp).
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/slot_allocation.hpp"
#include "experiments/fixtures.hpp"
#include "runtime/experiment.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/format.hpp"
#include "util/table.hpp"

namespace {

using namespace cps;
using namespace cps::analysis;

constexpr int kJobSweep[] = {1, 2, 4, 8};

}  // namespace

CPS_EXPERIMENT(sweep_alloc_parallel,
               "Sweep: exact-allocator subtree decomposition, emulated strong scaling on "
               "{1,2,4,8} cores") {
  std::fprintf(ctx.out, "== Sweep: exact slot allocation, emulated strong scaling ==\n");
  std::fprintf(ctx.out, "(fixed proving instances, critical paths on 1, 2, 4, 8 cores)\n\n");

  const std::string csv_path = ctx.csv_path("sweep_alloc_parallel.csv");
  const std::string times_path = ctx.csv_path("sweep_alloc_parallel_times.csv");
  CsvWriter csv(csv_path, {"n_apps", "seed", "first_fit", "optimal", "root_lower_bound",
                           "subtree_tasks", "jobs_identical"});
  CsvWriter times_csv(times_path, {"n_apps", "jobs", "critical_path_ms"});
  TextTable table({"n apps", "ff", "opt", "lb", "tasks", "seq [ms]", "cp j2", "cp j4",
                   "cp j8", "j8 speedup"});

  // The fixed proving instances shared with bench/alloc_parallel.cpp
  // (experiments::alloc_proving_instances): feasible, first-fit seed
  // above the root lower bound, so the search must actually prove.
  for (const auto& inst : experiments::alloc_proving_instances()) {
    const auto set = experiments::alloc_proving_params(inst);

    const Allocation allocation = optimal_allocate(set);

    // Strong scaling via the sequential critical-path decomposition.
    const ExactSearchProfile profile = profile_exact_search(set);
    CPS_ENSURE(profile.optimal_slots == allocation.slot_count(),
               "sweep_alloc_parallel: profile disagrees with optimal_allocate");

    csv.write_row(std::vector<std::string>{
        std::to_string(inst.n), std::to_string(inst.seed),
        std::to_string(profile.seed_slots), std::to_string(profile.optimal_slots),
        std::to_string(profile.root_lower_bound), std::to_string(profile.task_seconds.size()),
        "1"});
    for (std::size_t j = 0; j < std::size(kJobSweep); ++j) {
      times_csv.write_row(std::vector<std::string>{
          std::to_string(inst.n), std::to_string(kJobSweep[j]),
          format_fixed(profile.critical_path_seconds(kJobSweep[j]) * 1e3, 3)});
    }

    const double cp1 = profile.critical_path_seconds(1);
    const double cp8 = profile.critical_path_seconds(8);
    table.add_row({std::to_string(inst.n), std::to_string(profile.seed_slots),
                   std::to_string(profile.optimal_slots),
                   std::to_string(profile.root_lower_bound),
                   std::to_string(profile.task_seconds.size()),
                   format_fixed(profile.sequential_seconds * 1e3, 2),
                   format_fixed(profile.critical_path_seconds(2) * 1e3, 2),
                   format_fixed(profile.critical_path_seconds(4) * 1e3, 2),
                   format_fixed(cp8 * 1e3, 2),
                   cp8 > 0.0 ? format_fixed(cp1 / cp8, 2) + "x" : "n/a"});
  }

  std::fprintf(ctx.out, "%s\n", table.render().c_str());
  std::fprintf(ctx.out, "instance facts written to %s\n", csv_path.c_str());
  std::fprintf(ctx.out, "wall-clock curves (non-deterministic) written to %s\n\n",
               times_path.c_str());
}
