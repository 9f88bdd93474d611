// Microbenchmarks for the three allocators, through the same entry points
// the experiments use (first_fit_allocate / best_fit_allocate /
// optimal_allocate), plus the frozen pre-optimization branch-and-bound
// (optimal_allocate_reference, tests/reference/) so the speedup of the pruned search stays
// measurable.  The heuristic-quality campaign itself is produced by
// `cps_run ablation_allocator` (src/experiments/ablation_allocator.cpp).
//
// Branch-and-bound iterations are timed manually on
// std::chrono::steady_clock (monotonic) and reported as ns/op.
#include "bench_common.hpp"

#include <chrono>

#include "analysis/slot_allocation.hpp"
#include "experiments/fixtures.hpp"
#include "reference/analysis_reference.hpp"

namespace {

using namespace cps;
using namespace cps::analysis;

void bm_first_fit(benchmark::State& state) {
  const auto apps = experiments::paper_sched_params(false);
  for (auto _ : state) benchmark::DoNotOptimize(first_fit_allocate(apps));
}
BENCHMARK(bm_first_fit)->Unit(benchmark::kNanosecond);

void bm_best_fit(benchmark::State& state) {
  const auto apps = experiments::paper_sched_params(false);
  for (auto _ : state) benchmark::DoNotOptimize(best_fit_allocate(apps));
}
BENCHMARK(bm_best_fit)->Unit(benchmark::kNanosecond);

template <typename Alloc>
void time_exact(benchmark::State& state, Alloc alloc, int n_random) {
  // n_random == 0 benches the paper's six-app Table I case study;
  // otherwise a fixed random instance of that size (seeded, so both exact
  // searches solve the identical instance).
  std::vector<AppSchedParams> apps;
  if (n_random == 0) {
    apps = experiments::paper_sched_params(false);
  } else {
    Rng rng(0x5EED5EEDULL);
    apps = experiments::random_sched_params(rng, n_random,
                                            experiments::allocator_ablation_ranges());
  }
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    auto alloc_result = alloc(apps, AllocationOptions{}, 12);
    const auto stop = std::chrono::steady_clock::now();
    state.SetIterationTime(std::chrono::duration<double>(stop - start).count());
    benchmark::DoNotOptimize(alloc_result);
  }
}

void bm_optimal(benchmark::State& state) { time_exact(state, optimal_allocate, 0); }
BENCHMARK(bm_optimal)->UseManualTime()->Unit(benchmark::kNanosecond);

void bm_optimal_reference(benchmark::State& state) {
  time_exact(state, optimal_allocate_reference, 0);
}
BENCHMARK(bm_optimal_reference)->UseManualTime()->Unit(benchmark::kNanosecond);

void bm_optimal_n10(benchmark::State& state) { time_exact(state, optimal_allocate, 10); }
BENCHMARK(bm_optimal_n10)->UseManualTime()->Unit(benchmark::kNanosecond);

void bm_optimal_reference_n10(benchmark::State& state) {
  time_exact(state, optimal_allocate_reference, 10);
}
BENCHMARK(bm_optimal_reference_n10)->UseManualTime()->Unit(benchmark::kNanosecond);

void bm_optimal_n12(benchmark::State& state) { time_exact(state, optimal_allocate, 12); }
BENCHMARK(bm_optimal_n12)->UseManualTime()->Unit(benchmark::kNanosecond);

void bm_optimal_reference_n12(benchmark::State& state) {
  time_exact(state, optimal_allocate_reference, 12);
}
BENCHMARK(bm_optimal_reference_n12)->UseManualTime()->Unit(benchmark::kNanosecond);

}  // namespace

CPS_BENCHMARK_MAIN();
