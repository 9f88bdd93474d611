// Microbenchmarks for the batched SIMD kernel layer
// (linalg/batch_kernels.hpp): the batched settle next to the scalar settle
// it replaces, plus the scalar expm / c2d_pair kernels every loop design
// runs, on the servo fixtures every other bench uses.  The batched
// variant runs kSimdWidth lanes per call and reports MANUAL time divided
// by the lane count, so every number is ns PER PROBLEM INSTANCE and the
// scalar/batch pair compares directly (bit-identical outputs per lane —
// tests/linalg_simd_batch_test.cpp).
#include "bench_common.hpp"

#include <chrono>
#include <optional>
#include <vector>

#include "control/discretize.hpp"
#include "linalg/batch_kernels.hpp"
#include "linalg/expm.hpp"
#include "plants/servo_motor.hpp"
#include "sim/settling.hpp"

namespace {

using namespace cps;

constexpr std::size_t kLanes = linalg::kSimdWidth;

/// One iteration's manual time, per lane.
template <typename F>
void time_per_lane(benchmark::State& state, F&& body) {
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    body();
    const auto stop = std::chrono::steady_clock::now();
    state.SetIterationTime(std::chrono::duration<double>(stop - start).count() /
                           static_cast<double>(kLanes));
  }
}

/// The servo plant's A scaled to one sampling period — the expm argument
/// of every c2d in the campaign.
linalg::Matrix servo_ah() {
  const auto plant = plants::make_servo_motor();
  return plant.a() * 0.02;
}

void bm_expm_scalar(benchmark::State& state) {
  const linalg::Matrix ah = servo_ah();
  for (auto _ : state) {
    auto phi = linalg::expm(ah);
    benchmark::DoNotOptimize(phi);
  }
}
BENCHMARK(bm_expm_scalar)->Unit(benchmark::kNanosecond);

void bm_c2d_pair_scalar(benchmark::State& state) {
  const auto plant = plants::make_servo_motor();
  for (auto _ : state) {
    auto pair = control::c2d_pair(plant, 0.02, 0.0, 0.02);
    benchmark::DoNotOptimize(pair);
  }
}
BENCHMARK(bm_c2d_pair_scalar)->Unit(benchmark::kNanosecond);

void bm_settle_scalar(benchmark::State& state) {
  const auto design = plants::design_servo_loops();
  sim::SettlingOptions opts;
  opts.threshold = 1e-12;  // unreachable: both variants run to the cap,
  opts.max_steps = 2000;   // timing equal per-lane step counts
  const std::size_t dim = design.a_tt.rows();
  std::vector<double> x0(dim, 1.0), s, sc;
  for (auto _ : state) {
    s = x0;
    auto settle = sim::detail::settle_in_place(design.a_tt, s, sc, design.state_dim, opts);
    benchmark::DoNotOptimize(settle);
  }
}
BENCHMARK(bm_settle_scalar)->Unit(benchmark::kNanosecond);

void bm_settle_batch(benchmark::State& state) {
  const auto design = plants::design_servo_loops();
  sim::SettlingOptions opts;
  opts.threshold = 1e-12;
  opts.max_steps = 2000;
  const std::size_t dim = design.a_tt.rows();
  std::vector<double> x0(dim, 1.0);
  linalg::BatchVec st(dim), scratch(dim);
  std::optional<std::size_t> results[kLanes];
  time_per_lane(state, [&] {
    for (std::size_t l = 0; l < kLanes; ++l) st.load_lane(l, x0.data());
    sim::detail::settle_batch(design.a_tt, st, scratch, design.state_dim, opts, kLanes,
                              results);
    benchmark::DoNotOptimize(results);
  });
}
BENCHMARK(bm_settle_batch)->Unit(benchmark::kNanosecond)->UseManualTime();

}  // namespace

CPS_BENCHMARK_MAIN();
