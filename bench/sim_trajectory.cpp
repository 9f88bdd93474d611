// Microbenchmarks for the per-step simulation kernels reworked in the
// allocation-free linalg pass: switched-system trajectory recording
// (sim/switched_system.cpp), the random-delay jitter settle loop
// (sim/jitter.cpp), and the matrix-power transient envelope
// (analysis/transient.cpp).  Each optimized kernel is timed next to its
// frozen pre-optimization *_reference twin from tests/reference/ (same FP
// order, bit-identical outputs — tests/sim_golden_test.cpp), so the
// committed JSON snapshot records the in-place-kernel speedup on
// identical work.
#include "bench_common.hpp"

#include "analysis/transient.hpp"
#include "plants/servo_motor.hpp"
#include "reference/analysis_reference.hpp"
#include "reference/sim_reference.hpp"
#include "sim/jitter.hpp"
#include "sim/switched_system.hpp"
#include "util/rng.hpp"

namespace {

using namespace cps;

/// Servo two-mode system of Fig. 3: the trajectory everyone simulates.
struct ServoSetup {
  ServoSetup()
      : design(plants::design_servo_loops()),
        sys(design.a_et, design.a_tt, design.state_dim),
        x0(plants::servo_disturbed_state()) {}
  control::HybridLoopDesign design;
  sim::SwitchedLinearSystem sys;
  linalg::Vector x0;
  static constexpr std::size_t kSwitchStep = 40;
  static constexpr std::size_t kTotalSteps = 2000;
};

void bm_trajectory_simulate(benchmark::State& state) {
  const ServoSetup setup;
  for (auto _ : state) {
    auto traj = setup.sys.simulate(setup.x0, ServoSetup::kSwitchStep, ServoSetup::kTotalSteps,
                                   0.02);
    benchmark::DoNotOptimize(traj);
  }
}
BENCHMARK(bm_trajectory_simulate)->Unit(benchmark::kNanosecond);

void bm_trajectory_simulate_reference(benchmark::State& state) {
  const ServoSetup setup;
  for (auto _ : state) {
    auto traj = sim::simulate_reference(setup.sys, setup.x0, ServoSetup::kSwitchStep,
                                             ServoSetup::kTotalSteps, 0.02);
    benchmark::DoNotOptimize(traj);
  }
}
BENCHMARK(bm_trajectory_simulate_reference)->Unit(benchmark::kNanosecond);

/// Jitter settle loop on the servo ET design (the kernel
/// run_jitter_campaign spins per run).
struct JitterSetup {
  JitterSetup()
      : design(plants::design_servo_loops()),
        loop(plants::make_servo_motor(), 0.02, {0.0, 0.005, 0.01, 0.015, 0.02},
             design.gain_et),
        z0(plants::servo_disturbed_state()) {}
  control::HybridLoopDesign design;
  sim::JitteryClosedLoop loop;
  linalg::Vector z0;
};

void bm_jitter_settle(benchmark::State& state) {
  const JitterSetup setup;
  Rng rng(0x5EED5EEDULL);
  for (auto _ : state) {
    auto settle = setup.loop.settle_under_random_delays(setup.z0, 0.1, rng);
    benchmark::DoNotOptimize(settle);
  }
}
BENCHMARK(bm_jitter_settle)->Unit(benchmark::kNanosecond);

void bm_jitter_settle_reference(benchmark::State& state) {
  const JitterSetup setup;
  Rng rng(0x5EED5EEDULL);
  for (auto _ : state) {
    auto settle = sim::settle_under_random_delays_reference(setup.loop, setup.z0, 0.1, rng);
    benchmark::DoNotOptimize(settle);
  }
}
BENCHMARK(bm_jitter_settle_reference)->Unit(benchmark::kNanosecond);

void bm_transient_growth_kernel(benchmark::State& state) {
  const ServoSetup setup;
  for (auto _ : state) {
    auto growth = analysis::transient_growth(setup.design.a_et);
    benchmark::DoNotOptimize(growth);
  }
}
BENCHMARK(bm_transient_growth_kernel)->Unit(benchmark::kNanosecond);

void bm_transient_growth_kernel_reference(benchmark::State& state) {
  const ServoSetup setup;
  for (auto _ : state) {
    auto growth = analysis::transient_growth_reference(setup.design.a_et);
    benchmark::DoNotOptimize(growth);
  }
}
BENCHMARK(bm_transient_growth_kernel_reference)->Unit(benchmark::kNanosecond);

}  // namespace

CPS_BENCHMARK_MAIN();
