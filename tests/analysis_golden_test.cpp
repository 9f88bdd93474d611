// Golden-output regression tests for the PR-2 hot-path optimizations.
//
// Both optimized kernels are checked against their frozen
// pre-optimization implementations in tests/reference/
// (measure_dwell_wait_curve_reference, optimal_allocate_reference); these
// tests assert bit-identical results —
// exact integer step counts, exact double bit patterns, exact partitions —
// on the seed fixtures (servo motor, synthesized Table I fleet, published
// Table I scheduling parameters) and on randomized instances.  Any
// floating-point reordering or search-order change in the optimized paths
// fails loudly here.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "analysis/slot_allocation.hpp"
#include "control/loop_design.hpp"
#include "experiments/fixtures.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "plants/servo_motor.hpp"
#include "plants/table1.hpp"
#include "reference/analysis_reference.hpp"
#include "reference/sim_reference.hpp"
#include "sim/dwell_wait.hpp"
#include "sim/switched_system.hpp"
#include "util/rng.hpp"

namespace {

using namespace cps;
using namespace cps::analysis;

void expect_bit_identical(const sim::DwellWaitCurve& optimized,
                          const sim::DwellWaitCurve& reference) {
  EXPECT_EQ(optimized.sampling_period(), reference.sampling_period());
  ASSERT_EQ(optimized.points().size(), reference.points().size());
  for (std::size_t i = 0; i < optimized.points().size(); ++i) {
    const auto& a = optimized.points()[i];
    const auto& b = reference.points()[i];
    EXPECT_EQ(a.wait_steps, b.wait_steps) << "point " << i;
    EXPECT_EQ(a.dwell_steps, b.dwell_steps) << "point " << i;
    // Bitwise equality, not approximate: the incremental kernel promises
    // the identical floating-point op order.
    EXPECT_EQ(a.wait_s, b.wait_s) << "point " << i;
    EXPECT_EQ(a.dwell_s, b.dwell_s) << "point " << i;
  }
}

TEST(DwellWaitGolden, ServoCurveBitIdentical) {
  const auto design = plants::design_servo_loops();
  const plants::ServoExperiment exp;
  const sim::SwitchedLinearSystem sys(design.a_et, design.a_tt, design.state_dim);
  sim::DwellWaitSweepOptions opts;
  opts.settling.threshold = exp.threshold;
  const auto x0 = plants::servo_disturbed_state(exp);

  const auto optimized = sim::measure_dwell_wait_curve(sys, x0, exp.sampling_period, opts);
  const auto reference =
      sim::measure_dwell_wait_curve_reference(sys, x0, exp.sampling_period, opts);
  expect_bit_identical(optimized, reference);
  EXPECT_TRUE(optimized.is_non_monotonic());  // still the Fig. 3 shape
}

TEST(DwellWaitGolden, SynthesizedFleetBitIdentical) {
  for (const auto& app : *experiments::paper_fleet()) {
    const auto design = control::design_hybrid_loops(app.plant, app.spec);
    const sim::SwitchedLinearSystem sys(design.a_et, design.a_tt, design.state_dim);
    sim::DwellWaitSweepOptions opts;
    opts.settling.threshold = app.threshold;
    const auto x0 = linalg::Vector::concat(app.x0, linalg::Vector::zero(design.input_dim));
    const double h = design.sys_tt.sampling_period();

    const auto optimized = sim::measure_dwell_wait_curve(sys, x0, h, opts);
    const auto reference = sim::measure_dwell_wait_curve_reference(sys, x0, h, opts);
    expect_bit_identical(optimized, reference);
  }
}

TEST(DwellWaitGolden, RandomStableSystemsBitIdentical) {
  Rng rng(0xD0D0F00DULL);
  int measured = 0;
  for (int trial = 0; trial < 40; ++trial) {
    // Random 3x3 pair scaled to spectral-radius proxies < 1 (infinity
    // norm), the ET loop slower than the TT loop so a sweep exists.
    linalg::Matrix a_et(3, 3), a_tt(3, 3);
    for (std::size_t r = 0; r < 3; ++r)
      for (std::size_t c = 0; c < 3; ++c) {
        a_et(r, c) = rng.uniform(-1.0, 1.0);
        a_tt(r, c) = rng.uniform(-1.0, 1.0);
      }
    const double et_scale = rng.uniform(0.90, 0.985) / a_et.norm_inf();
    const double tt_scale = rng.uniform(0.3, 0.8) / a_tt.norm_inf();
    for (std::size_t r = 0; r < 3; ++r)
      for (std::size_t c = 0; c < 3; ++c) {
        a_et(r, c) *= et_scale;
        a_tt(r, c) *= tt_scale;
      }
    const sim::SwitchedLinearSystem sys(a_et, a_tt, 2);
    const linalg::Vector x0{rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0),
                            rng.uniform(-0.5, 0.5)};
    sim::DwellWaitSweepOptions opts;
    opts.settling.threshold = 0.1;
    try {
      const auto optimized = sim::measure_dwell_wait_curve(sys, x0, 0.02, opts);
      const auto reference = sim::measure_dwell_wait_curve_reference(sys, x0, 0.02, opts);
      expect_bit_identical(optimized, reference);
      ++measured;
    } catch (const NumericalError&) {
      // Non-settling draw: both kernels must agree on the failure too.
      EXPECT_THROW(sim::measure_dwell_wait_curve_reference(sys, x0, 0.02, opts),
                   NumericalError);
    }
  }
  EXPECT_GE(measured, 10) << "random-system generator produced too few settling draws";
}

void expect_same_allocation(const Allocation& optimized, const Allocation& reference) {
  ASSERT_EQ(optimized.slot_count(), reference.slot_count());
  EXPECT_EQ(optimized.slots, reference.slots);  // same apps, same slots, same order
  ASSERT_EQ(optimized.analyses.size(), reference.analyses.size());
  for (std::size_t s = 0; s < optimized.analyses.size(); ++s) {
    const auto& a = optimized.analyses[s];
    const auto& b = reference.analyses[s];
    EXPECT_EQ(a.all_schedulable, b.all_schedulable);
    ASSERT_EQ(a.results.size(), b.results.size());
    for (std::size_t i = 0; i < a.results.size(); ++i) {
      EXPECT_EQ(a.results[i].name, b.results[i].name);
      EXPECT_EQ(a.results[i].max_wait, b.results[i].max_wait);    // bitwise
      EXPECT_EQ(a.results[i].response, b.results[i].response);    // bitwise
      EXPECT_EQ(a.results[i].schedulable, b.results[i].schedulable);
    }
  }
}

TEST(AllocatorGolden, PaperTableIBitIdentical) {
  for (const bool monotonic : {false, true}) {
    const auto apps = experiments::paper_sched_params(monotonic);
    for (const auto method : {MaxWaitMethod::kClosedFormBound, MaxWaitMethod::kFixedPoint}) {
      AllocationOptions options;
      options.method = method;
      expect_same_allocation(optimal_allocate(apps, options),
                             optimal_allocate_reference(apps, options));
    }
  }
}

TEST(AllocatorGolden, RandomInstancesBitIdentical) {
  Rng rng(0xA110CA7EULL);
  int compared = 0;
  for (int trial = 0; trial < 120; ++trial) {
    const int n = 3 + trial % 10;  // sizes 3..12
    const auto set =
        experiments::random_sched_params(rng, n, experiments::allocator_ablation_ranges());
    try {
      const Allocation optimized = optimal_allocate(set);
      const Allocation reference = optimal_allocate_reference(set);
      expect_same_allocation(optimized, reference);
      ++compared;
    } catch (const InfeasibleError&) {
      EXPECT_THROW(optimal_allocate_reference(set), InfeasibleError);
    }
  }
  EXPECT_GE(compared, 60);
}

TEST(AllocatorGolden, FixedPointMethodRandomInstances) {
  Rng rng(0xBEEFCAFEULL);
  for (int trial = 0; trial < 30; ++trial) {
    const int n = 3 + trial % 6;  // sizes 3..8
    const auto set =
        experiments::random_sched_params(rng, n, experiments::bounds_ablation_ranges());
    AllocationOptions options;
    options.method = MaxWaitMethod::kFixedPoint;
    try {
      expect_same_allocation(optimal_allocate(set, options),
                             optimal_allocate_reference(set, options));
    } catch (const InfeasibleError&) {
      EXPECT_THROW(optimal_allocate_reference(set, options), InfeasibleError);
    }
  }
}

TEST(AllocatorGolden, HeuristicsStillProduceSchedulableSlots) {
  // first_fit/best_fit now run on the memoized feasibility engine; their
  // verdicts must still agree with the full per-slot analysis.
  Rng rng(0x0DDBA11ULL);
  for (int trial = 0; trial < 40; ++trial) {
    const auto set = experiments::random_sched_params(
        rng, 3 + trial % 8, experiments::allocator_ablation_ranges());
    try {
      for (const auto& alloc : {first_fit_allocate(set), best_fit_allocate(set)}) {
        for (const auto& analysis : alloc.analyses) EXPECT_TRUE(analysis.all_schedulable);
      }
    } catch (const InfeasibleError&) {
      // Infeasible even on dedicated slots — nothing to check.
    }
  }
}

}  // namespace
