// Golden-output regression tests for the hot-path analysis kernels.
//
// The dwell/wait sweep, the slot analysis and the exact allocator are
// checked against their frozen implementations in tests/reference/
// (measure_dwell_wait_curve_reference, analyze_slot_reference and the
// max_wait_*_reference helpers, optimal_allocate_reference); these tests
// assert bit-identical results — exact integer step counts, exact double
// bit patterns, exact partitions — on the seed fixtures (servo motor,
// synthesized Table I fleet, published Table I scheduling parameters) and
// on randomized instances.  Any floating-point reordering or search-order
// change in the optimized paths fails loudly here.
#include <gtest/gtest.h>

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "allocation_checks.hpp"
#include "analysis/dwell_wait_model.hpp"
#include "analysis/slot_allocation.hpp"
#include "control/loop_design.hpp"
#include "experiments/fixtures.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "model_families.hpp"
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

/// The same value or both absent, bit for bit.
void expect_same_wait(const std::optional<double>& optimized,
                      const std::optional<double>& reference, const char* which) {
  ASSERT_EQ(optimized.has_value(), reference.has_value()) << which;
  if (optimized) expect_bits(*optimized, *reference, which);
}

/// Counts of what one differential comparison exercised.
struct SlotDiffCounts {
  int compared = 0;   ///< slot analyses compared field by field
  int saturated = 0;  ///< of those, with a member at m >= 1
  int diverged = 0;   ///< inputs on which both sides threw NumericalError
};

/// analyze_slot and the three max_wait helpers against the frozen
/// reference on one slot (any order) under `method`: the same fields bit
/// for bit, or NumericalError from both.
void expect_slot_matches_reference(std::vector<AppSchedParams> slot, MaxWaitMethod method,
                                   SlotDiffCounts& counts) {
  try {
    const SlotAnalysis optimized = analyze_slot(slot, method);
    const SlotAnalysis reference = analyze_slot_reference(slot, method);
    expect_same_analysis(optimized, reference);
    ++counts.compared;
    for (const auto& r : optimized.results)
      if (!r.utilization_feasible) {
        ++counts.saturated;
        break;
      }
  } catch (const NumericalError&) {
    EXPECT_THROW(analyze_slot_reference(slot, method), NumericalError);
    ++counts.diverged;
  }
  sort_by_priority(slot);
  for (std::size_t i = 0; i < slot.size(); ++i) {
    SCOPED_TRACE("index " + std::to_string(i));
    expect_same_wait(max_wait_bound(slot, i), max_wait_bound_reference(slot, i), "bound");
    expect_same_wait(max_wait_lower_bound(slot, i), max_wait_lower_bound_reference(slot, i),
                     "lower bound");
    try {
      const auto fp = max_wait_fixed_point(slot, i);
      expect_same_wait(fp, max_wait_fixed_point_reference(slot, i), "fixed point");
    } catch (const NumericalError&) {
      EXPECT_THROW(max_wait_fixed_point_reference(slot, i), NumericalError);
    }
  }
}

TEST(SlotAnalysisGolden, RandomSlotsAllFamiliesBitIdentical) {
  // Slots of 1..12 applications in all four model families, drawn from
  // light (allocator ablation), wide (bound ablation) and near-saturation
  // ranges; both wait methods.
  Rng rng(0x51075107ULL);
  const experiments::RandomAppRanges ranges[] = {experiments::allocator_ablation_ranges(),
                                                 experiments::bounds_ablation_ranges(),
                                                 near_saturation_ranges()};
  SlotDiffCounts counts;
  for (int trial = 0; trial < 288; ++trial) {
    const int n = 1 + trial % 12;
    const int family = (trial / 12) % 4;
    const auto slot = family_instance(rng, n, family, ranges[(trial / 48) % 3]);
    for (const auto method : {MaxWaitMethod::kClosedFormBound, MaxWaitMethod::kFixedPoint}) {
      SCOPED_TRACE("trial " + std::to_string(trial) + " method " +
                   std::to_string(static_cast<int>(method)));
      expect_slot_matches_reference(slot, method, counts);
    }
  }
  EXPECT_GE(counts.compared, 500);
  EXPECT_GE(counts.saturated, 20) << "too few saturated slots drawn";
}

TEST(SlotAnalysisGolden, NearSaturationFixedPointBitIdentical) {
  // The higher-priority members' inter-arrival times are rescaled so
  // their interference utilization lands just below, at or just above 1:
  // the fixed point then takes many steps, passes its iteration cap
  // (NumericalError from both sides), or the slot saturates.
  constexpr double kGaps[] = {1e-2, 1e-4, 1e-7, 1e-10, 0.0, -1e-3};
  Rng rng(0x5A7u);
  SlotDiffCounts counts;
  for (int trial = 0; trial < 96; ++trial) {
    const int n = 2 + trial % 11;
    auto slot = family_instance(rng, n, (trial / 11) % 4, near_saturation_ranges());
    sort_by_priority(slot);
    const double target = 1.0 - kGaps[trial % 6];
    const double share = target / static_cast<double>(n - 1);
    for (int j = 0; j + 1 < n; ++j) {
      auto& app = slot[static_cast<std::size_t>(j)];
      app.min_inter_arrival = app.model->max_dwell() / share;
    }
    for (const auto method : {MaxWaitMethod::kClosedFormBound, MaxWaitMethod::kFixedPoint}) {
      SCOPED_TRACE("trial " + std::to_string(trial) + " method " +
                   std::to_string(static_cast<int>(method)));
      expect_slot_matches_reference(slot, method, counts);
    }
  }
  EXPECT_GE(counts.saturated, 10) << "too few saturated slots drawn";
  EXPECT_GE(counts.diverged, 5) << "too few diverging fixed points drawn";
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
  // first_fit/best_fit run on the memoized feasibility engine and build
  // their analyses from its facts; every slot must be schedulable and its
  // analysis must equal the frozen analysis of the slot's members.
  Rng rng(0x0DDBA11ULL);
  for (int trial = 0; trial < 40; ++trial) {
    const auto set = experiments::random_sched_params(
        rng, 3 + trial % 8, experiments::allocator_ablation_ranges());
    try {
      for (const auto& alloc : {first_fit_allocate(set), best_fit_allocate(set)}) {
        for (std::size_t s = 0; s < alloc.slot_count(); ++s) {
          EXPECT_TRUE(alloc.analyses[s].all_schedulable);
          std::vector<AppSchedParams> members;
          for (const auto& name : alloc.slots[s])
            for (const auto& app : set)
              if (app.name == name) members.push_back(app);
          ASSERT_EQ(members.size(), alloc.slots[s].size());
          expect_same_analysis(alloc.analyses[s], analyze_slot_reference(members));
        }
      }
    } catch (const InfeasibleError&) {
      // Infeasible even on dedicated slots — nothing to check.
    }
  }
}

}  // namespace
