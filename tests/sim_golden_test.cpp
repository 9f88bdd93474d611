// Golden-output regression tests for the PR-3 allocation-free simulation
// kernels, in the style of tests/analysis_golden_test.cpp: each reworked
// per-step loop is checked against its frozen pre-optimization
// implementation in tests/reference/ (sim::simulate_reference,
// sim::settle_under_random_delays_reference,
// analysis::transient_growth*_reference) and these tests assert
// bit-identical results — exact double bit patterns, exact step counts —
// on the servo fixture, the synthesized Table I fleet, and randomized
// stable systems.  Any floating-point reordering in the optimized paths
// fails loudly here.
#include <gtest/gtest.h>

#include <cstddef>

#include "analysis/transient.hpp"
#include "control/loop_design.hpp"
#include "experiments/fixtures.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "plants/servo_motor.hpp"
#include "reference/analysis_reference.hpp"
#include "reference/sim_reference.hpp"
#include "sim/jitter.hpp"
#include "sim/switched_system.hpp"
#include "util/rng.hpp"

namespace {

using namespace cps;

void expect_bit_identical(const sim::Trajectory& optimized, const sim::Trajectory& reference) {
  EXPECT_EQ(optimized.sampling_period(), reference.sampling_period());
  ASSERT_EQ(optimized.length(), reference.length());
  for (std::size_t k = 0; k < optimized.length(); ++k) {
    const auto& a = optimized.at(k);
    const auto& b = reference.at(k);
    EXPECT_EQ(a.mode, b.mode) << "step " << k;
    EXPECT_EQ(a.norm, b.norm) << "step " << k;  // bitwise, not approximate
    ASSERT_EQ(a.state.size(), b.state.size()) << "step " << k;
    for (std::size_t i = 0; i < a.state.size(); ++i)
      EXPECT_EQ(a.state[i], b.state[i]) << "step " << k << " component " << i;
  }
}

TEST(TrajectoryGolden, ServoBitIdentical) {
  const auto design = plants::design_servo_loops();
  const sim::SwitchedLinearSystem sys(design.a_et, design.a_tt, design.state_dim);
  const auto x0 = plants::servo_disturbed_state();
  for (const std::size_t switch_step : {std::size_t{0}, std::size_t{17}, std::size_t{500}}) {
    expect_bit_identical(sys.simulate(x0, switch_step, 400, 0.02),
                         sim::simulate_reference(sys, x0, switch_step, 400, 0.02));
  }
}

TEST(TrajectoryGolden, SynthesizedFleetBitIdentical) {
  for (const auto& app : *experiments::paper_fleet()) {
    const auto design = control::design_hybrid_loops(app.plant, app.spec);
    const sim::SwitchedLinearSystem sys(design.a_et, design.a_tt, design.state_dim);
    const auto x0 = linalg::Vector::concat(app.x0, linalg::Vector::zero(design.input_dim));
    expect_bit_identical(sys.simulate(x0, 25, 600, 0.02),
                         sim::simulate_reference(sys, x0, 25, 600, 0.02));
  }
}

TEST(TrajectoryGolden, RandomSystemsBitIdentical) {
  Rng rng(0x7124AECULL);
  for (int trial = 0; trial < 30; ++trial) {
    // Dimensions 2..8 cross the Vector inline capacity.
    const std::size_t dim = 2 + static_cast<std::size_t>(trial % 7);
    linalg::Matrix a_et(dim, dim), a_tt(dim, dim);
    for (std::size_t r = 0; r < dim; ++r)
      for (std::size_t c = 0; c < dim; ++c) {
        a_et(r, c) = rng.uniform(-1.0, 1.0);
        a_tt(r, c) = rng.uniform(-1.0, 1.0);
      }
    const double et_scale = 0.95 / a_et.norm_inf();
    const double tt_scale = 0.6 / a_tt.norm_inf();
    a_et *= et_scale;
    a_tt *= tt_scale;
    const sim::SwitchedLinearSystem sys(a_et, a_tt, dim > 1 ? dim - 1 : 1);
    linalg::Vector x0(dim);
    for (std::size_t i = 0; i < dim; ++i) x0[i] = rng.uniform(-1.5, 1.5);
    expect_bit_identical(sys.simulate(x0, 11, 200, 0.01),
                         sim::simulate_reference(sys, x0, 11, 200, 0.01));
  }
}

TEST(JitterGolden, SettleBitIdenticalUnderSameDraws) {
  const auto design = plants::design_servo_loops();
  const sim::JitteryClosedLoop loop(plants::make_servo_motor(), 0.02,
                                    {0.0, 0.005, 0.01, 0.015, 0.02}, design.gain_et);
  const auto z0 = plants::servo_disturbed_state();
  for (std::uint64_t seed : {0x1ULL, 0xABCULL, 0xDEADBEEFULL, 0x5EED5EEDULL}) {
    // Identical seeds -> identical delay draws -> the settle step must
    // match exactly (the optimized loop consumes the Rng in the same
    // order as the reference).
    Rng rng_opt(seed);
    Rng rng_ref(seed);
    const auto optimized = loop.settle_under_random_delays(z0, 0.1, rng_opt);
    const auto reference = sim::settle_under_random_delays_reference(loop, z0, 0.1, rng_ref);
    ASSERT_EQ(optimized.has_value(), reference.has_value()) << "seed " << seed;
    if (optimized.has_value()) {
      EXPECT_EQ(*optimized, *reference) << "seed " << seed;
    }
    // The Rng streams must also end in the same state (same number of
    // draws consumed), or campaign-level results would diverge.
    EXPECT_EQ(rng_opt.uniform_int(0, 1 << 30), rng_ref.uniform_int(0, 1 << 30));
  }
}

TEST(JitterGolden, CampaignBitIdentical) {
  const auto design = plants::design_servo_loops();
  const sim::JitteryClosedLoop loop(plants::make_servo_motor(), 0.02,
                                    {0.0, 0.01, 0.02}, design.gain_et);
  const auto z0 = plants::servo_disturbed_state();
  Rng rng_a(0xCA3Full);
  Rng rng_b(0xCA3Full);
  const auto campaign = sim::run_jitter_campaign(loop, z0, 0.1, 0.02, 50, rng_a);
  // Replicate the campaign through the reference settle kernel.
  std::size_t settled = 0;
  double sum = 0.0;
  for (std::size_t r = 0; r < 50; ++r) {
    const auto settle = sim::settle_under_random_delays_reference(loop, z0, 0.1, rng_b);
    if (!settle.has_value()) continue;
    ++settled;
    sum += static_cast<double>(*settle) * 0.02;
  }
  EXPECT_EQ(campaign.settled_runs, settled);
  if (settled > 0) {
    EXPECT_EQ(campaign.mean_settle_s, sum / static_cast<double>(settled));  // bitwise
  }
}

TEST(TransientGolden, EnvelopeBitIdentical) {
  const auto design = plants::design_servo_loops();
  for (const auto* a : {&design.a_et, &design.a_tt}) {
    const auto optimized = analysis::transient_growth(*a);
    const auto reference = analysis::transient_growth_reference(*a);
    EXPECT_EQ(optimized.peak_gain, reference.peak_gain);  // bitwise
    EXPECT_EQ(optimized.peak_step, reference.peak_step);
    EXPECT_EQ(optimized.growing, reference.growing);

    const auto opt_restricted = analysis::transient_growth_restricted(*a, design.state_dim);
    const auto ref_restricted =
        analysis::transient_growth_restricted_reference(*a, design.state_dim);
    EXPECT_EQ(opt_restricted.peak_gain, ref_restricted.peak_gain);
    EXPECT_EQ(opt_restricted.peak_step, ref_restricted.peak_step);
    EXPECT_EQ(opt_restricted.growing, ref_restricted.growing);
  }
}

TEST(TransientGolden, FleetEnvelopesBitIdentical) {
  for (const auto& app : *experiments::paper_fleet()) {
    const auto design = control::design_hybrid_loops(app.plant, app.spec);
    const auto optimized = analysis::transient_growth(design.a_et);
    const auto reference = analysis::transient_growth_reference(design.a_et);
    EXPECT_EQ(optimized.peak_gain, reference.peak_gain);
    EXPECT_EQ(optimized.peak_step, reference.peak_step);
  }
}

}  // namespace
