// Frozen pre-optimization simulation kernels — the golden baselines the
// optimized kernels in src/sim/ are proven bit-identical against
// (tests/sim_golden_test.cpp, tests/analysis_golden_test.cpp) and timed
// against (bench/).  Test-only: they live in the cps_reference library,
// never in the shipped cps library, and use only its public API.
#pragma once

#include <cstddef>
#include <optional>

#include "linalg/vector.hpp"
#include "sim/dwell_wait.hpp"
#include "sim/jitter.hpp"
#include "sim/switched_system.hpp"
#include "util/rng.hpp"

namespace cps::sim {

/// Frozen copy of SwitchedLinearSystem::simulate (one Vector temporary per
/// step through step()/threshold_norm()).
Trajectory simulate_reference(const SwitchedLinearSystem& sys, const linalg::Vector& x0,
                              std::size_t switch_step, std::size_t total_steps,
                              double sampling_period);

/// Frozen copy of JitteryClosedLoop::settle_under_random_delays (one Vector
/// temporary per step through step()).  Draws the same delay sequence from
/// `rng` and returns a bit-identical settling step.
std::optional<std::size_t> settle_under_random_delays_reference(
    const JitteryClosedLoop& loop, const linalg::Vector& z0, double threshold, Rng& rng,
    std::size_t max_steps = kDefaultJitterMaxSteps);

/// The pre-optimization dwell/wait sweep kernel: re-simulates the ET prefix
/// from x0 for every grid point through the naive vector code path.
DwellWaitCurve measure_dwell_wait_curve_reference(const SwitchedLinearSystem& sys,
                                                  const linalg::Vector& x0,
                                                  double sampling_period,
                                                  const DwellWaitSweepOptions& opts);

}  // namespace cps::sim
