#include "reference/sim_reference.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace cps::sim {

Trajectory simulate_reference(const SwitchedLinearSystem& sys, const linalg::Vector& x0,
                              std::size_t switch_step, std::size_t total_steps,
                              double sampling_period) {
  // Frozen pre-optimization kernel: one full Vector temporary per step
  // through step()/operator*.  Kept verbatim as the golden baseline.
  CPS_ENSURE(x0.size() == sys.dimension(), "simulate: x0 dimension mismatch");
  std::vector<Sample> samples;
  samples.reserve(total_steps + 1);

  linalg::Vector x = x0;
  for (std::size_t k = 0; k <= total_steps; ++k) {
    const Mode mode = k < switch_step ? Mode::kEventTriggered : Mode::kTimeTriggered;
    samples.push_back(Sample{x, sys.threshold_norm(x), mode});
    if (k == total_steps) break;
    x = sys.step(x, mode);
  }
  return Trajectory(sampling_period, std::move(samples));
}

std::optional<std::size_t> settle_under_random_delays_reference(
    const JitteryClosedLoop& loop, const linalg::Vector& z0, double threshold, Rng& rng,
    std::size_t max_steps) {
  // Frozen pre-optimization kernel: one Vector temporary per step through
  // step()/operator*.  Kept verbatim as the golden baseline.
  CPS_ENSURE(z0.size() == loop.loop_matrix(0).rows(), "settle: z0 dimension mismatch");
  CPS_ENSURE(threshold > 0.0, "settle: threshold must be positive");

  const std::size_t n = loop.state_dim();
  auto norm_of = [&](const linalg::Vector& z) {
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) acc += z[i] * z[i];
    return std::sqrt(acc);
  };

  linalg::Vector z = z0;
  std::size_t last_violation = 0;
  bool ever_violated = false;
  const double stop_level = threshold * 1e-3;
  for (std::size_t k = 0; k <= max_steps; ++k) {
    const double norm = norm_of(z);
    if (!std::isfinite(norm)) return std::nullopt;
    if (norm > threshold) {
      last_violation = k;
      ever_violated = true;
    } else if (norm <= stop_level) {
      return ever_violated ? last_violation + 1 : 0;
    }
    const std::size_t pick =
        static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(loop.delay_count()) - 1));
    z = loop.step(z, pick);
  }
  return std::nullopt;
}

namespace {

/// Verbatim copy of the seed's settle loop (linalg::Vector arithmetic,
/// one allocation per step) — the baseline the golden tests compare
/// against.
std::optional<std::size_t> settle_under_reference(const linalg::Matrix& a, linalg::Vector x,
                                                  std::size_t norm_dim,
                                                  const SettlingOptions& opts) {
  const double stop_level = opts.threshold * opts.decay_margin;
  std::size_t last_violation = 0;
  bool ever_violated = false;
  for (std::size_t k = 0; k <= opts.max_steps; ++k) {
    double acc = 0.0;
    for (std::size_t i = 0; i < norm_dim; ++i) acc += x[i] * x[i];
    const double norm = std::sqrt(acc);
    if (!std::isfinite(norm)) return std::nullopt;
    if (norm > opts.threshold) {
      last_violation = k;
      ever_violated = true;
    } else if (norm <= stop_level) {
      return ever_violated ? last_violation + 1 : 0;
    }
    x = a * x;
  }
  return std::nullopt;
}

}  // namespace

DwellWaitCurve measure_dwell_wait_curve_reference(const SwitchedLinearSystem& sys,
                                                  const linalg::Vector& x0,
                                                  double sampling_period,
                                                  const DwellWaitSweepOptions& opts) {
  CPS_ENSURE(sampling_period > 0.0, "measure_dwell_wait_curve: h must be positive");
  CPS_ENSURE(x0.size() == sys.dimension(), "measure_dwell_wait_curve: x0 dimension mismatch");

  const auto et_settle = settle_under_reference(sys.a_et(), x0, sys.norm_dim(), opts.settling);
  if (!et_settle.has_value())
    throw NumericalError("dwell/wait sweep: ET loop did not settle within the cap");
  const std::size_t sweep_end = std::min(*et_settle, opts.max_wait_steps);

  std::vector<DwellWaitPoint> points;
  points.reserve(sweep_end + 1);
  for (std::size_t w = 0; w <= sweep_end; ++w) {
    // O(w) prefix re-simulation per grid point: the cost the incremental
    // kernel removes.
    linalg::Vector x = x0;
    for (std::size_t k = 0; k < w; ++k) x = sys.step(x, Mode::kEventTriggered);
    const auto dwell = settle_under_reference(sys.a_tt(), x, sys.norm_dim(), opts.settling);
    if (!dwell.has_value())
      throw NumericalError("dwell/wait sweep: TT loop did not settle within the cap");
    DwellWaitPoint p;
    p.wait_steps = w;
    p.dwell_steps = *dwell;
    p.wait_s = static_cast<double>(w) * sampling_period;
    p.dwell_s = static_cast<double>(*dwell) * sampling_period;
    points.push_back(p);
  }
  return DwellWaitCurve(sampling_period, std::move(points));
}

}  // namespace cps::sim
