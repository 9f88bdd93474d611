#include "sim/dwell_wait.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"

namespace cps::sim {

DwellWaitCurve::DwellWaitCurve(double sampling_period, std::vector<DwellWaitPoint> points)
    : h_(sampling_period), points_(std::move(points)) {
  CPS_ENSURE(h_ > 0.0, "DwellWaitCurve: sampling period must be positive");
  CPS_ENSURE(!points_.empty(), "DwellWaitCurve: need at least one point");
  for (std::size_t i = 0; i < points_.size(); ++i)
    CPS_ENSURE(points_[i].wait_steps == i, "DwellWaitCurve: points must be dense in wait steps");
}

double DwellWaitCurve::xi_tt() const { return points_.front().dwell_s; }

double DwellWaitCurve::xi_et() const { return points_.back().wait_s; }

double DwellWaitCurve::xi_m() const {
  double best = 0.0;
  for (const auto& p : points_) best = std::max(best, p.dwell_s);
  return best;
}

double DwellWaitCurve::k_p() const {
  std::size_t best_index = 0;
  double best = -1.0;
  for (std::size_t i = 0; i < points_.size(); ++i) {
    if (points_[i].dwell_s > best) {
      best = points_[i].dwell_s;
      best_index = i;
    }
  }
  return points_[best_index].wait_s;
}

double DwellWaitCurve::dwell_at_steps(std::size_t wait_steps) const {
  CPS_ENSURE(wait_steps < points_.size(), "DwellWaitCurve: wait beyond sweep range");
  return points_[wait_steps].dwell_s;
}

double DwellWaitCurve::response_at(std::size_t index) const {
  CPS_ENSURE(index < points_.size(), "DwellWaitCurve: index out of range");
  return points_[index].wait_s + points_[index].dwell_s;
}

bool DwellWaitCurve::is_non_monotonic() const {
  for (std::size_t i = 1; i < points_.size(); ++i)
    if (points_[i].dwell_steps > points_[i - 1].dwell_steps) return true;
  return false;
}

DwellWaitCurve measure_dwell_wait_curve(const SwitchedLinearSystem& sys,
                                        const linalg::Vector& x0, double sampling_period,
                                        const DwellWaitSweepOptions& opts) {
  CPS_ENSURE(sampling_period > 0.0, "measure_dwell_wait_curve: h must be positive");
  CPS_ENSURE(x0.size() == sys.dimension(), "measure_dwell_wait_curve: x0 dimension mismatch");

  // Pure-ET settling bounds the sweep: waiting longer than xi_et means the
  // disturbance was already rejected without ever using the TT slot.
  const auto et_settle = settling_step(sys.a_et(), x0, sys.norm_dim(), opts.settling);
  if (!et_settle.has_value())
    throw NumericalError("dwell/wait sweep: ET loop did not settle within the cap");
  const std::size_t sweep_end = std::min(*et_settle, opts.max_wait_steps);

  // Incremental batched sweep: the ET prefix state A1^w x0 is carried from
  // grid point to grid point (one scalar matvec per point instead of w),
  // and consecutive wait points are gathered linalg::kSimdWidth at a time
  // into SoA lane buffers, whose TT settles then advance in lockstep
  // (detail::settle_batch) with per-lane early exit.  Each lane runs the
  // exact floating-point operations of the scalar settle in the same
  // order, so the curve is bit-identical to the frozen naive sweep — and
  // independent of the group boundaries — for every input.  Ragged tails
  // and single-point sweeps take the scalar settle (the odd-shape
  // fallback).
  constexpr std::size_t W = linalg::kSimdWidth;
  std::vector<double> et_state = x0.to_std_vector();  // A1^w x0 for the current w
  std::vector<double> tt_state;                       // settle scratch: clobbered per point
  std::vector<double> scratch;
  const std::size_t dim = sys.dimension();
  linalg::BatchVec batch_state(dim);
  linalg::BatchVec batch_scratch(dim);

  std::vector<DwellWaitPoint> points;
  points.reserve(sweep_end + 1);
  const auto push_point = [&](std::size_t w, std::size_t dwell) {
    DwellWaitPoint p;
    p.wait_steps = w;
    p.dwell_steps = dwell;
    p.wait_s = static_cast<double>(w) * sampling_period;
    p.dwell_s = static_cast<double>(dwell) * sampling_period;
    points.push_back(p);
  };

  std::size_t w = 0;
  std::optional<std::size_t> dwells[W];
  while (w <= sweep_end) {
    const std::size_t group = std::min(W, sweep_end - w + 1);
    if (group == 1) {
      // Scalar fallback for the one-lane tail (also the whole sweep when
      // it has a single point).
      tt_state = et_state;
      dwells[0] =
          detail::settle_in_place(sys.a_tt(), tt_state, scratch, sys.norm_dim(), opts.settling);
    } else {
      // Lane l holds A1^{w+l} x0: gather the current prefix state, then
      // advance it scalar — the prefix chain stays the carried recurrence.
      for (std::size_t l = 0; l < group; ++l) {
        batch_state.load_lane(l, et_state.data());
        if (w + l < sweep_end) {
          detail::apply_into(sys.a_et(), et_state, scratch);
          et_state.swap(scratch);
        }
      }
      detail::settle_batch(sys.a_tt(), batch_state, batch_scratch,
                           sys.norm_dim(), opts.settling, group, dwells);
    }
    for (std::size_t l = 0; l < group; ++l) {
      if (!dwells[l].has_value())
        throw NumericalError("dwell/wait sweep: TT loop did not settle within the cap");
      push_point(w + l, *dwells[l]);
    }
    w += group;
  }
  return DwellWaitCurve(sampling_period, std::move(points));
}

}  // namespace cps::sim
