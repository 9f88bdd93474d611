// Measurement of the dwell-time-vs-wait-time relation (paper Fig. 3).
//
// For every wait time kwait in [0, xi_et] the simulator evolves the ET
// loop for kwait steps and then counts the TT-mode steps needed to settle
// below E_th.  The resulting curve is the empirical k_dw(k_wait) that the
// analysis layer over-approximates with piecewise-linear envelope models
// (paper Fig. 4).
#pragma once

#include <cstddef>
#include <vector>

#include "sim/settling.hpp"
#include "sim/switched_system.hpp"

namespace cps::sim {

/// One measured point of the curve (both step and second units).
struct DwellWaitPoint {
  std::size_t wait_steps = 0;
  std::size_t dwell_steps = 0;
  double wait_s = 0.0;
  double dwell_s = 0.0;
};

/// The measured curve plus the characteristic values derived from it.
class DwellWaitCurve {
 public:
  DwellWaitCurve(double sampling_period, std::vector<DwellWaitPoint> points);

  const std::vector<DwellWaitPoint>& points() const { return points_; }
  double sampling_period() const { return h_; }
  bool empty() const { return points_.empty(); }

  /// xi^TT: settling time with pure TT communication (= dwell at wait 0) [s].
  double xi_tt() const;

  /// xi^ET: settling time with pure ET communication (= largest measured
  /// wait time; by construction the sweep runs exactly up to it) [s].
  double xi_et() const;

  /// xi^M: maximum dwell time over all wait times [s].
  double xi_m() const;

  /// k_p: (smallest) wait time at which the dwell is maximal [s].
  double k_p() const;

  /// Measured dwell for a given wait expressed in steps.  Throws if the
  /// wait exceeds the sweep range.
  double dwell_at_steps(std::size_t wait_steps) const;

  /// Total response time wait + dwell for a measured point [s].
  double response_at(std::size_t index) const;

  /// True iff the measured curve is non-monotonic (some dwell increase).
  bool is_non_monotonic() const;

 private:
  double h_;
  std::vector<DwellWaitPoint> points_;  // indexed by wait_steps
};

struct DwellWaitSweepOptions {
  SettlingOptions settling;
  /// Cap on the sweep length in steps (guards against ET loops that barely
  /// settle); the sweep normally stops at xi_et.
  std::size_t max_wait_steps = 100000;
};

/// Run the full sweep.  Throws NumericalError when either pure-mode loop
/// fails to settle within the caps (e.g. unstable configurations).
///
/// Incremental kernel: the ET-mode state at wait w is advanced one step
/// from the state at wait w - 1 (instead of re-simulating the w-step
/// prefix from x0 per grid point), and the per-point TT settling runs on
/// reusable buffers.  Both reuse the exact floating-point operation order
/// of the naive kernel, so the curve is bit-identical to the frozen
/// pre-optimization sweep (tests/reference/, the golden baseline of
/// tests/analysis_golden_test.cpp) for every input.
DwellWaitCurve measure_dwell_wait_curve(const SwitchedLinearSystem& sys,
                                        const linalg::Vector& x0, double sampling_period,
                                        const DwellWaitSweepOptions& opts);

}  // namespace cps::sim
