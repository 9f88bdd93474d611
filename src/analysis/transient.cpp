#include "analysis/transient.hpp"

#include <algorithm>

#include "linalg/eigen.hpp"
#include "linalg/kernels.hpp"
#include "linalg/svd.hpp"
#include "util/error.hpp"

namespace cps::analysis {

TransientGrowth transient_growth(const linalg::Matrix& a, const TransientGrowthOptions& opts) {
  CPS_ENSURE(a.is_square(), "transient_growth: matrix must be square");
  if (!linalg::is_schur_stable(a, 0.0))
    throw NumericalError("transient_growth: loop is not Schur stable");

  // power = A^k evolves on two buffers (multiply_into + swap), same FP
  // order as the power = power * a recursion of the frozen reference.
  TransientGrowth out;
  linalg::Matrix power = linalg::Matrix::identity(a.rows());
  linalg::Matrix scratch;
  for (std::size_t k = 1; k <= opts.max_steps; ++k) {
    linalg::multiply_into(power, a, scratch);
    power.swap(scratch);
    const double gain = linalg::norm_two(power);
    if (gain > out.peak_gain) {
      out.peak_gain = gain;
      out.peak_step = k;
    }
    if (gain < opts.decay_stop * out.peak_gain) break;
  }
  out.growing = out.peak_gain > 1.0 + opts.tol;
  return out;
}

TransientGrowth transient_growth_restricted(const linalg::Matrix& a, std::size_t norm_dim,
                                            const TransientGrowthOptions& opts) {
  CPS_ENSURE(a.is_square(), "transient_growth_restricted: matrix must be square");
  CPS_ENSURE(norm_dim >= 1 && norm_dim <= a.rows(),
             "transient_growth_restricted: norm_dim out of range");
  if (!linalg::is_schur_stable(a, 0.0))
    throw NumericalError("transient_growth_restricted: loop is not Schur stable");

  TransientGrowth out;
  linalg::Matrix power = linalg::Matrix::identity(a.rows());
  linalg::Matrix scratch;
  double running_full = 1.0;
  for (std::size_t k = 1; k <= opts.max_steps; ++k) {
    linalg::multiply_into(power, a, scratch);
    power.swap(scratch);
    const double gain = linalg::norm_two(power.block(0, 0, norm_dim, norm_dim));
    if (gain > out.peak_gain) {
      out.peak_gain = gain;
      out.peak_step = k;
    }
    // Stop on decay of the FULL power (the restricted block can pass
    // through zero while energy hides in the remaining coordinates).
    const double full = linalg::norm_two(power);
    running_full = std::max(running_full, full);
    if (full < opts.decay_stop * running_full) break;
  }
  out.growing = out.peak_gain > 1.0 + opts.tol;
  return out;
}

double excursion_bound(const TransientGrowth& growth, double threshold,
                       double release_factor) {
  CPS_ENSURE(threshold > 0.0, "excursion_bound: threshold must be positive");
  CPS_ENSURE(release_factor > 0.0 && release_factor <= 1.0,
             "excursion_bound: release factor must be in (0, 1]");
  return growth.peak_gain * release_factor * threshold;
}

double chatter_free_release_factor(const linalg::Matrix& a_et,
                                   const TransientGrowthOptions& opts) {
  const TransientGrowth growth = transient_growth(a_et, opts);
  return std::min(1.0, 1.0 / growth.peak_gain);
}

}  // namespace cps::analysis
