#include "control/discretize.hpp"

#include "linalg/expm.hpp"
#include "linalg/kernels.hpp"
#include "util/error.hpp"

namespace cps::control {

DiscreteSystem::DiscreteSystem(linalg::Matrix phi, linalg::Matrix gamma0, linalg::Matrix gamma1,
                               linalg::Matrix c, double sampling_period, double delay)
    : phi_(std::move(phi)),
      gamma0_(std::move(gamma0)),
      gamma1_(std::move(gamma1)),
      c_(std::move(c)),
      h_(sampling_period),
      d_(delay) {
  CPS_ENSURE(phi_.is_square(), "DiscreteSystem: Phi must be square");
  CPS_ENSURE(gamma0_.rows() == phi_.rows(), "DiscreteSystem: Gamma0 row count mismatch");
  CPS_ENSURE(gamma1_.rows() == phi_.rows(), "DiscreteSystem: Gamma1 row count mismatch");
  CPS_ENSURE(gamma0_.cols() == gamma1_.cols(), "DiscreteSystem: Gamma0/Gamma1 width mismatch");
  CPS_ENSURE(c_.cols() == phi_.rows(), "DiscreteSystem: C column count mismatch");
  CPS_ENSURE(h_ > 0.0, "DiscreteSystem: sampling period must be positive");
  CPS_ENSURE(d_ >= 0.0 && d_ <= h_, "DiscreteSystem: delay must satisfy 0 <= d <= h");
}

bool DiscreteSystem::has_input_delay() const { return gamma1_.max_abs() > 1e-12; }

DiscreteSystem::Augmented DiscreteSystem::augmented() const {
  const std::size_t n = state_dim();
  const std::size_t m = input_dim();
  linalg::Matrix abar(n + m, n + m);
  abar.set_block(0, 0, phi_);
  abar.set_block(0, n, gamma1_);
  linalg::Matrix bbar(n + m, m);
  bbar.set_block(0, 0, gamma0_);
  bbar.set_block(n, 0, linalg::Matrix::identity(m));
  return Augmented{std::move(abar), std::move(bbar)};
}

namespace {

/// Build the delayed model from the (shared) full-period factorization.
/// Phi = e^{Ah}; Gamma0 = int_0^{h-d} e^{As} ds B;
/// Gamma1 = e^{A(h-d)} int_0^d e^{As} ds B.
DiscreteSystem c2d_from_full(const StateSpace& plant, const linalg::ZohPair& full, double h,
                             double d) {
  const linalg::Matrix& a = plant.a();
  const linalg::Matrix& b = plant.b();

  if (d == 0.0) {
    return DiscreteSystem(full.phi, full.gamma, linalg::Matrix::zero(a.rows(), b.cols()),
                          plant.c(), h, d);
  }
  if (d == h) {
    // Full-sample delay (the paper's ET worst case): h - d = 0 makes
    // Gamma0 the zero-length integral and Gamma1 = e^{A*0} * Gamma(h).
    // Both short-circuits reproduce the general path bit-for-bit
    // (zoh_integrals(.., 0) is exactly {I, 0}, and multiplying by I is
    // exact), without refactorizing e^{Ah} a second time.
    return DiscreteSystem(full.phi, linalg::Matrix::zero(a.rows(), b.cols()), full.gamma,
                          plant.c(), h, d);
  }

  const auto [phi_hd, gamma0] = linalg::zoh_integrals(a, b, h - d);
  const auto [phi_d, gamma_d] = linalg::zoh_integrals(a, b, d);
  (void)phi_d;
  linalg::Matrix gamma1;
  linalg::multiply_into(phi_hd, gamma_d, gamma1);
  return DiscreteSystem(full.phi, gamma0, gamma1, plant.c(), h, d);
}

}  // namespace

DiscreteSystem c2d(const StateSpace& plant, double h, double d) {
  CPS_ENSURE(h > 0.0, "c2d: sampling period must be positive");
  CPS_ENSURE(d >= 0.0 && d <= h, "c2d: delay must satisfy 0 <= d <= h");
  const linalg::ZohPair full = linalg::zoh_integrals(plant.a(), plant.b(), h);
  return c2d_from_full(plant, full, h, d);
}

std::pair<DiscreteSystem, DiscreteSystem> c2d_pair(const StateSpace& plant, double h,
                                                   double d_first, double d_second) {
  CPS_ENSURE(h > 0.0, "c2d: sampling period must be positive");
  CPS_ENSURE(d_first >= 0.0 && d_first <= h, "c2d: delay must satisfy 0 <= d <= h");
  CPS_ENSURE(d_second >= 0.0 && d_second <= h, "c2d: delay must satisfy 0 <= d <= h");
  const linalg::ZohPair full = linalg::zoh_integrals(plant.a(), plant.b(), h);
  return {c2d_from_full(plant, full, h, d_first), c2d_from_full(plant, full, h, d_second)};
}

}  // namespace cps::control
