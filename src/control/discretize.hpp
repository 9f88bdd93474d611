// Sampled-data model of a continuous plant with a constant sensor-to-
// actuator delay, in the form used by the paper (Eq. 1):
//
//   x[k+1] = Phi x[k] + Gamma0 u[k] + Gamma1 u[k-1],
//   y[k]   = C x[k].
//
// Within the sampling interval [t_k, t_k + h) the actuator holds the
// previous input u[k-1] for the first d seconds (the delay) and the fresh
// input u[k] afterwards (Astrom & Wittenmark, "Computer-Controlled
// Systems", Sec. 3.2):
//
//   Phi    = e^{A h}
//   Gamma1 = e^{A(h-d)} * Integral_0^d     e^{A s} ds * B
//   Gamma0 =              Integral_0^{h-d} e^{A s} ds * B
//
// d = 0 recovers plain zero-order-hold discretization (Gamma1 = 0); d = h
// models a full-sample worst-case delay (Gamma0 = 0), the paper's ET case.
#pragma once

#include <cstddef>
#include <utility>

#include "control/state_space.hpp"
#include "linalg/matrix.hpp"

namespace cps::control {

/// Discrete-time plant with one-sample input-delay split (paper Eq. 1).
class DiscreteSystem {
 public:
  DiscreteSystem(linalg::Matrix phi, linalg::Matrix gamma0, linalg::Matrix gamma1,
                 linalg::Matrix c, double sampling_period, double delay);

  const linalg::Matrix& phi() const { return phi_; }
  const linalg::Matrix& gamma0() const { return gamma0_; }
  const linalg::Matrix& gamma1() const { return gamma1_; }
  const linalg::Matrix& c() const { return c_; }

  /// Total input matrix Gamma0 + Gamma1 (the ZOH Gamma when delay = 0).
  linalg::Matrix gamma_total() const { return gamma0_ + gamma1_; }

  double sampling_period() const { return h_; }
  double delay() const { return d_; }

  std::size_t state_dim() const { return phi_.rows(); }
  std::size_t input_dim() const { return gamma0_.cols(); }
  std::size_t output_dim() const { return c_.rows(); }

  /// True when Gamma1 is (numerically) zero, i.e. no inter-sample delay
  /// coupling and plain state feedback suffices.
  bool has_input_delay() const;

  /// Augmented realization on z[k] = [x[k]; u[k-1]]:
  ///   z[k+1] = Abar z[k] + Bbar u[k]
  ///   Abar = [Phi    Gamma1]   Bbar = [Gamma0]
  ///          [0      0     ]          [I     ]
  /// This is the standard device for designing state feedback under
  /// one-sample delay; the paper's ET-mode controller is designed on it.
  struct Augmented {
    linalg::Matrix a;
    linalg::Matrix b;
  };
  Augmented augmented() const;

 private:
  linalg::Matrix phi_, gamma0_, gamma1_, c_;
  double h_;
  double d_;
};

/// Discretize a continuous plant with sampling period `h` and constant
/// sensor-to-actuator delay `d` (0 <= d <= h).
DiscreteSystem c2d(const StateSpace& plant, double h, double d = 0.0);

/// Discretize one plant for two delays at once, factorizing e^{Ah} (which
/// is delay-independent) a single time.  Bit-identical to
/// {c2d(plant, h, d_first), c2d(plant, h, d_second)}; this is the form the
/// two-mode loop design uses, where both mode models share h.
std::pair<DiscreteSystem, DiscreteSystem> c2d_pair(const StateSpace& plant, double h,
                                                   double d_first, double d_second);

}  // namespace cps::control
