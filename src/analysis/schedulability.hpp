// Schedulability analysis for applications sharing one TT slot
// (paper Section IV).
//
// Applications contending for a slot are served non-preemptively in
// priority order (smaller deadline = higher priority).  For application
// C_i the worst case is: the largest lower-priority dwell has just started
// (blocking a), and every higher-priority application re-requests the slot
// as often as its minimum disturbance inter-arrival time allows.  The
// maximum wait time satisfies the recurrence (Eq. 5)
//
//     k(l+1) = a + sum_{j higher} ceil(k(l) / r_j) * xiM_j,
//
// whose iterates are monotone (Eqs. 9-14); the paper's closed-form bounds
// (Eqs. 20-21) bracket the fixed point:
//
//     a / (1 - m)  <=  k_hat  <  a' / (1 - m),
//     a' = a + sum_j xiM_j,   m = sum_j xiM_j / r_j  (must be < 1).
//
// The worst-case response time is xi_hat = k_hat + dwell(k_hat) using the
// application's dwell/wait model; C_i is schedulable iff xi_hat <= xi_d_i.
// Following the paper's case study, the UPPER bound (20) is the default
// k_hat (safe); the exact fixed point is also provided for the tightness
// ablation.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "analysis/dwell_wait_model.hpp"

namespace cps::analysis {

/// Scheduling-relevant description of one control application.
struct AppSchedParams {
  std::string name;                ///< unique application name (e.g. "C3")
  double min_inter_arrival = 1.0;  ///< r_i [s]
  double deadline = 1.0;           ///< xi_d_i [s]
  ModelPtr model;                  ///< dwell/wait model (supplies xiM and dwell())
};

/// How to compute the maximum wait time.
enum class MaxWaitMethod {
  kClosedFormBound,  ///< a' / (1 - m): Eq. (20), the paper's choice
  kFixedPoint,       ///< exact fixed point of Eq. (5)
};

/// Outcome of the slot analysis for one application.
struct AppSchedResult {
  std::string name;             ///< application analyzed
  double blocking = 0.0;        ///< a: max lower-priority xiM
  double interference_util = 0.0;  ///< m: sum of higher-priority xiM_j / r_j
  double max_wait = 0.0;        ///< k_hat
  double response = 0.0;        ///< xi_hat = k_hat + dwell(k_hat)
  double deadline = 0.0;        ///< xi_d_i the response is checked against
  bool schedulable = false;     ///< xi_hat <= xi_d_i
  bool utilization_feasible = true;  ///< m < 1 held
};

/// Full analysis of one slot's application set.
struct SlotAnalysis {
  std::vector<AppSchedResult> results;  ///< in priority order
  bool all_schedulable = false;
};

/// Closed-form upper bound (20) on the maximum wait time of `slot_apps[index]`
/// (apps in priority order).  Returns std::nullopt when m >= 1 (not
/// schedulable on this slot).
std::optional<double> max_wait_bound(const std::vector<AppSchedParams>& slot_apps,
                                     std::size_t index);

/// Lower bound (21), provided for the tightness ablation and tests.
std::optional<double> max_wait_lower_bound(const std::vector<AppSchedParams>& slot_apps,
                                           std::size_t index);

/// Default iteration cap of the Eq. (5) fixed point.
inline constexpr int kFixedPointMaxIterations = 10000;

/// Exact fixed point of the recurrence (5)/(6), seeded with one arrival of
/// every higher-priority application (the critical instant).  Returns
/// std::nullopt when m >= 1; throws NumericalError when the recurrence
/// passes `max_iterations`.
std::optional<double> max_wait_fixed_point(const std::vector<AppSchedParams>& slot_apps,
                                           std::size_t index,
                                           int max_iterations = kFixedPointMaxIterations);

/// One interference term of the Eq. (5) recurrence: arrivals of a
/// higher-priority application (peak dwell xi_m, minimum inter-arrival r)
/// during a wait of k, including the simultaneous critical-instant
/// release (the max with 1).  Evaluated only by member_wait's fixed-point
/// loop below.
inline double fixed_point_interference_term(double k, double r, double xi_m) {
  return std::max(1.0, std::ceil(k / r - 1e-12)) * xi_m;
}

/// What the slot analysis reads of one application, validated once.
/// Holds pointers into the AppSchedParams it was made from, which must
/// outlive it.  Trivially constructible, so the allocator's stack arrays
/// of gathered facts cost nothing until written.
struct AppFacts {
  double xi_m;      ///< model->max_dwell(), the xi^M of the analysis
  double util;      ///< xi_m / r, one interference-utilization term (Eq. 19)
  double r;         ///< minimum inter-arrival time
  double deadline;  ///< xi_d
  const DwellWaitModel* model;
  const std::string* name;
};

/// The facts of every app, in the same order; throws InvalidArgument for
/// a missing model or a non-positive r or deadline.
std::vector<AppFacts> app_facts(const std::vector<AppSchedParams>& apps);

/// Outcome of one member's maximum-wait computation.
enum class WaitOutcome {
  kBounded,    ///< k_hat is finite
  kSaturated,  ///< m >= 1: no finite wait (Eq. 20 needs m < 1)
  kDiverged,   ///< the Eq. (5) fixed point passed its iteration cap
};

/// The wait analysis of one slot member.
struct MemberWait {
  WaitOutcome outcome = WaitOutcome::kBounded;
  double blocking = 0.0;           ///< a (Eq. 8)
  double interference_util = 0.0;  ///< m (Eq. 19)
  double max_wait = 0.0;           ///< k_hat (kBounded only)
};

/// The wait kernel of the Section IV analysis, shared by analyze_slot,
/// the max_wait_* helpers and the allocator's feasibility engine: the
/// blocking a, interference m and maximum wait k_hat of member i of the
/// slot `slot[0, count)` (facts in priority order).  Every caller gets
/// the same floating-point operation order, so their answers agree bit
/// for bit.
inline MemberWait member_wait(const AppFacts* slot, std::size_t count, std::size_t i,
                              MaxWaitMethod method,
                              int max_iterations = kFixedPointMaxIterations) {
  MemberWait w;
  // Blocking a (Eq. 8): the largest lower-priority max dwell.
  for (std::size_t k = i + 1; k < count; ++k) w.blocking = std::max(w.blocking, slot[k].xi_m);
  // Interference utilization m (Eq. 19).
  for (std::size_t j = 0; j < i; ++j) w.interference_util += slot[j].util;
  if (w.interference_util >= 1.0) {
    w.outcome = WaitOutcome::kSaturated;
    return w;
  }
  // a' = a + sum of the higher-priority xi_m: the numerator of Eq. (20)
  // and the fixed point's seed.  The seed is the critical instant: every
  // higher-priority application releases together with C_i and
  // contributes one dwell at once (seeding with a alone would lose those
  // simultaneous arrivals: ceil(0 / r) = 0).
  double k = w.blocking;
  for (std::size_t j = 0; j < i; ++j) k += slot[j].xi_m;
  if (method == MaxWaitMethod::kClosedFormBound) {
    w.max_wait = k / (1.0 - w.interference_util);
    return w;
  }
  // Exact fixed point of Eq. (5).
  for (int it = 0; it < max_iterations; ++it) {
    double next = w.blocking;
    for (std::size_t j = 0; j < i; ++j)
      next += fixed_point_interference_term(k, slot[j].r, slot[j].xi_m);
    if (std::fabs(next - k) <= 1e-12) {
      w.max_wait = next;
      return w;
    }
    k = next;
  }
  w.outcome = WaitOutcome::kDiverged;
  return w;
}

/// Whether a worst-case response meets its deadline.
inline bool meets_deadline(double response, double deadline) {
  return response <= deadline + 1e-12;
}

/// Throws the NumericalError of a fixed point that passed its iteration cap.
[[noreturn]] void throw_wait_diverged();

/// analyze_slot over facts already in priority order: the slot
/// `slot[0, count)`.  Throws NumericalError when a fixed point diverges.
SlotAnalysis analyze_slot_facts(const AppFacts* slot, std::size_t count, MaxWaitMethod method);

/// Analyze every application sharing one slot.  `slot_apps` in any order;
/// they are analyzed in deadline (priority) order and returned that way.
SlotAnalysis analyze_slot(std::vector<AppSchedParams> slot_apps,
                          MaxWaitMethod method = MaxWaitMethod::kClosedFormBound);

/// Sort by increasing deadline (the paper's priority rule), stable for ties.
void sort_by_priority(std::vector<AppSchedParams>& apps);

}  // namespace cps::analysis
