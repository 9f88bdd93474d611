#include "reference/analysis_reference.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "linalg/eigen.hpp"
#include "linalg/svd.hpp"
#include "util/error.hpp"

namespace cps::analysis {

TransientGrowth transient_growth_reference(const linalg::Matrix& a,
                                           const TransientGrowthOptions& opts) {
  // Frozen pre-optimization kernel (one matrix temporary per power step) —
  // the golden baseline of tests/sim_golden_test.cpp.
  CPS_ENSURE(a.is_square(), "transient_growth: matrix must be square");
  if (!linalg::is_schur_stable(a, 0.0))
    throw NumericalError("transient_growth: loop is not Schur stable");

  TransientGrowth out;
  linalg::Matrix power = linalg::Matrix::identity(a.rows());
  for (std::size_t k = 1; k <= opts.max_steps; ++k) {
    power = power * a;
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

TransientGrowth transient_growth_restricted_reference(const linalg::Matrix& a,
                                                      std::size_t norm_dim,
                                                      const TransientGrowthOptions& opts) {
  // Frozen pre-optimization kernel — the golden baseline of
  // tests/sim_golden_test.cpp.
  CPS_ENSURE(a.is_square(), "transient_growth_restricted: matrix must be square");
  CPS_ENSURE(norm_dim >= 1 && norm_dim <= a.rows(),
             "transient_growth_restricted: norm_dim out of range");
  if (!linalg::is_schur_stable(a, 0.0))
    throw NumericalError("transient_growth_restricted: loop is not Schur stable");

  TransientGrowth out;
  linalg::Matrix power = linalg::Matrix::identity(a.rows());
  double running_full = 1.0;
  for (std::size_t k = 1; k <= opts.max_steps; ++k) {
    power = power * a;
    const double gain = linalg::norm_two(power.block(0, 0, norm_dim, norm_dim));
    if (gain > out.peak_gain) {
      out.peak_gain = gain;
      out.peak_step = k;
    }
    const double full = linalg::norm_two(power);
    running_full = std::max(running_full, full);
    if (full < opts.decay_stop * running_full) break;
  }
  out.growing = out.peak_gain > 1.0 + opts.tol;
  return out;
}

namespace {

// Frozen pre-refactor slot analysis: one helper per equation, each
// re-validating the slot, exactly as analyze_slot computed it before the
// per-member wait kernel (member_wait) replaced them.

void check_index(const std::vector<AppSchedParams>& apps, std::size_t index) {
  CPS_ENSURE(index < apps.size(), "schedulability: app index out of range");
  for (const auto& a : apps) {
    CPS_ENSURE(a.model != nullptr, "schedulability: every app needs a dwell/wait model");
    CPS_ENSURE(a.min_inter_arrival > 0.0, "schedulability: r must be positive");
    CPS_ENSURE(a.deadline > 0.0, "schedulability: deadline must be positive");
  }
}

double blocking_term(const std::vector<AppSchedParams>& slot_apps, std::size_t index) {
  check_index(slot_apps, index);
  double a = 0.0;
  for (std::size_t k = index + 1; k < slot_apps.size(); ++k)
    a = std::max(a, slot_apps[k].model->max_dwell());
  return a;
}

double interference_utilization(const std::vector<AppSchedParams>& slot_apps,
                                std::size_t index) {
  check_index(slot_apps, index);
  double m = 0.0;
  for (std::size_t j = 0; j < index; ++j)
    m += slot_apps[j].model->max_dwell() / slot_apps[j].min_inter_arrival;
  return m;
}

}  // namespace

std::optional<double> max_wait_bound_reference(const std::vector<AppSchedParams>& slot_apps,
                                               std::size_t index) {
  const double m = interference_utilization(slot_apps, index);
  if (m >= 1.0) return std::nullopt;
  const double a = blocking_term(slot_apps, index);
  double a_prime = a;
  for (std::size_t j = 0; j < index; ++j) a_prime += slot_apps[j].model->max_dwell();
  return a_prime / (1.0 - m);
}

std::optional<double> max_wait_lower_bound_reference(
    const std::vector<AppSchedParams>& slot_apps, std::size_t index) {
  const double m = interference_utilization(slot_apps, index);
  if (m >= 1.0) return std::nullopt;
  return blocking_term(slot_apps, index) / (1.0 - m);
}

std::optional<double> max_wait_fixed_point_reference(
    const std::vector<AppSchedParams>& slot_apps, std::size_t index, int max_iterations) {
  const double m = interference_utilization(slot_apps, index);
  if (m >= 1.0) return std::nullopt;
  const double a = blocking_term(slot_apps, index);

  // Critical instant: every higher-priority application releases together
  // with C_i, so each contributes one dwell immediately; further arrivals
  // follow from the recurrence.  (Seeding with a alone would lose those
  // simultaneous first arrivals: ceil(0 / r) = 0.)
  double k = a;
  for (std::size_t j = 0; j < index; ++j) k += slot_apps[j].model->max_dwell();

  for (int it = 0; it < max_iterations; ++it) {
    double next = a;
    for (std::size_t j = 0; j < index; ++j)
      next += std::max(1.0, std::ceil(k / slot_apps[j].min_inter_arrival - 1e-12)) *
              slot_apps[j].model->max_dwell();
    if (std::fabs(next - k) <= 1e-12) return next;
    k = next;
  }
  throw NumericalError("max_wait_fixed_point: recurrence did not converge (m < 1 violated?)");
}

SlotAnalysis analyze_slot_reference(std::vector<AppSchedParams> slot_apps,
                                    MaxWaitMethod method) {
  CPS_ENSURE(!slot_apps.empty(), "analyze_slot: need at least one application");
  sort_by_priority(slot_apps);

  SlotAnalysis analysis;
  analysis.results.reserve(slot_apps.size());
  analysis.all_schedulable = true;

  for (std::size_t i = 0; i < slot_apps.size(); ++i) {
    AppSchedResult r;
    r.name = slot_apps[i].name;
    r.deadline = slot_apps[i].deadline;
    r.blocking = blocking_term(slot_apps, i);
    r.interference_util = interference_utilization(slot_apps, i);

    const auto k_hat = method == MaxWaitMethod::kClosedFormBound
                           ? max_wait_bound_reference(slot_apps, i)
                           : max_wait_fixed_point_reference(slot_apps, i);
    if (!k_hat.has_value()) {
      r.utilization_feasible = false;
      r.schedulable = false;
      analysis.all_schedulable = false;
      analysis.results.push_back(std::move(r));
      continue;
    }
    r.max_wait = *k_hat;
    r.response = slot_apps[i].model->response(*k_hat);
    r.schedulable = r.response <= r.deadline + 1e-12;
    if (!r.schedulable) analysis.all_schedulable = false;
    analysis.results.push_back(std::move(r));
  }
  return analysis;
}

Allocation optimal_allocate_reference(std::vector<AppSchedParams> apps,
                                      const AllocationOptions& options,
                                      std::size_t max_apps_for_exact) {
  CPS_ENSURE(!apps.empty(), "optimal_allocate: need at least one application");
  CPS_ENSURE(apps.size() <= max_apps_for_exact,
             "optimal_allocate: exact search limited to max_apps_for_exact applications");
  sort_by_priority(apps);
  for (const auto& app : apps) {
    if (!analyze_slot_reference({app}, options.method).all_schedulable)
      throw InfeasibleError("application '" + app.name +
                            "' cannot meet its deadline even on a dedicated TT slot");
  }

  // The seed's pre-optimization branch and bound, frozen: place
  // applications one by one into an existing block or a new one, pruning
  // only branches that already use >= the best-known number of slots, with
  // a full analyze_slot_reference per visited node.  The paper's first
  // fit, spelled out over the same analysis, seeds the bound (and stays
  // the answer when nothing beats it).
  std::vector<std::vector<AppSchedParams>> best;
  for (const auto& app : apps) {
    bool placed = false;
    for (auto& block : best) {
      block.push_back(app);
      if (analyze_slot_reference(block, options.method).all_schedulable) {
        placed = true;
        break;
      }
      block.pop_back();
    }
    if (!placed) best.push_back({app});
  }
  std::size_t best_count = best.size();

  std::vector<std::vector<AppSchedParams>> current;
  auto recurse = [&](auto&& self, std::size_t index) -> void {
    if (current.size() >= best_count) return;  // cannot improve
    if (index == apps.size()) {
      best = current;
      best_count = current.size();
      return;
    }
    const AppSchedParams& app = apps[index];
    for (std::size_t s = 0; s < current.size(); ++s) {
      current[s].push_back(app);
      if (analyze_slot_reference(current[s], options.method).all_schedulable)
        self(self, index + 1);
      current[s].pop_back();
    }
    if (current.size() + 1 < best_count) {
      current.push_back({app});
      self(self, index + 1);
      current.pop_back();
    }
  };
  recurse(recurse, 0);

  if (options.max_slots != 0 && best_count > options.max_slots)
    throw InfeasibleError("optimal allocation still exceeds the available " +
                          std::to_string(options.max_slots) + " TT slots");
  for (auto& slot : best) sort_by_priority(slot);

  // Package the slots (each in priority order) as an Allocation.
  Allocation out;
  out.slots.reserve(best.size());
  out.analyses.reserve(best.size());
  for (auto& slot : best) {
    std::vector<std::string> names;
    names.reserve(slot.size());
    for (const auto& a : slot) names.push_back(a.name);
    out.slots.push_back(std::move(names));
    out.analyses.push_back(analyze_slot_reference(slot, options.method));
  }
  return out;
}

}  // namespace cps::analysis
