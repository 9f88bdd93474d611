#include "analysis/schedulability.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"

namespace cps::analysis {

namespace {

/// The wait of `slot_apps[index]` (apps in priority order).
MemberWait wait_of(const std::vector<AppSchedParams>& slot_apps, std::size_t index,
                   MaxWaitMethod method, int max_iterations = kFixedPointMaxIterations) {
  CPS_ENSURE(index < slot_apps.size(), "schedulability: app index out of range");
  const auto facts = app_facts(slot_apps);
  return member_wait(facts.data(), facts.size(), index, method, max_iterations);
}

}  // namespace

void sort_by_priority(std::vector<AppSchedParams>& apps) {
  std::stable_sort(apps.begin(), apps.end(), [](const AppSchedParams& a, const AppSchedParams& b) {
    return a.deadline < b.deadline;
  });
}

std::vector<AppFacts> app_facts(const std::vector<AppSchedParams>& apps) {
  std::vector<AppFacts> facts;
  facts.reserve(apps.size());
  for (const auto& app : apps) {
    CPS_ENSURE(app.model != nullptr, "schedulability: every app needs a dwell/wait model");
    CPS_ENSURE(app.min_inter_arrival > 0.0, "schedulability: r must be positive");
    CPS_ENSURE(app.deadline > 0.0, "schedulability: deadline must be positive");
    AppFacts f;
    f.xi_m = app.model->max_dwell();
    f.util = f.xi_m / app.min_inter_arrival;
    f.r = app.min_inter_arrival;
    f.deadline = app.deadline;
    f.model = app.model.get();
    f.name = &app.name;
    facts.push_back(f);
  }
  return facts;
}

void throw_wait_diverged() {
  throw NumericalError("max_wait_fixed_point: recurrence did not converge (m < 1 violated?)");
}

std::optional<double> max_wait_bound(const std::vector<AppSchedParams>& slot_apps,
                                     std::size_t index) {
  const MemberWait w = wait_of(slot_apps, index, MaxWaitMethod::kClosedFormBound);
  if (w.outcome == WaitOutcome::kSaturated) return std::nullopt;
  return w.max_wait;
}

std::optional<double> max_wait_lower_bound(const std::vector<AppSchedParams>& slot_apps,
                                           std::size_t index) {
  const MemberWait w = wait_of(slot_apps, index, MaxWaitMethod::kClosedFormBound);
  if (w.outcome == WaitOutcome::kSaturated) return std::nullopt;
  return w.blocking / (1.0 - w.interference_util);
}

std::optional<double> max_wait_fixed_point(const std::vector<AppSchedParams>& slot_apps,
                                           std::size_t index, int max_iterations) {
  const MemberWait w = wait_of(slot_apps, index, MaxWaitMethod::kFixedPoint, max_iterations);
  if (w.outcome == WaitOutcome::kSaturated) return std::nullopt;
  if (w.outcome == WaitOutcome::kDiverged) throw_wait_diverged();
  return w.max_wait;
}

SlotAnalysis analyze_slot_facts(const AppFacts* slot, std::size_t count,
                                MaxWaitMethod method) {
  SlotAnalysis analysis;
  analysis.results.reserve(count);
  analysis.all_schedulable = true;
  for (std::size_t i = 0; i < count; ++i) {
    const MemberWait w = member_wait(slot, count, i, method);
    if (w.outcome == WaitOutcome::kDiverged) throw_wait_diverged();
    AppSchedResult r;
    r.name = *slot[i].name;
    r.blocking = w.blocking;
    r.interference_util = w.interference_util;
    r.deadline = slot[i].deadline;
    if (w.outcome == WaitOutcome::kSaturated) {
      r.utilization_feasible = false;
    } else {
      r.max_wait = w.max_wait;
      r.response = slot[i].model->response(w.max_wait);
      r.schedulable = meets_deadline(r.response, r.deadline);
    }
    if (!r.schedulable) analysis.all_schedulable = false;
    analysis.results.push_back(std::move(r));
  }
  return analysis;
}

SlotAnalysis analyze_slot(std::vector<AppSchedParams> slot_apps, MaxWaitMethod method) {
  CPS_ENSURE(!slot_apps.empty(), "analyze_slot: need at least one application");
  sort_by_priority(slot_apps);
  const auto facts = app_facts(slot_apps);
  return analyze_slot_facts(facts.data(), facts.size(), method);
}

}  // namespace cps::analysis
