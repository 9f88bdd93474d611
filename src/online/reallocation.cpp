#include "online/reallocation.hpp"

#include <chrono>
#include <map>
#include <optional>
#include <utility>

#include "util/error.hpp"

namespace cps::online {

namespace {

using analysis::Allocation;
using analysis::AllocationOptions;
using analysis::AppSchedParams;
using analysis::MaxWaitMethod;

/// Package slot lists of params (any order within a slot) as an
/// Allocation with per-slot analyses attached — the online counterpart
/// of the allocator's finalize().
Allocation build_allocation(std::vector<std::vector<AppSchedParams>> slots,
                            MaxWaitMethod method) {
  Allocation out;
  out.slots.reserve(slots.size());
  out.analyses.reserve(slots.size());
  for (auto& slot : slots) {
    analysis::sort_by_priority(slot);
    std::vector<std::string> names;
    names.reserve(slot.size());
    for (const auto& app : slot) names.push_back(app.name);
    out.slots.push_back(std::move(names));
    out.analyses.push_back(analysis::analyze_slot(slot, method));
  }
  return out;
}

bool slot_feasible(const std::vector<AppSchedParams>& slot, MaxWaitMethod method) {
  return analysis::analyze_slot(slot, method).all_schedulable;
}

/// Repair the previous partition against the patched fleet: departed
/// apps drop out, surviving slots keep their membership, new apps
/// first-fit into the result.  Returns the repaired slot lists when
/// every slot stays schedulable, nullopt when the previous structure
/// does not survive the fault (the exact search then runs cold).
std::optional<std::vector<std::vector<AppSchedParams>>> repair_partition(
    const std::vector<AppSchedParams>& apps,
    const std::vector<std::vector<std::string>>& previous, MaxWaitMethod method) {
  std::map<std::string, const AppSchedParams*> by_name;
  for (const auto& app : apps) by_name[app.name] = &app;

  std::vector<std::vector<AppSchedParams>> slots;
  std::map<std::string, bool> seated;
  for (const auto& slot_names : previous) {
    std::vector<AppSchedParams> slot;
    for (const auto& name : slot_names) {
      const auto it = by_name.find(name);
      if (it == by_name.end()) continue;  // the app left the fleet
      slot.push_back(*it->second);
      seated[name] = true;
    }
    if (slot.empty()) continue;  // the slot emptied out — drop it
    if (!slot_feasible(slot, method)) return std::nullopt;
    slots.push_back(std::move(slot));
  }

  // New apps (joins, or everything on the cold init call) first-fit into
  // the repaired structure, in fleet order — deterministic.
  for (const auto& app : apps) {
    if (seated.count(app.name) != 0) continue;
    bool placed = false;
    for (auto& slot : slots) {
      slot.push_back(app);
      if (slot_feasible(slot, method)) {
        placed = true;
        break;
      }
      slot.pop_back();
    }
    if (!placed) {
      if (!slot_feasible({app}, method)) return std::nullopt;  // alone-infeasible
      slots.push_back({app});
    }
  }
  return slots;
}

/// Deterministic degraded allocation when nothing schedulable fits the
/// budget: apps round-robin over min(budget, n) slots in priority order
/// (budget 0 = unlimited degenerates to dedicated slots), analyses
/// attached so the world can count which arrivals miss.
Allocation degraded_allocation(std::vector<AppSchedParams> apps, std::size_t slot_budget,
                               MaxWaitMethod method) {
  analysis::sort_by_priority(apps);
  const std::size_t k =
      slot_budget == 0 ? apps.size() : std::min(slot_budget, apps.size());
  std::vector<std::vector<AppSchedParams>> slots(k);
  for (std::size_t i = 0; i < apps.size(); ++i) slots[i % k].push_back(apps[i]);
  return build_allocation(std::move(slots), method);
}

}  // namespace

ReallocationResult reallocate(const std::vector<AppSchedParams>& apps,
                              const std::vector<std::vector<std::string>>& previous,
                              std::size_t slot_budget, const ReallocationPolicy& policy) {
  ReallocationResult result;
  result.report.slots_before = previous.size();
  if (apps.empty()) {  // the whole fleet left; trivially feasible
    result.feasible = true;
    result.report.feasible = true;
    return result;
  }

  // Phase 1: repair.  A repaired partition that fits the budget is an
  // achievable slot count — the warm_incumbent contract.
  const auto repaired = repair_partition(apps, previous, policy.method);
  const bool repair_ok =
      repaired.has_value() && (slot_budget == 0 || repaired->size() <= slot_budget);
  result.report.repaired = repair_ok;

  AllocationOptions options;
  options.method = policy.method;
  options.max_slots = slot_budget;

  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  try {
    if (apps.size() <= policy.exact_max_apps) {
      options.warm_incumbent = repair_ok ? repaired->size() : 0;
      result.report.warm_incumbent = options.warm_incumbent;
      result.report.exact = true;
      result.allocation = analysis::optimal_allocate(apps, options);
    } else {
      result.allocation = analysis::first_fit_allocate(apps, options);
    }
    result.feasible = true;
  } catch (const InfeasibleError&) {
    result.feasible = false;
    result.allocation = degraded_allocation(apps, slot_budget, policy.method);
  }
  result.report.proof_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();

  result.report.feasible = result.feasible;
  result.report.slots_after = result.allocation.slot_count();
  if (result.feasible && result.report.warm_incumbent != 0)
    result.report.anytime_gap = result.report.warm_incumbent - result.report.slots_after;
  return result;
}

}  // namespace cps::online
