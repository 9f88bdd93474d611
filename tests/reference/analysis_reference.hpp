// Frozen pre-optimization analysis kernels — the golden baselines the
// optimized kernels in src/analysis/ are proven bit-identical against
// (tests/sim_golden_test.cpp, tests/analysis_golden_test.cpp and the
// allocator differential suites) and timed against (bench/).  Every test
// oracle that judges a slot does so with analyze_slot_reference, never
// with the analyze_slot / member_wait code it checks.  Test-only: they
// live in the cps_reference library, never in the shipped cps library,
// and use only its public API.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "analysis/schedulability.hpp"
#include "analysis/slot_allocation.hpp"
#include "analysis/transient.hpp"
#include "linalg/matrix.hpp"

namespace cps::analysis {

/// Frozen copy of transient_growth() (one matrix temporary per power step).
TransientGrowth transient_growth_reference(const linalg::Matrix& a,
                                           const TransientGrowthOptions& opts = {});

/// Frozen copy of transient_growth_restricted().
TransientGrowth transient_growth_restricted_reference(
    const linalg::Matrix& a, std::size_t norm_dim, const TransientGrowthOptions& opts = {});

/// Frozen copy of analyze_slot from before the wait kernel
/// (member_wait): one helper per equation (blocking a, interference m,
/// the Eq. 20 bound, the Eq. 5 fixed point), each re-validating the slot.
SlotAnalysis analyze_slot_reference(std::vector<AppSchedParams> slot_apps,
                                    MaxWaitMethod method = MaxWaitMethod::kClosedFormBound);

/// Frozen copies of max_wait_bound, max_wait_lower_bound and
/// max_wait_fixed_point (apps in priority order).
std::optional<double> max_wait_bound_reference(const std::vector<AppSchedParams>& slot_apps,
                                               std::size_t index);
std::optional<double> max_wait_lower_bound_reference(
    const std::vector<AppSchedParams>& slot_apps, std::size_t index);
std::optional<double> max_wait_fixed_point_reference(
    const std::vector<AppSchedParams>& slot_apps, std::size_t index,
    int max_iterations = 10000);

/// The pre-optimization exhaustive branch-and-bound (one full
/// analyze_slot_reference per visited node, no lower bounds, no
/// memoization), seeded by first fit over analyze_slot_reference: no
/// code of the optimized allocator or the wait kernel runs in it.
Allocation optimal_allocate_reference(std::vector<AppSchedParams> apps,
                                      const AllocationOptions& options = {},
                                      std::size_t max_apps_for_exact = 12);

}  // namespace cps::analysis
