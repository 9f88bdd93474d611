// Frozen pre-optimization analysis kernels — the golden baselines the
// optimized kernels in src/analysis/ are proven bit-identical against
// (tests/sim_golden_test.cpp, tests/analysis_golden_test.cpp and the
// allocator differential suites) and timed against (bench/).  Test-only:
// they live in the cps_reference library, never in the shipped cps
// library, and use only its public API.
#pragma once

#include <cstddef>
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

/// The pre-optimization exhaustive branch-and-bound (one full analyze_slot
/// per visited node, no lower bounds, no memoization).
Allocation optimal_allocate_reference(std::vector<AppSchedParams> apps,
                                      const AllocationOptions& options = {},
                                      std::size_t max_apps_for_exact = 12);

}  // namespace cps::analysis
