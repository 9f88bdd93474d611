// Online re-allocation property tests.
//
// The load-bearing guarantee: a warm start changes proof TIME, never
// ANSWERS.  (1) optimal_allocate with any achievable warm_incumbent
// returns the bit-identical Allocation of a cold run; (2) after every
// single-fault injection on randomized utilization-controlled fleets,
// the online repair + warm-start path lands on the same partition as
// the frozen exhaustive reference search; (3) the anytime incumbent is
// monotone — the proven count never exceeds the warm bound handed in.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/slot_allocation.hpp"
#include "online/reallocation.hpp"
#include "online/scenario.hpp"
#include "plants/fleet_synthesis.hpp"
#include "reference/analysis_reference.hpp"

namespace {

using namespace cps;
using analysis::Allocation;
using analysis::AllocationOptions;
using analysis::AppSchedParams;

std::vector<plants::SynthesizedSchedApp> draw_fleet(std::size_t n, double utilization,
                                                    std::uint64_t seed) {
  plants::FleetSynthesisSpec spec;
  spec.n_apps = n;
  spec.target_utilization = utilization;
  return plants::synthesize_sched_fleet(spec, seed).apps;
}

/// The five injectable single faults, as mutations of a drawn fleet.
/// Returns the post-fault slot budget (0 = unlimited).
std::size_t inject(const std::string& fault, std::vector<plants::SynthesizedSchedApp>& fleet,
                   std::size_t target, std::size_t initial_slots) {
  if (fault == "drop_slot") return initial_slots - 1;
  if (fault == "drop_frames") {
    online::apply_drop_frames(fleet[target], 1.4);
  } else if (fault == "delay_frames") {
    online::apply_delay_frames(fleet[target], 0.15 * fleet[target].r);
  } else if (fault == "drift") {
    online::apply_drift(fleet[target], 1.3);
  } else {  // leave
    fleet.erase(fleet.begin() + static_cast<std::ptrdiff_t>(target));
  }
  return 0;
}

TEST(WarmIncumbentTest, AnyAchievableWarmStartReturnsTheColdAllocation) {
  for (const std::uint64_t seed : {11u, 29u, 47u}) {
    const auto fleet = draw_fleet(9, 2.0, seed);
    const auto apps = online::fleet_to_params(fleet);
    const Allocation cold = analysis::optimal_allocate(apps);
    const std::size_t first_fit = analysis::first_fit_allocate(apps).slot_count();
    // Both the optimum itself and the (looser) first-fit count are
    // achievable warm bounds; neither may change the result.
    for (const std::size_t warm : {cold.slot_count(), first_fit}) {
      AllocationOptions options;
      options.warm_incumbent = warm;
      const Allocation warmed = analysis::optimal_allocate(apps, options);
      EXPECT_EQ(warmed.slots, cold.slots) << "seed " << seed << " warm " << warm;
    }
  }
}

TEST(ReallocationTest, WarmRepairPathMatchesTheColdReferenceAfterEverySingleFault) {
  const std::vector<std::string> faults = {"drop_slot", "drop_frames", "delay_frames",
                                           "drift", "leave"};
  int checked = 0;
  for (const std::size_t n : {5u, 7u, 8u}) {
    for (const std::uint64_t seed : {3u, 17u}) {
      const auto baseline = draw_fleet(n, 0.22 * static_cast<double>(n), seed);
      const Allocation initial = analysis::optimal_allocate(online::fleet_to_params(baseline));
      for (const auto& fault : faults) {
        auto fleet = baseline;
        const std::size_t budget = inject(fault, fleet, seed % fleet.size(),
                                          initial.slot_count());
        if (fault == "drop_slot" && budget == 0) continue;  // outage, nothing to prove
        const auto apps = online::fleet_to_params(fleet);

        online::ReallocationPolicy policy;
        const auto result = online::reallocate(apps, initial.slots, budget, policy);

        AllocationOptions reference_options;
        reference_options.max_slots = budget;
        try {
          const Allocation reference =
              analysis::optimal_allocate_reference(apps, reference_options);
          ASSERT_TRUE(result.feasible) << fault << " n=" << n << " seed=" << seed;
          EXPECT_EQ(result.allocation.slots, reference.slots)
              << fault << " n=" << n << " seed=" << seed;
          EXPECT_EQ(result.report.slots_after, reference.slot_count());
        } catch (const InfeasibleError&) {
          // The reference can't fit the budget either: the online path
          // must agree, degrading instead of throwing.
          EXPECT_FALSE(result.feasible) << fault << " n=" << n << " seed=" << seed;
          EXPECT_LE(result.allocation.slot_count(), budget == 0 ? apps.size() : budget);
        }
        ++checked;
      }
    }
  }
  EXPECT_GE(checked, 25);  // the sweep above must actually run
}

TEST(ReallocationTest, AnytimeIncumbentIsMonotonicallyNonWorsening) {
  for (const std::size_t n : {6u, 9u, 12u}) {
    for (const std::uint64_t seed : {5u, 23u}) {
      auto fleet = draw_fleet(n, 0.2 * static_cast<double>(n), seed);
      const Allocation initial = analysis::optimal_allocate(online::fleet_to_params(fleet));
      online::apply_drift(fleet[seed % fleet.size()], 1.25);
      const auto result =
          online::reallocate(online::fleet_to_params(fleet), initial.slots, 0, {});
      ASSERT_TRUE(result.feasible);
      if (result.report.warm_incumbent != 0) {
        // The warm bound is achievable, so the proven optimum can only
        // meet or beat it — and the gap is exactly the improvement.
        EXPECT_LE(result.report.slots_after, result.report.warm_incumbent);
        EXPECT_EQ(result.report.anytime_gap,
                  result.report.warm_incumbent - result.report.slots_after);
      }
      if (result.report.repaired) {
        EXPECT_NE(result.report.warm_incumbent, 0u);
      }
    }
  }
}

TEST(ReallocationTest, EdgeCasesStayDeterministicAndNeverThrow) {
  // The whole fleet left: trivially feasible, zero slots.
  const auto empty = online::reallocate({}, {{"G0"}}, 0, {});
  EXPECT_TRUE(empty.feasible);
  EXPECT_EQ(empty.allocation.slot_count(), 0u);
  EXPECT_EQ(empty.report.slots_before, 1u);

  // A budget too tight for any schedulable allocation: feasible = false
  // with a deterministic degraded allocation inside the budget, so the
  // world can keep ticking and count the misses.
  const auto fleet = draw_fleet(8, 2.2, 41);
  const auto apps = online::fleet_to_params(fleet);
  const std::size_t need = analysis::optimal_allocate(apps).slot_count();
  ASSERT_GT(need, 1u) << "fixture fleet must need more than one slot";
  const auto squeezed = online::reallocate(apps, {}, 1, {});
  EXPECT_FALSE(squeezed.feasible);
  EXPECT_EQ(squeezed.allocation.slot_count(), 1u);
  EXPECT_EQ(squeezed.allocation.slots[0].size(), apps.size());
  const auto squeezed_again = online::reallocate(apps, {}, 1, {});
  EXPECT_EQ(squeezed.allocation.slots, squeezed_again.allocation.slots);
}

}  // namespace
