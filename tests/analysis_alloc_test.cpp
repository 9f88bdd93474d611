// Tests for the first-fit TT-slot allocator, including the paper's
// headline Section V result: 3 slots with the non-monotonic model versus
// 5 with the conservative monotonic one (67 % more).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/slot_allocation.hpp"
#include "plants/table1.hpp"
#include "reference/analysis_reference.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace {

using namespace cps;
using namespace cps::analysis;

std::vector<AppSchedParams> paper_apps_non_monotonic() {
  std::vector<AppSchedParams> apps;
  for (const auto& row : plants::paper_values()) {
    AppSchedParams app;
    app.name = row.name;
    app.min_inter_arrival = row.r;
    app.deadline = row.xi_d;
    app.model = std::make_shared<NonMonotonicModel>(row.xi_tt, row.xi_m, row.k_p, row.xi_et);
    apps.push_back(std::move(app));
  }
  return apps;
}

std::vector<AppSchedParams> paper_apps_monotonic() {
  std::vector<AppSchedParams> apps;
  for (const auto& row : plants::paper_values()) {
    AppSchedParams app;
    app.name = row.name;
    app.min_inter_arrival = row.r;
    app.deadline = row.xi_d;
    app.model = std::make_shared<ConservativeMonotonicModel>(row.xi_m_mono, row.xi_et);
    apps.push_back(std::move(app));
  }
  return apps;
}

TEST(PaperAllocationTest, NonMonotonicNeedsThreeSlots) {
  const Allocation alloc = first_fit_allocate(paper_apps_non_monotonic());
  ASSERT_EQ(alloc.slot_count(), 3u);
  // S1 = {C3, C6}, S2 = {C2, C4}, S3 = {C5, C1} (priority order inside).
  EXPECT_EQ(alloc.slots[0], (std::vector<std::string>{"C3", "C6"}));
  EXPECT_EQ(alloc.slots[1], (std::vector<std::string>{"C2", "C4"}));
  EXPECT_EQ(alloc.slots[2], (std::vector<std::string>{"C5", "C1"}));
  for (const auto& analysis : alloc.analyses) EXPECT_TRUE(analysis.all_schedulable);
}

TEST(PaperAllocationTest, MonotonicNeedsFiveSlots) {
  const Allocation alloc = first_fit_allocate(paper_apps_monotonic());
  ASSERT_EQ(alloc.slot_count(), 5u);
  // "C3 and C6 can still share S1"; everyone else gets a dedicated slot.
  EXPECT_EQ(alloc.slots[0], (std::vector<std::string>{"C3", "C6"}));
  for (std::size_t s = 1; s < 5; ++s) EXPECT_EQ(alloc.slots[s].size(), 1u);
}

TEST(PaperAllocationTest, SixtySevenPercentMoreResources) {
  const auto non_mono = first_fit_allocate(paper_apps_non_monotonic()).slot_count();
  const auto mono = first_fit_allocate(paper_apps_monotonic()).slot_count();
  const double overhead =
      100.0 * (static_cast<double>(mono) - static_cast<double>(non_mono)) /
      static_cast<double>(non_mono);
  EXPECT_NEAR(overhead, 66.7, 1.0);
}

TEST(AllocationTest, EveryAppPlacedExactlyOnce) {
  const Allocation alloc = first_fit_allocate(paper_apps_non_monotonic());
  std::vector<std::string> seen;
  for (const auto& slot : alloc.slots)
    for (const auto& name : slot) seen.push_back(name);
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, (std::vector<std::string>{"C1", "C2", "C3", "C4", "C5", "C6"}));
}

TEST(AllocationTest, SingleAppGetsOneSlot) {
  auto apps = paper_apps_non_monotonic();
  const Allocation alloc = first_fit_allocate({apps[0]});
  EXPECT_EQ(alloc.slot_count(), 1u);
  EXPECT_TRUE(alloc.analyses[0].all_schedulable);
}

TEST(AllocationTest, InfeasibleDeadlineThrows) {
  AppSchedParams app;
  app.name = "impossible";
  app.min_inter_arrival = 10.0;
  app.deadline = 0.5;  // below xi_tt: cannot be met even alone
  app.model = std::make_shared<NonMonotonicModel>(1.0, 1.5, 0.3, 5.0);
  EXPECT_THROW(first_fit_allocate({app}), InfeasibleError);
}

TEST(AllocationTest, MaxSlotsCapEnforced) {
  AllocationOptions options;
  options.max_slots = 2;
  EXPECT_THROW(first_fit_allocate(paper_apps_non_monotonic(), options), InfeasibleError);
  options.max_slots = 3;
  EXPECT_NO_THROW(first_fit_allocate(paper_apps_non_monotonic(), options));
}

TEST(AllocationTest, FixedPointMethodNeverNeedsMoreSlots) {
  // The exact fixed point is tighter than the closed-form bound, so the
  // allocation can only improve (or stay the same).
  AllocationOptions bound_opts;  // default: closed-form bound
  AllocationOptions fp_opts;
  fp_opts.method = MaxWaitMethod::kFixedPoint;
  const auto by_bound = first_fit_allocate(paper_apps_non_monotonic(), bound_opts).slot_count();
  const auto by_fp = first_fit_allocate(paper_apps_non_monotonic(), fp_opts).slot_count();
  EXPECT_LE(by_fp, by_bound);
}

TEST(AllocationTest, IndependentOfInputOrder) {
  auto apps = paper_apps_non_monotonic();
  std::reverse(apps.begin(), apps.end());
  const Allocation alloc = first_fit_allocate(apps);
  EXPECT_EQ(alloc.slot_count(), 3u);
  EXPECT_EQ(alloc.slots[0], (std::vector<std::string>{"C3", "C6"}));
}

TEST(AllocationTest, DedicatedSlotsAlwaysWorkWhenDeadlineAboveXiTt) {
  // With one app per slot (max interference zero), any deadline above
  // xi_tt is met; the heuristic should find at most n slots.
  auto apps = paper_apps_non_monotonic();
  const Allocation alloc = first_fit_allocate(apps);
  EXPECT_LE(alloc.slot_count(), apps.size());
}

TEST(AllocationTest, ReportedAnalysesMatchSlotContents) {
  const Allocation alloc = first_fit_allocate(paper_apps_non_monotonic());
  ASSERT_EQ(alloc.analyses.size(), alloc.slots.size());
  for (std::size_t s = 0; s < alloc.slots.size(); ++s) {
    ASSERT_EQ(alloc.analyses[s].results.size(), alloc.slots[s].size());
    for (std::size_t i = 0; i < alloc.slots[s].size(); ++i)
      EXPECT_EQ(alloc.analyses[s].results[i].name, alloc.slots[s][i]);
  }
}

// ---------------------------------------------------------------------------
// Mask boundary: the allocators index slots by a 64-bit membership mask up
// to 64 applications and fall back to explicit member lists above.  At
// n = 63, 64 and 65 they must match a naive allocator over the frozen
// analyze_slot_reference exactly — n = 64 puts bit 63 into the masks and
// the memo hash, n = 65 runs the memo-less path.

/// n random applications with light interference (r = 6..30 peak dwells),
/// so slots hold many members.
std::vector<AppSchedParams> random_apps(int n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<AppSchedParams> apps;
  for (int i = 0; i < n; ++i) {
    const double xi_tt = rng.uniform(0.3, 1.5);
    const double xi_m = xi_tt * rng.uniform(1.0, 1.8);
    const double xi_et = xi_m + rng.uniform(2.0, 6.0);
    const double k_p = rng.uniform(0.05, 0.4) * xi_et;
    AppSchedParams app;
    app.name = "A" + std::to_string(i);
    app.min_inter_arrival = xi_m * rng.uniform(6.0, 30.0);
    app.deadline = std::min(app.min_inter_arrival, rng.uniform(0.6, 1.0) * xi_et);
    app.model = std::make_shared<NonMonotonicModel>(xi_tt, xi_m, k_p, xi_et);
    apps.push_back(std::move(app));
  }
  return apps;
}

double naive_load(const std::vector<AppSchedParams>& slot) {
  double load = 0.0;
  for (const auto& a : slot) load += a.model->max_dwell() / a.min_inter_arrival;
  return load;
}

/// The heuristics spelled out over analyze_slot_reference: first fit
/// takes the first slot that stays schedulable, best fit the schedulable
/// slot with the highest resulting load (earliest on ties).
std::vector<std::vector<std::string>> naive_allocate(std::vector<AppSchedParams> apps,
                                                     MaxWaitMethod method, bool best_fit) {
  sort_by_priority(apps);
  std::vector<std::vector<AppSchedParams>> slots;
  for (const auto& app : apps) {
    std::size_t chosen = slots.size();
    double best_load = -1.0;
    for (std::size_t s = 0; s < slots.size() && (best_fit || chosen == slots.size()); ++s) {
      auto candidate = slots[s];
      candidate.push_back(app);
      if (!analyze_slot_reference(candidate, method).all_schedulable) continue;
      if (!best_fit || naive_load(candidate) > best_load) {
        best_load = naive_load(candidate);
        chosen = s;
      }
    }
    if (chosen < slots.size())
      slots[chosen].push_back(app);
    else
      slots.push_back({app});
  }
  std::vector<std::vector<std::string>> names;
  for (const auto& slot : slots) {
    names.emplace_back();
    for (const auto& a : slot) names.back().push_back(a.name);
  }
  return names;
}

void expect_matches_naive_at_mask_boundary(bool best_fit) {
  for (const MaxWaitMethod method :
       {MaxWaitMethod::kClosedFormBound, MaxWaitMethod::kFixedPoint}) {
    for (const int n : {63, 64, 65}) {
      SCOPED_TRACE("n = " + std::to_string(n));
      const auto apps = random_apps(n, 0xB17563ULL + static_cast<std::uint64_t>(n));
      AllocationOptions options;
      options.method = method;
      const Allocation alloc =
          best_fit ? best_fit_allocate(apps, options) : first_fit_allocate(apps, options);
      const auto expected = naive_allocate(apps, method, best_fit);
      EXPECT_EQ(alloc.slots, expected);
      // Every slot query for the lowest-priority application carries the
      // top bit; shared slots make those queries multi-member masks.
      EXPECT_LT(alloc.slot_count(), apps.size() / 2);
    }
  }
}

TEST(MaskBoundaryTest, FirstFitMatchesNaiveAt63To65Apps) {
  expect_matches_naive_at_mask_boundary(false);
}

TEST(MaskBoundaryTest, BestFitMatchesNaiveAt63To65Apps) {
  expect_matches_naive_at_mask_boundary(true);
}

}  // namespace
