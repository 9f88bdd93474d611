// Unit and property tests for the schedulability analysis (Section IV):
// blocking and interference terms, the closed-form bounds (20)-(21), the
// fixed point of recurrence (5), and the paper's published intermediate
// numbers.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "analysis/schedulability.hpp"
#include "plants/table1.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace {

using namespace cps;
using namespace cps::analysis;

AppSchedParams make_app(std::string name, double r, double deadline, double xi_tt, double xi_m,
                        double k_p, double xi_et) {
  AppSchedParams app;
  app.name = std::move(name);
  app.min_inter_arrival = r;
  app.deadline = deadline;
  app.model = std::make_shared<NonMonotonicModel>(xi_tt, xi_m, k_p, xi_et);
  return app;
}

AppSchedParams table1_app(const plants::AppTimingParams& row) {
  return make_app(row.name, row.r, row.xi_d, row.xi_tt, row.xi_m, row.k_p, row.xi_et);
}

std::vector<AppSchedParams> paper_apps() {
  std::vector<AppSchedParams> apps;
  for (const auto& row : plants::paper_values()) apps.push_back(table1_app(row));
  sort_by_priority(apps);
  return apps;
}

TEST(PriorityTest, SortedByDeadline) {
  auto apps = paper_apps();
  // Deadlines: C3 (2) < C6 (6) < C2 (6.25) < C4 (7.5) < C5 (8.5) < C1 (9.5).
  ASSERT_EQ(apps.size(), 6u);
  EXPECT_EQ(apps[0].name, "C3");
  EXPECT_EQ(apps[1].name, "C6");
  EXPECT_EQ(apps[2].name, "C2");
  EXPECT_EQ(apps[3].name, "C4");
  EXPECT_EQ(apps[4].name, "C5");
  EXPECT_EQ(apps[5].name, "C1");
}

TEST(BlockingTest, MaxOverLowerPriorityDwells) {
  auto apps = paper_apps();
  // For the highest-priority app the blocking is the largest xi_m below it.
  double expected = 0.0;
  for (std::size_t k = 1; k < apps.size(); ++k)
    expected = std::max(expected, apps[k].model->max_dwell());
  const SlotAnalysis analysis = analyze_slot(apps);
  EXPECT_DOUBLE_EQ(analysis.results[0].blocking, expected);
  // The lowest-priority app has no one below: zero blocking.
  EXPECT_DOUBLE_EQ(analysis.results.back().blocking, 0.0);
}

TEST(InterferenceTest, UtilizationSum) {
  auto apps = paper_apps();
  // m for C2 (index 2) = xi_m3 / r3 + xi_m6 / r6.
  const double expected = 0.64 / 15.0 + 0.92 / 6.0;
  const SlotAnalysis analysis = analyze_slot(apps);
  EXPECT_NEAR(analysis.results[2].interference_util, expected, 1e-12);
  EXPECT_DOUBLE_EQ(analysis.results[0].interference_util, 0.0);
}

// ---------------------------------------------------------------------------
// The paper's published intermediate values (Section V, slot S1 = {C3, C6}).

TEST(PaperNumbersTest, MaxWaitOfC6SharingWithC3) {
  // "According to (20), the maximum wait time k_hat_wait,6 = 0.669."
  std::vector<AppSchedParams> slot{table1_app(plants::paper_values()[2]),   // C3
                                   table1_app(plants::paper_values()[5])};  // C6
  sort_by_priority(slot);
  ASSERT_EQ(slot[1].name, "C6");
  const auto k_hat = max_wait_bound(slot, 1);
  ASSERT_TRUE(k_hat.has_value());
  EXPECT_NEAR(*k_hat, 0.669, 5e-4);
  // "...used to compute the worst-case response time xi_hat_6 = 1.589."
  EXPECT_NEAR(slot[1].model->response(*k_hat), 1.589, 2e-3);
}

TEST(PaperNumbersTest, MaxWaitOfC3SharingWithC6) {
  // "the maximum wait time k_hat_wait,3 = xi_M_6 = 0.92, ... the
  //  worst-case response time xi_hat_3 = 1.515."
  std::vector<AppSchedParams> slot{table1_app(plants::paper_values()[2]),
                                   table1_app(plants::paper_values()[5])};
  sort_by_priority(slot);
  const auto k_hat = max_wait_bound(slot, 0);
  ASSERT_TRUE(k_hat.has_value());
  EXPECT_NEAR(*k_hat, 0.92, 1e-12);
  EXPECT_NEAR(slot[0].model->response(*k_hat), 1.515, 2e-3);
}

TEST(PaperNumbersTest, C3NotSchedulableWhenC2Joins) {
  // Adding C2 to S1 makes C3 unschedulable (Section V).
  std::vector<AppSchedParams> slot{table1_app(plants::paper_values()[2]),
                                   table1_app(plants::paper_values()[5]),
                                   table1_app(plants::paper_values()[1])};
  const SlotAnalysis analysis = analyze_slot(slot);
  EXPECT_FALSE(analysis.all_schedulable);
  EXPECT_EQ(analysis.results[0].name, "C3");
  EXPECT_FALSE(analysis.results[0].schedulable);
  // C3's blocking is now max(xi_m6, xi_m2) = 2.95.
  EXPECT_NEAR(analysis.results[0].blocking, 2.95, 1e-12);
}

TEST(PaperNumbersTest, MonotonicCaseC2C4Clash) {
  // Monotonic analysis: k_hat'_2 = xi'_M4 = 4.94 -> xi_hat'_2 = 6.426 >
  // 6.25, so C2 is not schedulable with C4 (Section V).
  const auto rows = plants::paper_values();
  auto mono_app = [&](std::size_t i) {
    AppSchedParams app;
    app.name = rows[i].name;
    app.min_inter_arrival = rows[i].r;
    app.deadline = rows[i].xi_d;
    app.model = std::make_shared<ConservativeMonotonicModel>(rows[i].xi_m_mono, rows[i].xi_et);
    return app;
  };
  std::vector<AppSchedParams> slot{mono_app(1), mono_app(3)};  // C2, C4
  sort_by_priority(slot);
  ASSERT_EQ(slot[0].name, "C2");
  const auto k_hat = max_wait_bound(slot, 0);
  ASSERT_TRUE(k_hat.has_value());
  EXPECT_NEAR(*k_hat, 4.94, 1e-12);
  EXPECT_NEAR(slot[0].model->response(*k_hat), 6.426, 2e-3);
  EXPECT_FALSE(analyze_slot(slot).all_schedulable);
}

// ---------------------------------------------------------------------------
// Fixed point and bound properties.

TEST(FixedPointTest, EqualsBlockingWhenNoHigherPriority) {
  auto apps = paper_apps();
  const auto fp = max_wait_fixed_point(apps, 0);
  ASSERT_TRUE(fp.has_value());
  EXPECT_DOUBLE_EQ(*fp, analyze_slot(apps).results[0].blocking);
}

TEST(FixedPointTest, SatisfiesRecurrence) {
  auto apps = paper_apps();
  const SlotAnalysis analysis = analyze_slot(apps);
  for (std::size_t i = 0; i < apps.size(); ++i) {
    const auto fp = max_wait_fixed_point(apps, i);
    ASSERT_TRUE(fp.has_value()) << i;
    // k = a + sum ceil(k / r_j) xi_m_j must hold at the fixed point (with
    // at least one arrival per higher-priority app).
    double rhs = analysis.results[i].blocking;
    for (std::size_t j = 0; j < i; ++j) {
      const double arrivals =
          std::max(1.0, std::ceil(*fp / apps[j].min_inter_arrival - 1e-12));
      rhs += arrivals * apps[j].model->max_dwell();
    }
    EXPECT_NEAR(*fp, rhs, 1e-9) << i;
  }
}

class BoundBracketing : public ::testing::TestWithParam<int> {};

TEST_P(BoundBracketing, FixedPointLiesWithinTheClosedFormBounds) {
  // Property (Eqs. 20-21): a / (1-m) <= k_hat_fixed_point < a' / (1-m),
  // for random application sets with m < 1.
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729u + 17u);
  const int n = rng.uniform_int(2, 6);
  std::vector<AppSchedParams> apps;
  for (int i = 0; i < n; ++i) {
    const double xi_tt = rng.uniform(0.2, 1.5);
    const double xi_m = xi_tt + rng.uniform(0.0, 1.5);
    const double xi_et = xi_m + rng.uniform(1.0, 6.0);
    const double k_p = rng.uniform(0.0, 0.8) * xi_et * 0.5;
    const double r = rng.uniform(4.0, 60.0) * xi_m;  // keeps m < 1
    const double deadline = std::min(r, xi_et + rng.uniform(0.0, 3.0));
    apps.push_back(make_app("A" + std::to_string(i), r, deadline, xi_tt, xi_m, k_p, xi_et));
  }
  sort_by_priority(apps);
  const SlotAnalysis analysis = analyze_slot(apps);
  for (std::size_t i = 0; i < apps.size(); ++i) {
    if (analysis.results[i].interference_util >= 1.0) continue;
    const auto lower = max_wait_lower_bound(apps, i);
    const auto upper = max_wait_bound(apps, i);
    const auto fp = max_wait_fixed_point(apps, i);
    ASSERT_TRUE(lower && upper && fp);
    EXPECT_LE(*lower, *fp + 1e-9) << "i=" << i;
    EXPECT_LT(*fp, *upper + 1e-9) << "i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomAppSets, BoundBracketing, ::testing::Range(0, 30));

TEST(BoundTest, OverUtilizationReturnsNullopt) {
  // Higher-priority app with xi_m / r >= 1 saturates the slot.
  std::vector<AppSchedParams> apps{make_app("hp", 1.0, 1.0, 0.5, 1.0, 0.2, 3.0),
                                   make_app("lp", 10.0, 10.0, 0.5, 1.0, 0.2, 3.0)};
  sort_by_priority(apps);
  ASSERT_EQ(apps[0].name, "hp");
  EXPECT_FALSE(max_wait_bound(apps, 1).has_value());
  EXPECT_FALSE(max_wait_fixed_point(apps, 1).has_value());
  const SlotAnalysis analysis = analyze_slot(apps);
  EXPECT_FALSE(analysis.all_schedulable);
  EXPECT_FALSE(analysis.results[1].utilization_feasible);
}

TEST(BoundTest, UpperBoundIsConservativeVersusFixedPoint) {
  auto apps = paper_apps();
  for (std::size_t i = 0; i < apps.size(); ++i) {
    const auto fp = max_wait_fixed_point(apps, i);
    const auto ub = max_wait_bound(apps, i);
    ASSERT_TRUE(fp && ub);
    EXPECT_LE(*fp, *ub + 1e-9) << "i=" << i;
  }
}

TEST(AnalyzeSlotTest, SingleAppAloneUsesZeroWait) {
  std::vector<AppSchedParams> apps{make_app("solo", 10.0, 5.0, 1.0, 1.5, 0.4, 4.0)};
  const SlotAnalysis analysis = analyze_slot(apps);
  ASSERT_EQ(analysis.results.size(), 1u);
  EXPECT_DOUBLE_EQ(analysis.results[0].max_wait, 0.0);
  EXPECT_DOUBLE_EQ(analysis.results[0].response, 1.0);  // dwell at zero wait = xi_tt
  EXPECT_TRUE(analysis.results[0].schedulable);
}

TEST(AnalyzeSlotTest, ValidationErrors) {
  EXPECT_THROW(analyze_slot({}), InvalidArgument);
  AppSchedParams bad;
  bad.name = "no-model";
  bad.min_inter_arrival = 1.0;
  bad.deadline = 1.0;
  EXPECT_THROW(analyze_slot({bad}), InvalidArgument);
}

TEST(AnalyzeSlotTest, MethodChoiceAffectsTightness) {
  auto apps = paper_apps();
  const SlotAnalysis by_bound = analyze_slot(apps, MaxWaitMethod::kClosedFormBound);
  const SlotAnalysis by_fp = analyze_slot(apps, MaxWaitMethod::kFixedPoint);
  for (std::size_t i = 0; i < apps.size(); ++i) {
    EXPECT_LE(by_fp.results[i].max_wait, by_bound.results[i].max_wait + 1e-9);
  }
}

}  // namespace
