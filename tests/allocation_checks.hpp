// Field-by-field equality checks of slot analyses and allocations, doubles
// bit for bit, shared by the analysis test suites that compare an
// optimized allocator or analysis against its frozen reference or against
// itself on a permuted input.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "analysis/dwell_wait_model.hpp"
#include "analysis/schedulability.hpp"
#include "analysis/slot_allocation.hpp"

namespace cps::analysis {

/// Bitwise double equality: tells -0.0 from 0.0 and matches NaN payloads.
inline void expect_bits(double optimized, double reference, const char* field) {
  EXPECT_TRUE(bits_equal(optimized, reference))
      << field << ": " << optimized << " vs reference " << reference;
}

/// Every AppSchedResult field, doubles bit for bit.
inline void expect_same_result(const AppSchedResult& a, const AppSchedResult& b) {
  EXPECT_EQ(a.name, b.name);
  expect_bits(a.blocking, b.blocking, "blocking");
  expect_bits(a.interference_util, b.interference_util, "interference_util");
  expect_bits(a.max_wait, b.max_wait, "max_wait");
  expect_bits(a.response, b.response, "response");
  expect_bits(a.deadline, b.deadline, "deadline");
  EXPECT_EQ(a.schedulable, b.schedulable);
  EXPECT_EQ(a.utilization_feasible, b.utilization_feasible);
}

inline void expect_same_analysis(const SlotAnalysis& a, const SlotAnalysis& b) {
  EXPECT_EQ(a.all_schedulable, b.all_schedulable);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    SCOPED_TRACE("member " + std::to_string(i));
    expect_same_result(a.results[i], b.results[i]);
  }
}

/// The same partition (apps, slots and order) and every slot's analysis.
inline void expect_same_allocation(const Allocation& optimized, const Allocation& reference) {
  ASSERT_EQ(optimized.slot_count(), reference.slot_count());
  EXPECT_EQ(optimized.slots, reference.slots);  // same apps, same slots, same order
  ASSERT_EQ(optimized.analyses.size(), reference.analyses.size());
  for (std::size_t s = 0; s < optimized.analyses.size(); ++s) {
    SCOPED_TRACE("slot " + std::to_string(s));
    expect_same_analysis(optimized.analyses[s], reference.analyses[s]);
  }
}

}  // namespace cps::analysis
