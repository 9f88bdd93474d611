// Unit tests for the FlexRay bus model: cycle configuration, static-slot
// timing, dynamic-segment arbitration (including a bit-for-bit
// differential against the frozen cycle-0 arbiter) and worst-case delay
// bounds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include "flexray/bus.hpp"
#include "flexray/config.hpp"
#include "flexray/dynamic_segment.hpp"
#include "flexray/static_segment.hpp"
#include "reference/flexray_reference.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace {

using namespace cps;
using namespace cps::flexray;

FlexRayConfig case_study_config() {
  // Section V: 5 ms cycle, 2 ms static segment with 10 slots.
  FlexRayConfig cfg;
  cfg.cycle_length = 0.005;
  cfg.static_slot_count = 10;
  cfg.static_slot_length = 0.0002;
  cfg.minislot_length = 0.00005;
  return cfg;
}

TEST(ConfigTest, CaseStudyGeometry) {
  const FlexRayConfig cfg = case_study_config();
  EXPECT_NO_THROW(cfg.validate());
  EXPECT_DOUBLE_EQ(cfg.static_segment_length(), 0.002);
  EXPECT_DOUBLE_EQ(cfg.dynamic_segment_length(), 0.003);
  EXPECT_EQ(cfg.minislot_count(), 60u);
  EXPECT_DOUBLE_EQ(cfg.static_slot_offset(0), 0.0);
  EXPECT_DOUBLE_EQ(cfg.static_slot_offset(9), 0.0018);
  EXPECT_DOUBLE_EQ(cfg.cycle_start(3), 0.015);
  EXPECT_EQ(cfg.cycle_of(0.012), 2u);
}

TEST(ConfigTest, ValidationRejectsBadGeometry) {
  FlexRayConfig cfg = case_study_config();
  cfg.static_slot_count = 0;
  EXPECT_THROW(cfg.validate(), InvalidArgument);

  cfg = case_study_config();
  cfg.static_slot_length = 0.001;  // 10 x 1 ms > 5 ms cycle
  EXPECT_THROW(cfg.validate(), InvalidArgument);

  cfg = case_study_config();
  cfg.minislot_length = 0.0003;  // psi >= Psi violates psi << Psi
  EXPECT_THROW(cfg.validate(), InvalidArgument);
}

TEST(StaticScheduleTest, AssignReleaseOwnership) {
  StaticSchedule sched(case_study_config());
  sched.assign(2, 42);
  EXPECT_EQ(sched.owner(2), std::optional<std::size_t>(42));
  EXPECT_EQ(sched.slot_of(42), std::optional<std::size_t>(2));
  EXPECT_FALSE(sched.owner(3).has_value());
  // Double assignment of a taken slot is rejected.
  EXPECT_THROW(sched.assign(2, 43), InvalidArgument);
  // Re-assigning the same frame is idempotent.
  EXPECT_NO_THROW(sched.assign(2, 42));
  sched.release(2);
  EXPECT_FALSE(sched.owner(2).has_value());
}

TEST(StaticScheduleTest, CompletionTimeIsSlotEnd) {
  StaticSchedule sched(case_study_config());
  // Release exactly at cycle start: slot 0 begins immediately, completes
  // after one slot length.
  EXPECT_DOUBLE_EQ(sched.completion_time(0, 0.0), 0.0002);
  // Slot 3 of cycle 0 starts at 0.0006.
  EXPECT_DOUBLE_EQ(sched.completion_time(3, 0.0), 0.0008);
  // Releasing just after slot 3 started -> wait for the next cycle.
  EXPECT_DOUBLE_EQ(sched.completion_time(3, 0.00061), 0.005 + 0.0006 + 0.0002);
  // Release mid-cycle, slot later in the same cycle still catches it.
  EXPECT_DOUBLE_EQ(sched.completion_time(9, 0.001), 0.0018 + 0.0002);
}

TEST(StaticScheduleTest, WorstCaseDelayIsCyclePlusSlot) {
  StaticSchedule sched(case_study_config());
  EXPECT_DOUBLE_EQ(sched.worst_case_delay(), 0.005 + 0.0002);
  // No observed completion exceeds the bound.
  for (double release : {0.0, 0.0001, 0.00059, 0.0021, 0.0049, 0.005}) {
    for (std::size_t slot : {0u, 4u, 9u}) {
      const double delay = sched.completion_time(slot, release) - release;
      EXPECT_LE(delay, sched.worst_case_delay() + 1e-12);
      EXPECT_GT(delay, 0.0);
    }
  }
}

TEST(DynamicSegmentTest, RegistrationValidation) {
  DynamicSegmentArbiter arb(case_study_config());
  arb.register_frame({1, "a", 4});
  EXPECT_THROW(arb.register_frame({1, "dup", 2}), InvalidArgument);
  EXPECT_THROW(arb.register_frame({2, "zero", 0}), InvalidArgument);
  EXPECT_THROW(arb.register_frame({3, "huge", 100}), InvalidArgument);
}

TEST(DynamicSegmentTest, PriorityOrderWithinCycle) {
  DynamicSegmentArbiter arb(case_study_config());
  arb.register_frame({1, "hi", 4});
  arb.register_frame({5, "lo", 4});
  // Both released at cycle start: high priority (smaller id) first.
  auto results = arb.arbitrate({{5, 0.0}, {1, 0.0}});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_GT(results[0].completion_time, results[1].completion_time);  // id 5 after id 1
  // Completion = dynamic start (2 ms) + consumed minislots.
  EXPECT_DOUBLE_EQ(results[1].completion_time, 0.002 + 4 * 0.00005);
  EXPECT_DOUBLE_EQ(results[0].completion_time, 0.002 + 8 * 0.00005);
  EXPECT_EQ(results[0].segment, Segment::kDynamic);
}

TEST(DynamicSegmentTest, LateReleaseWaitsForNextCycle) {
  DynamicSegmentArbiter arb(case_study_config());
  arb.register_frame({1, "a", 2});
  // Released after this cycle's dynamic segment started -> next cycle.
  auto results = arb.arbitrate({{1, 0.0021}});
  EXPECT_DOUBLE_EQ(results[0].completion_time, 0.005 + 0.002 + 2 * 0.00005);
  EXPECT_GT(results[0].delay(), 0.0048);
}

TEST(DynamicSegmentTest, OverflowDefersToNextCycle) {
  DynamicSegmentArbiter arb(case_study_config());  // 60 minislots per cycle
  arb.register_frame({1, "big", 40});
  arb.register_frame({2, "second", 40});
  auto results = arb.arbitrate({{1, 0.0}, {2, 0.0}});
  // Frame 1 fits in cycle 0; frame 2 (40 more minislots) does not -> cycle 1.
  EXPECT_LT(results[0].completion_time, 0.005);
  EXPECT_GT(results[1].completion_time, 0.005);
  EXPECT_DOUBLE_EQ(results[1].completion_time, 0.005 + 0.002 + 40 * 0.00005);
}

TEST(DynamicSegmentTest, WorstCaseDelayBoundsSimulation) {
  DynamicSegmentArbiter arb(case_study_config());
  arb.register_frame({1, "hp", 10});
  arb.register_frame({2, "mid", 10});
  arb.register_frame({3, "lp", 10});
  const double bound = arb.worst_case_delay(3);
  // Adversarial releases: everything together, just after segment start.
  for (double release : {0.0, 0.0019, 0.002001, 0.0049}) {
    auto results = arb.arbitrate({{1, release}, {2, release}, {3, release}});
    EXPECT_LE(results[2].delay(), bound + 1e-12) << "release=" << release;
  }
}

TEST(DynamicSegmentTest, WorstCaseDelayGrowsWithPriority) {
  DynamicSegmentArbiter arb(case_study_config());
  arb.register_frame({1, "hp", 10});
  arb.register_frame({2, "mid", 10});
  arb.register_frame({3, "lp", 10});
  EXPECT_LT(arb.worst_case_delay(1), arb.worst_case_delay(2));
  EXPECT_LT(arb.worst_case_delay(2), arb.worst_case_delay(3));
}

TEST(DynamicSegmentTest, OverloadedSegmentThrowsInfeasible) {
  DynamicSegmentArbiter arb(case_study_config());
  arb.register_frame({1, "a", 40});
  arb.register_frame({2, "b", 40});
  EXPECT_THROW(arb.worst_case_delay(2), InfeasibleError);
}

TEST(DynamicSegmentTest, UnregisteredFrameRejected) {
  DynamicSegmentArbiter arb(case_study_config());
  EXPECT_THROW(arb.arbitrate({{9, 0.0}}), InvalidArgument);
  EXPECT_THROW(arb.worst_case_delay(9), InvalidArgument);
}

TEST(DynamicSegmentTest, NonFiniteReleaseRejected) {
  DynamicSegmentArbiter arb(case_study_config());
  arb.register_frame({1, "a", 2});
  EXPECT_THROW(arb.arbitrate({{1, -0.001}}), InvalidArgument);
  EXPECT_THROW(arb.arbitrate({{1, std::numeric_limits<double>::infinity()}}),
               InvalidArgument);
  EXPECT_THROW(arb.arbitrate({{1, std::numeric_limits<double>::quiet_NaN()}}),
               InvalidArgument);
  EXPECT_TRUE(arb.arbitrate({}).empty());
}

TEST(DynamicSegmentTest, IdenticalRequestsAreServedInRequestOrder) {
  DynamicSegmentArbiter arb(case_study_config());  // 60 minislots per cycle
  arb.register_frame({1, "a", 25});
  const std::vector<TransmissionRequest> requests(5, TransmissionRequest{1, 0.0});
  const auto results = arb.arbitrate(requests);
  for (std::size_t i = 1; i < results.size(); ++i)
    EXPECT_LT(results[i - 1].completion_time, results[i].completion_time) << i;
}

TEST(DynamicSegmentTest, LateReleaseCostsTheSameAsAnEarlyOne) {
  // Only the cycle offset differs between a release at 0 and one a whole
  // number of cycles later: the delays agree to rounding, and the late
  // arbitration is exactly the frozen arbiter's.
  DynamicSegmentArbiter arb(case_study_config());
  arb.register_frame({1, "a", 30});
  arb.register_frame({2, "b", 30});
  arb.register_frame({3, "c", 30});
  const double late = arb.config().cycle_start(2396);  // ~11.98 s
  const auto early = arb.arbitrate({{3, 0.0}, {1, 0.0}, {2, 0.0}});
  const auto shifted = arb.arbitrate({{3, late}, {1, late}, {2, late}});
  const auto frozen = arbitrate_reference(arb, {{3, late}, {1, late}, {2, late}});
  for (std::size_t i = 0; i < early.size(); ++i) {
    EXPECT_NEAR(shifted[i].delay(), early[i].delay(), 1e-9) << i;
    EXPECT_EQ(shifted[i].completion_time, frozen[i].completion_time) << i;
  }
}

/// Bitwise double equality (tells -0.0 from 0.0).
bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

void expect_same_results(const std::vector<TransmissionResult>& fast,
                         const std::vector<TransmissionResult>& frozen) {
  ASSERT_EQ(fast.size(), frozen.size());
  for (std::size_t i = 0; i < fast.size(); ++i) {
    EXPECT_EQ(fast[i].frame_id, frozen[i].frame_id) << "request " << i;
    EXPECT_TRUE(same_bits(fast[i].release_time, frozen[i].release_time)) << "request " << i;
    EXPECT_TRUE(same_bits(fast[i].completion_time, frozen[i].completion_time))
        << "request " << i << ": " << fast[i].completion_time << " vs frozen "
        << frozen[i].completion_time;
    EXPECT_EQ(fast[i].segment, frozen[i].segment) << "request " << i;
  }
}

/// Bus geometries of the differential: the case study, a dynamic segment
/// of 20 minislots, and a 3.5 ms cycle that does not divide 20 ms.
std::vector<FlexRayConfig> differential_configs() {
  std::vector<FlexRayConfig> configs(3, case_study_config());
  configs[1].minislot_length = 0.00015;
  configs[2].cycle_length = 0.0035;
  configs[2].static_slot_count = 8;
  return configs;
}

/// A random request set over `frame_ids` in one of five release patterns.
/// Pairs (frame id, release) are distinct: the frozen arbiter leaves the
/// order of identical requests to std::sort.
std::vector<TransmissionRequest> random_requests(Rng& rng, const FlexRayConfig& cfg,
                                                 const std::vector<std::size_t>& frame_ids,
                                                 int pattern) {
  const std::size_t count = static_cast<std::size_t>(rng.uniform_int(1, 24));
  const double static_len = cfg.static_segment_length();
  // Patterns 3 and 4 cluster near a base up to 2e6 cycles (10^4 s on the
  // case-study bus); the frozen arbiter replays every cycle from 0, so
  // those sets stay few.
  const std::size_t base_cycle =
      pattern >= 3 ? static_cast<std::size_t>(rng.uniform_int(0, 2000000)) : 0;
  std::set<std::pair<std::size_t, double>> seen;
  std::vector<TransmissionRequest> requests;
  for (std::size_t draw = 0; draw < 4 * count && requests.size() < count; ++draw) {
    TransmissionRequest r;
    r.frame_id = frame_ids[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(frame_ids.size()) - 1))];
    const std::size_t c = base_cycle + static_cast<std::size_t>(rng.uniform_int(0, 3));
    switch (pattern) {
      case 0:  // anywhere in four cycles from the base
      case 3:
        r.release_time =
            cfg.cycle_start(base_cycle) + rng.uniform(0.0, 4.0 * cfg.cycle_length);
        break;
      case 1:  // exactly on a dynamic-segment start
      case 4:
        r.release_time = cfg.cycle_start(c) + static_len;
        break;
      default:  // on a control-step grid (h = 20 ms), as the co-simulation
        r.release_time = 0.02 * static_cast<double>(rng.uniform_int(0, 600));
        break;
    }
    if (seen.insert({r.frame_id, r.release_time}).second) requests.push_back(r);
  }
  return requests;
}

TEST(ArbiterDifferentialTest, RandomRequestSetsMatchTheFrozenArbiterBitForBit) {
  Rng rng(0xF1E8A7B1ULL);
  int sets = 0, far_sets = 0, on_segment_start = 0, passed_over = 0;
  for (const FlexRayConfig& cfg : differential_configs()) {
    const std::size_t minislots = cfg.minislot_count();
    for (int round = 0; round < 40; ++round) {
      // A fresh frame table per round: 2-12 ids out of 1..40, payloads up
      // to half the segment, so several frames overflow a cycle.
      DynamicSegmentArbiter arb(cfg);
      std::vector<std::size_t> frame_ids;
      const int n_frames = rng.uniform_int(2, 12);
      while (static_cast<int>(frame_ids.size()) < n_frames) {
        const auto id = static_cast<std::size_t>(rng.uniform_int(1, 40));
        if (std::find(frame_ids.begin(), frame_ids.end(), id) != frame_ids.end()) continue;
        frame_ids.push_back(id);
        const int payload = rng.uniform_int(1, static_cast<int>(minislots / 2));
        arb.register_frame({id, "f", static_cast<std::size_t>(payload)});
      }
      DynamicSegmentArbiter::Workspace workspace;
      std::vector<TransmissionResult> results;
      // Every tenth round adds one set released far from zero.
      const int draws = round % 10 == 0 ? 13 : 12;
      for (int draw = 0; draw < draws; ++draw) {
        const int pattern = draw < 12 ? draw % 3 : 3 + round / 10 % 2;
        const auto requests = random_requests(rng, cfg, frame_ids, pattern);
        const auto frozen = arbitrate_reference(arb, requests);
        SCOPED_TRACE("round " + std::to_string(round) + " draw " + std::to_string(draw));
        expect_same_results(arb.arbitrate(requests), frozen);
        // The allocation-free form on a reused workspace agrees too.
        arb.arbitrate_into(requests, results, workspace);
        expect_same_results(results, frozen);

        ++sets;
        if (pattern >= 3) ++far_sets;
        if (pattern == 1 || pattern == 4)
          on_segment_start += static_cast<int>(requests.size());
        // A request served in its first admitting segment completes less
        // than a cycle plus a dynamic segment after its release.
        for (const auto& tx : frozen)
          if (tx.delay() >= cfg.cycle_length + cfg.dynamic_segment_length()) ++passed_over;
      }
    }
  }
  EXPECT_EQ(sets, 3 * (40 * 12 + 4));
  EXPECT_EQ(far_sets, 3 * 4);
  EXPECT_GT(on_segment_start, 2000);
  EXPECT_GT(passed_over, 1000) << "too few requests deferred past their first segment";
}

TEST(BusTest, StaticTransmissionRequiresSlotOwnership) {
  FlexRayBus bus(case_study_config());
  bus.register_frame({7, "ctrl", 4});
  EXPECT_THROW(bus.transmit_static(7, 0.0), InvalidArgument);
  bus.static_schedule().assign(0, 7);
  const auto tx = bus.transmit_static(7, 0.0);
  EXPECT_EQ(tx.segment, Segment::kStatic);
  EXPECT_DOUBLE_EQ(tx.completion_time, 0.0002);
  EXPECT_EQ(bus.log().size(), 1u);
}

TEST(BusTest, LogAccumulatesBothSegments) {
  FlexRayBus bus(case_study_config());
  bus.register_frame({1, "a", 2});
  bus.register_frame({2, "b", 2});
  bus.static_schedule().assign(0, 1);
  bus.transmit_static(1, 0.0);
  bus.transmit_dynamic({{2, 0.0}});
  ASSERT_EQ(bus.log().size(), 2u);
  EXPECT_EQ(bus.log()[0].segment, Segment::kStatic);
  EXPECT_EQ(bus.log()[1].segment, Segment::kDynamic);
  bus.clear_log();
  EXPECT_TRUE(bus.log().empty());
}

TEST(BusTest, TtDelayIsFarBelowEtWorstCase) {
  // The paper's premise: TT communication is far more deterministic and
  // prompt than worst-case ET.  With the case-study geometry, the static
  // worst case (5.2 ms) is below the ET bound for a low-priority frame
  // behind several others.
  FlexRayBus bus(case_study_config());
  for (std::size_t id = 1; id <= 6; ++id)
    bus.register_frame({id, "app" + std::to_string(id), 8});
  EXPECT_LT(bus.worst_case_static_delay(), bus.worst_case_dynamic_delay(6));
}

}  // namespace
