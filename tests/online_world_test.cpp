// Online world tests: the tick engine's determinism contract (identical
// scenario + seed => byte-identical event log, at any advance() call
// pattern), the sim-time/wall-clock decoupling, and the semantics of
// each fault kind as seen through the world.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "online/scenario.hpp"
#include "online/world.hpp"
#include "util/toml.hpp"

namespace {

using namespace cps;
using cps::online::ScenarioSpec;
using cps::online::World;

ScenarioSpec parse_scenario(const std::string& text) {
  return online::make_scenario(util::parse_toml(text, "s.toml"), "s.toml");
}

/// The churn demo: slot loss, drift, frame loss and join/leave over a
/// small fleet — every event kind except an outage.
ScenarioSpec churn_scenario() {
  return parse_scenario(
      "scenario_version = 1\n"
      "[scenario]\nname = \"churn\"\nticks = 24\ntick_seconds = 0.5\n"
      "[fleet]\nn_apps = 6\nutilization = 1.5\n"
      "[[event]]\nat_tick = 4\nkind = \"drop_slot\"\n"
      "[[event]]\nat_tick = 8\nkind = \"drift\"\napp = \"G1\"\nfactor = 1.3\n"
      "[[event]]\nat_tick = 10\nkind = \"drop_frames\"\napp = \"G3\"\nfactor = 1.4\n"
      "[[event]]\nat_tick = 12\nkind = \"join\"\napp = \"H\"\nr = 20.0\n"
      "deadline = 15.0\nxi_tt = 0.4\nxi_m = 1.2\nk_p = 0.4\nxi_et = 1.6\n"
      "[[event]]\nat_tick = 16\nkind = \"leave\"\napp = \"G0\"\n"
      "[[event]]\nat_tick = 18\nkind = \"delay_frames\"\napp = \"G2\"\ndelay = 0.5\n");
}

/// The event log as the CSV bytes the golden/CI comparisons see.
std::string csv_bytes(const World& world) {
  const auto path = (std::filesystem::temp_directory_path() /
                     ("cps-world-test-" + std::to_string(::getpid()) + ".csv"))
                        .string();
  online::write_event_log_csv(path, world);
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  std::filesystem::remove(path);
  return text.str();
}

TEST(WorldDeterminismTest, SameScenarioAndSeedGiveByteIdenticalEventLogs) {
  World a(churn_scenario(), 7);
  World b(churn_scenario(), 7);
  a.run();
  b.run();
  EXPECT_EQ(csv_bytes(a), csv_bytes(b));
  // A different seed draws different arrival streams (and possibly a
  // different fleet), so the log must differ — the seed is load-bearing.
  World c(churn_scenario(), 8);
  c.run();
  EXPECT_NE(csv_bytes(a), csv_bytes(c));
}

TEST(WorldDeterminismTest, AdvanceCallPatternIsIrrelevant) {
  // Sim time advances ONLY as ticks compute: single-stepping the whole
  // scenario replays exactly what one run() call produces.
  World stepped(churn_scenario(), 7);
  World batched(churn_scenario(), 7);
  std::uint64_t steps = 0;
  while (!stepped.done()) {
    ASSERT_EQ(stepped.advance(1), 1u);
    ++steps;
    EXPECT_DOUBLE_EQ(stepped.sim_time(),
                     static_cast<double>(stepped.tick()) * stepped.scenario().tick_seconds);
  }
  batched.run();
  EXPECT_EQ(steps, stepped.scenario().ticks);
  EXPECT_EQ(stepped.advance(5), 0u);  // past the end: nothing computes
  EXPECT_EQ(csv_bytes(stepped), csv_bytes(batched));
}

TEST(WorldSemanticsTest, EventsReshapeTheFleetAndTheLogRecordsThem) {
  World world(churn_scenario(), 7);
  EXPECT_EQ(world.app_names().size(), 6u);  // G0..G5 resident at tick 0
  world.run();

  // Churn: H joined, G0 left.
  const auto names = world.app_names();
  EXPECT_EQ(names.size(), 6u);
  EXPECT_NE(std::find(names.begin(), names.end(), "H"), names.end());
  EXPECT_EQ(std::find(names.begin(), names.end(), "G0"), names.end());

  // The log: one init row first, one row per fired event, one end row
  // last, and a report per re-allocation (init + 6 events).
  const auto& log = world.event_log();
  ASSERT_GE(log.size(), 8u);
  EXPECT_EQ(log.front().event, "init");
  EXPECT_EQ(log.front().tick, 0u);
  EXPECT_EQ(log.back().event, "end");
  for (const char* kind : {"drop_slot", "drift", "drop_frames", "join", "leave",
                           "delay_frames"}) {
    EXPECT_TRUE(std::any_of(log.begin(), log.end(),
                            [&](const online::EventLogRow& row) { return row.event == kind; }))
        << kind;
  }
  ASSERT_EQ(world.reports().size(), 7u);
  EXPECT_EQ(world.reports().front().trigger, "init");
  EXPECT_EQ(world.reports()[1].trigger, "drop_slot");

  // Ticks are monotone in the log, and the world actually simulated.
  for (std::size_t i = 1; i < log.size(); ++i) EXPECT_GE(log[i].tick, log[i - 1].tick);
  EXPECT_GT(world.total_arrivals(), 0u);
  EXPECT_TRUE(world.done());
}

TEST(WorldSemanticsTest, DropSlotExhaustionIsAnAbsorbingOutage) {
  // A one-slot budget and one drop_slot: every slot is gone, the world
  // degrades to an empty allocation, and every later arrival misses.
  const ScenarioSpec scenario = parse_scenario(
      "scenario_version = 1\n"
      "[scenario]\nname = \"outage\"\nticks = 30\ntick_seconds = 1.0\n"
      "[fleet]\nn_apps = 3\nutilization = 0.6\nslot_budget = 1\n"
      "[[event]]\nat_tick = 5\nkind = \"drop_slot\"\n");
  World world(scenario, 7);
  world.run();
  EXPECT_TRUE(world.outage());
  EXPECT_FALSE(world.feasible());
  EXPECT_EQ(world.allocation().slot_count(), 0u);
  EXPECT_GT(world.total_misses(), 0u);
  // Before the outage the budgeted slot was the whole allocation.
  EXPECT_EQ(world.event_log().front().slots, 1u);
  // Still deterministic all the way through the outage.
  World again(scenario, 7);
  again.run();
  EXPECT_EQ(csv_bytes(world), csv_bytes(again));
}

}  // namespace
