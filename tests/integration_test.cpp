// Cross-module integration tests: the full paper pipeline on the Table I
// fleet, consistency between the analytical worst cases and co-simulated
// behaviour, and the end-to-end reproduction invariants.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/slot_allocation.hpp"
#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "plants/servo_motor.hpp"
#include "plants/disturbance.hpp"
#include "plants/table1.hpp"
#include "util/rng.hpp"
#include "util/error.hpp"

namespace {

using namespace cps;
using namespace cps::core;

/// Build synthesized applications as ControlApplications.
std::vector<ControlApplication> applications_of(
    const std::vector<plants::SynthesizedApp>& fleet) {
  std::vector<ControlApplication> apps;
  apps.reserve(fleet.size());  // the co-simulator keeps pointers into apps
  for (const auto& item : fleet) {
    auto design = control::design_hybrid_loops(item.plant, item.spec);
    TimingRequirements req{item.target.r, item.target.xi_d, item.threshold};
    apps.emplace_back(item.target.name, std::move(design), req, item.x0);
  }
  return apps;
}

/// The synthesized Table I fleet.
std::vector<ControlApplication> synthesized_applications() {
  return applications_of(plants::synthesize_fleet());
}

TEST(IntegrationTest, FullPipelineOnSynthesizedFleetMeetsAllDeadlines) {
  HybridCommDesign design;
  for (auto& app : synthesized_applications()) design.add_application(std::move(app));

  PipelineOptions options;
  options.cosim.horizon = 14.0;
  const PipelineResult result = design.run(options);

  ASSERT_EQ(result.summaries.size(), 6u);
  for (const auto& s : result.summaries)
    EXPECT_TRUE(s.curve_non_monotonic) << s.name << " curve should be non-monotonic";

  // The allocation uses at most 2/3 of the six dedicated slots.
  EXPECT_LE(result.slot_count(), 4u);
  for (const auto& analysis : result.allocation.analyses)
    EXPECT_TRUE(analysis.all_schedulable);

  ASSERT_TRUE(result.verification.has_value());
  EXPECT_TRUE(result.verification->all_deadlines_met);
}

TEST(IntegrationTest, CoSimulatedResponseRespectsAnalyticalWorstCase) {
  // For each app in the pipeline allocation, the co-simulated response
  // (disturbances at t = 0, which is benign compared to the analytical
  // adversarial scenario) must not exceed the analytical worst case.
  HybridCommDesign design;
  for (auto& app : synthesized_applications()) design.add_application(std::move(app));
  PipelineOptions options;
  options.cosim.horizon = 14.0;
  const PipelineResult result = design.run(options);
  ASSERT_TRUE(result.verification.has_value());

  for (const auto& app_result : result.verification->apps) {
    double analytical = 0.0;
    for (const auto& analysis : result.allocation.analyses)
      for (const auto& r : analysis.results)
        if (r.name == app_result.name) analytical = r.response;
    ASSERT_GT(analytical, 0.0) << app_result.name;
    EXPECT_LE(app_result.worst_response, analytical + 1e-9)
        << app_result.name << ": simulation exceeded the analytical worst case";
  }
}

TEST(IntegrationTest, PaperAllocationVerifiesOnSynthesizedPlants) {
  // Apply the paper's published 3-slot allocation (S1 = {C3, C6},
  // S2 = {C2, C4}, S3 = {C5, C1}) to the synthesized plants and verify by
  // co-simulation that all deadlines hold (Fig. 5).
  auto apps = synthesized_applications();
  CoSimulationOptions options;
  options.horizon = 14.0;
  CoSimulator cosim(options);
  const std::vector<std::pair<std::string, std::size_t>> slots{
      {"C3", 0}, {"C6", 0}, {"C2", 1}, {"C4", 1}, {"C5", 2}, {"C1", 2}};
  for (auto& app : apps) {
    for (const auto& [name, slot] : slots)
      if (app.name() == name) cosim.add_application(app, slot, {0.0});
  }
  const auto result = cosim.run();
  EXPECT_TRUE(result.all_deadlines_met);
  for (const auto& r : result.apps)
    EXPECT_TRUE(r.all_deadlines_met) << r.name << " missed its deadline";
}

TEST(IntegrationTest, MonotonicModelNeverBeatsNonMonotonicOnSlots) {
  // The paper's resource argument: the conservative monotonic model can
  // only require at least as many TT slots as the non-monotonic one.
  HybridCommDesign design;
  for (auto& app : synthesized_applications()) design.add_application(std::move(app));

  PipelineOptions non_mono;
  non_mono.verify = false;
  const auto slots_non_mono = design.run(non_mono).slot_count();

  PipelineOptions mono;
  mono.model_kind = ControlApplication::ModelKind::kConservativeMonotonic;
  mono.verify = false;
  const auto slots_mono = design.run(mono).slot_count();

  EXPECT_GE(slots_mono, slots_non_mono);
}

TEST(IntegrationTest, ConcaveEnvelopeIsAtLeastAsGoodAsTent) {
  // Envelope-granularity ablation invariant: the tighter concave hull can
  // never need more slots than the two-piece tent.
  HybridCommDesign design;
  for (auto& app : synthesized_applications()) design.add_application(std::move(app));

  PipelineOptions tent;
  tent.verify = false;
  const auto slots_tent = design.run(tent).slot_count();

  PipelineOptions hull;
  hull.model_kind = ControlApplication::ModelKind::kConcave;
  hull.verify = false;
  const auto slots_hull = design.run(hull).slot_count();

  EXPECT_LE(slots_hull, slots_tent);
}

TEST(IntegrationTest, ServoAppWorstCaseScenarioCoSim) {
  // Engineer the analytical worst case for a two-app slot and check the
  // co-simulated response stays within the analytical bound: the lower
  // priority app's disturbance arrives exactly when the higher-priority
  // app's dwell starts.
  auto design_a = plants::design_servo_loops();
  auto design_b = plants::design_servo_loops();
  const plants::ServoExperiment exp;
  const linalg::Vector x0{exp.disturbance_angle, 0.0};
  ControlApplication hi("hi", std::move(design_a), {10.0, 3.0, exp.threshold}, x0);
  ControlApplication lo("lo", std::move(design_b), {10.0, 8.0, exp.threshold}, x0);

  hi.fit_model(ControlApplication::ModelKind::kNonMonotonic);
  lo.fit_model(ControlApplication::ModelKind::kNonMonotonic);
  const auto analysis = analysis::analyze_slot({hi.sched_params(), lo.sched_params()});
  ASSERT_TRUE(analysis.all_schedulable);
  const double lo_bound = analysis.results[1].response;

  CoSimulationOptions options;
  options.horizon = 12.0;
  CoSimulator cosim(options);
  cosim.add_application(hi, 0, {0.0});
  cosim.add_application(lo, 0, {0.0});  // simultaneous: lo must wait for hi
  const auto result = cosim.run();
  ASSERT_EQ(result.apps.size(), 2u);
  EXPECT_LE(result.apps[1].worst_response, lo_bound + 1e-9);
  EXPECT_TRUE(result.apps[1].all_deadlines_met);
}

class SporadicCampaign : public ::testing::TestWithParam<int> {};

TEST_P(SporadicCampaign, RandomSporadicDisturbancesNeverExceedAnalyticalBound) {
  // Long-horizon property check of the whole analysis chain: random
  // sporadic disturbances (respecting each app's minimum inter-arrival
  // time) on the pipeline's own allocation — every observed response must
  // stay within the analytical worst case, and every deadline must hold.
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 92821u + 5u);

  HybridCommDesign design;
  for (auto& app : synthesized_applications()) design.add_application(std::move(app));
  PipelineOptions options;
  options.verify = false;
  const PipelineResult pipeline = design.run(options);

  CoSimulationOptions cosim_options;
  cosim_options.horizon = 60.0;
  CoSimulator cosim(cosim_options);
  for (auto& app : design.applications()) {
    std::size_t slot = 0;
    for (std::size_t si = 0; si < pipeline.allocation.slots.size(); ++si)
      for (const auto& name : pipeline.allocation.slots[si])
        if (name == app.name()) slot = si;
    plants::SporadicDisturbance process(app.timing().min_inter_arrival,
                                        0.5 * app.timing().min_inter_arrival,
                                        Rng(rng.engine()()));
    cosim.add_application(app, slot, process.arrivals(cosim_options.horizon));
  }
  const CoSimulationResult result = cosim.run();

  for (const auto& app_result : result.apps) {
    double analytical = 0.0;
    for (const auto& analysis : pipeline.allocation.analyses)
      for (const auto& r : analysis.results)
        if (r.name == app_result.name) analytical = r.response;
    // A disturbance arriving mid-sample is only seen at the next control
    // step, so the measured response includes up to one sampling period of
    // alignment on top of the analytical (step-quantized) bound.
    const double h = design.applications().front().sampling_period();
    for (std::size_t d = 0; d < app_result.response_times.size(); ++d) {
      EXPECT_LE(app_result.response_times[d], analytical + h + 1e-9)
          << app_result.name << " disturbance " << d;
    }
    EXPECT_TRUE(app_result.all_deadlines_met) << app_result.name;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSchedules, SporadicCampaign, ::testing::Range(0, 5));

TEST(IntegrationTest, ReportsRenderForTheFullFleet) {
  HybridCommDesign design;
  for (auto& app : synthesized_applications()) design.add_application(std::move(app));
  PipelineOptions options;
  options.cosim.horizon = 14.0;
  const PipelineResult result = design.run(options);
  EXPECT_FALSE(render_summaries(result.summaries).empty());
  EXPECT_FALSE(render_allocation(result.allocation).empty());
  ASSERT_TRUE(result.verification.has_value());
  EXPECT_FALSE(render_cosim(*result.verification).empty());
  for (const auto& app : result.verification->apps)
    EXPECT_FALSE(render_response_ascii(app, 0.1).empty());
}

/// FNV-1a over a co-simulation result, doubles by bit pattern.
class ResultDigest {
 public:
  void add_byte(unsigned char b) {
    hash_ ^= b;
    hash_ *= 0x100000001B3ULL;
  }
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) add_byte(static_cast<unsigned char>(v >> (8 * i)));
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(const std::string& s) {
    add(static_cast<std::uint64_t>(s.size()));
    for (char c : s) add_byte(static_cast<unsigned char>(c));
  }
  void add(const std::vector<double>& values) {
    add(static_cast<std::uint64_t>(values.size()));
    for (double v : values) add(v);
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

/// Digest of a co-simulation result: the mode of every step, slot
/// timelines, response times, deadline verdicts and the observed bus
/// delays, doubles bit for bit.  The raw states and norms are left out:
/// the loop designs' gains, and so the trajectories, differ in the last
/// bits between optimized and unoptimized builds; fig5_responses.csv
/// pins the norms at its printed precision.
std::string cosim_digest(const CoSimulationResult& result) {
  ResultDigest d;
  d.add(static_cast<std::uint64_t>(result.all_deadlines_met));
  d.add(static_cast<std::uint64_t>(result.apps.size()));
  for (const auto& app : result.apps) {
    d.add(app.name);
    d.add(static_cast<std::uint64_t>(app.slot));
    d.add(app.trajectory.sampling_period());
    d.add(static_cast<std::uint64_t>(app.trajectory.length()));
    for (const auto& sample : app.trajectory.samples())
      d.add(static_cast<std::uint64_t>(sample.mode == sim::Mode::kTimeTriggered));
    d.add(app.disturbance_times);
    d.add(app.response_times);
    d.add(static_cast<std::uint64_t>(app.all_deadlines_met));
    d.add(app.worst_response);
    d.add(static_cast<std::uint64_t>(app.steady_state_excursions));
    d.add(app.max_tt_delay);
    d.add(app.max_et_delay);
  }
  d.add(static_cast<std::uint64_t>(result.slots.size()));
  for (const auto& slot : result.slots) {
    d.add(slot.sampling_period);
    d.add(static_cast<std::uint64_t>(slot.owner.size()));
    for (std::size_t owner : slot.owner) d.add(static_cast<std::uint64_t>(owner));
  }
  return d.hex();
}

/// One pinned co-simulation: slot and disturbances per application.
struct CoSimCase {
  std::string name;
  const std::vector<ControlApplication>* fleet;
  std::vector<std::size_t> slots;
  std::vector<std::vector<double>> disturbances;
  CoSimulationOptions options;
};

TEST(CoSimDigestTest, OutputsMatchTheFrozenDigests) {
  // Pins what no CSV golden covers: per-step modes, slot timelines,
  // response times and the observed TT/ET bus delays, over the paper
  // fleet and two synthesized fleets, several slot maps, multi-disturbance
  // schedules, release factors and bus geometries (a dynamic segment too
  // short for every frame, a cycle that does not divide the sampling
  // period).  tests/golden/cosim_digests.txt holds one "<case> <digest>"
  // line per case, generated before the linear-time arbiter.
  const auto paper = synthesized_applications();
  const auto extra6 = applications_of(plants::synthesize_extra_fleet(6, 0xC05111ULL));
  const auto extra8 = applications_of(plants::synthesize_extra_fleet(8, 0xF1EE7ULL));

  auto paper_slot = [](const std::string& name) -> std::size_t {
    if (name == "C3" || name == "C6") return 0;
    if (name == "C2" || name == "C4") return 1;
    return 2;  // C5, C1
  };
  auto make = [](std::string name, const std::vector<ControlApplication>& fleet,
                 auto slot_of, auto disturbances_of) {
    CoSimCase c{std::move(name), &fleet, {}, {}, {}};
    for (std::size_t i = 0; i < fleet.size(); ++i) {
      c.slots.push_back(slot_of(i));
      c.disturbances.push_back(disturbances_of(i));
    }
    return c;
  };
  auto at_zero = [](std::size_t) { return std::vector<double>{0.0}; };
  auto staggered = [](std::size_t i) {
    const double di = static_cast<double>(i);
    return std::vector<double>{0.013 * di, 4.0 + 0.5 * di, 9.37};
  };
  auto paper_slots = [&](std::size_t i) { return paper_slot(paper[i].name()); };
  auto one_slot = [](std::size_t) { return std::size_t{0}; };
  auto own_slots = [](std::size_t i) { return i; };

  std::vector<CoSimCase> cases;
  cases.push_back(make("paper_fig5", paper, paper_slots, at_zero));
  cases.push_back(make("paper_one_slot", paper, one_slot, at_zero));
  cases.push_back(make("paper_own_slots", paper, own_slots, at_zero));
  {
    auto c = make("paper_staggered_hysteresis", paper, paper_slots, staggered);
    c.options.horizon = 14.0;
    c.options.release_factor = 0.5;
    cases.push_back(std::move(c));
  }
  {
    auto c = make("paper_staggered_no_bus", paper, paper_slots, staggered);
    c.options.simulate_bus = false;
    cases.push_back(std::move(c));
  }
  {
    // 20 minislots: five 4-minislot frames per cycle, so ET frames are
    // passed over and wait for later cycles.
    auto c = make("paper_one_slot_short_dynamic_segment", paper, one_slot, staggered);
    c.options.bus_config.minislot_length = 0.00015;
    c.options.release_factor = 0.8;
    cases.push_back(std::move(c));
  }
  {
    // 3.5 ms cycle, 8 static slots: releases at k * 20 ms fall at every
    // phase of the cycle.
    auto c = make("paper_odd_cycle", paper, paper_slots, staggered);
    c.options.bus_config.cycle_length = 0.0035;
    c.options.bus_config.static_slot_count = 8;
    cases.push_back(std::move(c));
  }
  cases.push_back(make("extra6_two_slots", extra6, [](std::size_t i) { return i % 2; },
                       at_zero));
  {
    auto c = make("extra6_one_slot_staggered", extra6, one_slot, staggered);
    c.options.release_factor = 0.7;
    c.options.horizon = 11.0;
    cases.push_back(std::move(c));
  }
  {
    auto c = make("extra8_three_slots_short_dynamic_segment", extra8,
                  [](std::size_t i) { return i % 3; },
                  [](std::size_t i) {
                    return std::vector<double>{0.0, 5.0 + 0.02 * static_cast<double>(i)};
                  });
    c.options.bus_config.minislot_length = 0.00015;
    c.options.release_factor = 0.7;
    cases.push_back(std::move(c));
  }
  {
    auto c = make("extra8_one_slot_6ms_cycle", extra8, one_slot,
                  [](std::size_t) { return std::vector<double>{0.0, 6.0}; });
    c.options.bus_config.cycle_length = 0.006;
    cases.push_back(std::move(c));
  }

  std::map<std::string, std::string> golden;
  {
    std::ifstream in(std::string(CPS_REPO_DIR) + "/tests/golden/cosim_digests.txt");
    ASSERT_TRUE(in.good()) << "cannot open tests/golden/cosim_digests.txt";
    std::string name, digest;
    while (in >> name >> digest) golden[name] = digest;
  }
  EXPECT_EQ(golden.size(), cases.size());
  for (const auto& c : cases) {
    CoSimulator cosim(c.options);
    for (std::size_t i = 0; i < c.fleet->size(); ++i)
      cosim.add_application((*c.fleet)[i], c.slots[i], c.disturbances[i]);
    EXPECT_EQ(cosim_digest(cosim.run()), golden[c.name]) << c.name;
  }
}

}  // namespace
