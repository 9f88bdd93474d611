// Microbenchmarks for the Figure 5 multi-application co-simulation and its
// dynamic-segment arbitration.  The figure itself is produced by
// `cps_run fig5` (src/experiments/fig5_responses.cpp).
#include "bench_common.hpp"

#include <vector>

#include "core/co_simulation.hpp"
#include "experiments/fixtures.hpp"
#include "flexray/dynamic_segment.hpp"
#include "reference/flexray_reference.hpp"

namespace {

using namespace cps;
using namespace cps::core;

void bm_cosim_six_apps(benchmark::State& state) {
  auto apps = experiments::build_paper_fleet();
  CoSimulationOptions options;
  options.horizon = 12.0;
  CoSimulator cosim(options);
  for (auto& app : apps)
    cosim.add_application(app, experiments::paper_slot_of(app.name()), {0.0});
  for (auto _ : state) {
    auto result = cosim.run();
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(bm_cosim_six_apps);

void bm_cosim_without_bus(benchmark::State& state) {
  auto apps = experiments::build_paper_fleet();
  CoSimulationOptions options;
  options.horizon = 12.0;
  options.simulate_bus = false;
  CoSimulator cosim(options);
  for (auto& app : apps)
    cosim.add_application(app, experiments::paper_slot_of(app.name()), {0.0});
  for (auto _ : state) {
    auto result = cosim.run();
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(bm_cosim_without_bus);

/// The co-simulation's last ET arbitration of a 12 s run: the six Fig. 5
/// frames (4 minislots each, ids by priority) released together at the
/// control step t = 11.98 s.  The arbiter starts at that step's cycle;
/// the frozen one replays ~2400 idle cycles from t = 0 first.
flexray::DynamicSegmentArbiter six_frame_arbiter() {
  flexray::DynamicSegmentArbiter arbiter(flexray::FlexRayConfig{});
  for (std::size_t id = 1; id <= 6; ++id) arbiter.register_frame({id, "C", 4});
  return arbiter;
}

std::vector<flexray::TransmissionRequest> late_requests() {
  std::vector<flexray::TransmissionRequest> requests;
  for (std::size_t id = 6; id >= 1; --id) requests.push_back({id, 11.98});
  return requests;
}

void bm_arbitrate_late_release(benchmark::State& state) {
  const auto arbiter = six_frame_arbiter();
  const auto requests = late_requests();
  for (auto _ : state) {
    auto results = arbiter.arbitrate(requests);
    benchmark::DoNotOptimize(results);
  }
}
BENCHMARK(bm_arbitrate_late_release);

void bm_arbitrate_late_release_reference(benchmark::State& state) {
  const auto arbiter = six_frame_arbiter();
  const auto requests = late_requests();
  for (auto _ : state) {
    auto results = flexray::arbitrate_reference(arbiter, requests);
    benchmark::DoNotOptimize(results);
  }
}
BENCHMARK(bm_arbitrate_late_release_reference);

}  // namespace

CPS_BENCHMARK_MAIN();
