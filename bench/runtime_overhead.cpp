// Microbenchmarks for the runtime layer itself: ThreadPool submit/drain
// overhead, SweepRunner fan-out cost relative to an inline loop, and the
// FixtureCache hit path.  These bound the fixed cost every parallel
// experiment pays.
#include "bench_common.hpp"

#include <cstddef>
#include <future>
#include <string>
#include <vector>

#include "runtime/fixture_cache.hpp"
#include "runtime/sweep_runner.hpp"
#include "runtime/thread_pool.hpp"

namespace {

using namespace cps::runtime;

void bm_pool_submit_drain(benchmark::State& state) {
  const std::size_t tasks = static_cast<std::size_t>(state.range(0));
  ThreadPool pool(2);  // outside the timed loop: measure queue ops, not thread spawn
  for (auto _ : state) {
    std::vector<std::future<std::size_t>> futures;
    futures.reserve(tasks);
    for (std::size_t i = 0; i < tasks; ++i)
      futures.push_back(pool.submit([i]() { return i; }));
    std::size_t sum = 0;
    for (auto& future : futures) sum += future.get();
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(bm_pool_submit_drain)->Arg(64)->Arg(512);

void bm_pool_lifecycle(benchmark::State& state) {
  for (auto _ : state) {
    ThreadPool pool(2);
    benchmark::DoNotOptimize(pool.submit([]() { return 1; }).get());
  }
}
BENCHMARK(bm_pool_lifecycle);

void bm_sweep_serial(benchmark::State& state) {
  SweepRunner sweep({1, 42});
  for (auto _ : state) {
    auto out = sweep.run(256, [](std::size_t, cps::Rng& rng) { return rng.uniform(0.0, 1.0); });
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(bm_sweep_serial);

void bm_sweep_two_jobs(benchmark::State& state) {
  SweepRunner sweep({2, 42});
  for (auto _ : state) {
    auto out = sweep.run(256, [](std::size_t, cps::Rng& rng) { return rng.uniform(0.0, 1.0); });
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(bm_sweep_two_jobs);

void bm_fixture_cache_hit(benchmark::State& state) {
  FixtureCache& cache = FixtureCache::instance();
  const std::string key = "bench/fixture_cache_hit";
  // Populate once; the loop then times the hit path.
  benchmark::DoNotOptimize(FixtureHandle<int>(key).get([] { return 42; }, cache));
  for (auto _ : state) {
    auto value = FixtureHandle<int>(key).get([] { return 42; }, cache);
    benchmark::DoNotOptimize(value);
  }
}
BENCHMARK(bm_fixture_cache_hit)->Unit(benchmark::kNanosecond);

void bm_fixture_key_build(benchmark::State& state) {
  for (auto _ : state) {
    FixtureKey key("bench");
    key.add(1.0).add(std::uint64_t{7}).add("payload");
    benchmark::DoNotOptimize(key.str());
  }
}
BENCHMARK(bm_fixture_key_build)->Unit(benchmark::kNanosecond);

}  // namespace

CPS_BENCHMARK_MAIN();
