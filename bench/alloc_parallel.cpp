// Strong-scaling bench of the exact slot allocator.
//
// Times two things on the fixed proving instances also used by the
// sweep_alloc_parallel experiment (src/experiments/sweep_alloc_parallel.cpp):
//
//  * alloc_parallel_n{18,20}_optimal_j1 — the full sequential
//    optimal_allocate wall-clock (setup + bound proving + witness), the
//    honest single-core baseline;
//  * alloc_parallel_n{18,20}_j{1,2,4,8}_critical_path — the wall-clock
//    the frontier subtree decomposition would reach on j dedicated
//    cores: profile_exact_search times every subtree task sequentially
//    (incumbent updates in canonical order) and greedy list scheduling
//    computes the j-core makespan.  Like bench/campaign_scaling.cpp's
//    sharded critical paths, this is core-count-independent and
//    reproducible on the single-core CI container.  The allocator
//    itself proves on one thread; a threaded prove could pay only where
//    these rows fall below the _optimal_j1 row.
//
// The _optimal_j1 rows also carry two Google-Benchmark-style counters
// from the profile's sequential prove: sequential_nodes (nodes expanded)
// and forward_check_prunes (how many of them forward checking cut).
// Both are deterministic, so they pin the pruning next to the times.
//
// Emits Google-Benchmark-compatible JSON on stdout (the fields
// bench_compare.py reads, including the library_build_type the debug-
// snapshot gate checks).  Each measurement repeats kIterations times and
// reports the minimum.
#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "analysis/slot_allocation.hpp"
#include "linalg/simd_batch.hpp"
#include "experiments/fixtures.hpp"

namespace {

using namespace cps;
using namespace cps::analysis;

constexpr int kIterations = 3;

/// The bench times the two largest of the shared proving instances
/// (experiments::alloc_proving_instances — same table the
/// sweep_alloc_parallel experiment runs).
constexpr int kMinBenchedN = 18;

constexpr int kJobSweep[] = {1, 2, 4, 8};

struct Result {
  std::string name;
  double seconds = 0.0;
  /// Counters emitted as extra fields of the row (name, value).
  std::vector<std::pair<std::string, std::size_t>> counters;
};

std::vector<Result> g_results;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

void record(const std::string& name, double seconds,
            std::vector<std::pair<std::string, std::size_t>> counters = {}) {
  std::fprintf(stderr, "  %-44s %10.2f ms\n", name.c_str(), seconds * 1e3);
  g_results.push_back(Result{name, seconds, std::move(counters)});
}

}  // namespace

int main(int argc, char** argv) {
  // Google-Benchmark-style flags accepted for CI-invocation symmetry;
  // this bench always writes its JSON to stdout.
  (void)argc;
  (void)argv;

  for (const auto& inst : experiments::alloc_proving_instances()) {
    if (inst.n < kMinBenchedN) continue;
    const auto set = experiments::alloc_proving_params(inst);

    double sequential = 1e100;
    std::vector<double> critical(std::size(kJobSweep), 1e100);
    std::size_t optimal = 0, seed_slots = 0, tasks = 0, nodes = 0, prunes = 0;
    for (int iteration = 0; iteration < kIterations; ++iteration) {
      const auto start = std::chrono::steady_clock::now();
      const Allocation alloc = optimal_allocate(set);
      sequential = std::min(sequential, seconds_since(start));

      const ExactSearchProfile profile = profile_exact_search(set);
      if (profile.optimal_slots != alloc.slot_count()) {
        std::fprintf(stderr, "alloc_parallel: profile disagrees with optimal_allocate\n");
        return 1;
      }
      optimal = profile.optimal_slots;
      seed_slots = profile.seed_slots;
      tasks = profile.task_seconds.size();
      nodes = profile.sequential_nodes;
      prunes = profile.forward_check_prunes;
      for (std::size_t j = 0; j < std::size(kJobSweep); ++j)
        critical[j] = std::min(critical[j], profile.critical_path_seconds(kJobSweep[j]));
    }

    const std::string prefix = "alloc_parallel_n" + std::to_string(inst.n);
    std::fprintf(stderr,
                 "n=%d: first-fit %zu -> optimum %zu, %zu subtree tasks, sequential prove "
                 "%zu nodes (%zu forward-check prunes)\n",
                 inst.n, seed_slots, optimal, tasks, nodes, prunes);
    record(prefix + "_optimal_j1", sequential,
           {{"sequential_nodes", nodes}, {"forward_check_prunes", prunes}});
    for (std::size_t j = 0; j < std::size(kJobSweep); ++j)
      record(prefix + "_j" + std::to_string(kJobSweep[j]) + "_critical_path", critical[j]);
    std::fprintf(stderr, "  j8-vs-j1 critical-path speedup: %.2fx\n\n",
                 critical[0] / critical[std::size(kJobSweep) - 1]);
  }

#ifdef NDEBUG
  const char* build_type = "release";
#else
  const char* build_type = "debug";
#endif
  // Google-Benchmark-compatible JSON (the fields bench_compare.py reads;
  // this binary links no benchmark harness, so both build-type fields
  // mean the project library).
  std::printf("{\n  \"context\": {\"executable\": \"alloc_parallel\", "
              "\"library_build_type\": \"%s\", \"cps_library_build_type\": \"%s\", "
              "\"cps_simd_width\": \"%zu\", \"cps_simd_isa\": \"%s\"},\n",
              build_type, build_type, cps::linalg::kSimdWidth,
              cps::linalg::simd_isa_name());
  std::printf("  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < g_results.size(); ++i) {
    std::printf("    {\"name\": \"%s\", \"run_type\": \"iteration\", "
                "\"real_time\": %.3f, \"cpu_time\": %.3f, \"time_unit\": \"ms\"",
                g_results[i].name.c_str(), g_results[i].seconds * 1e3,
                g_results[i].seconds * 1e3);
    for (const auto& [counter, value] : g_results[i].counters)
      std::printf(", \"%s\": %zu", counter.c_str(), value);
    std::printf("}%s\n", i + 1 < g_results.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
  return 0;
}
