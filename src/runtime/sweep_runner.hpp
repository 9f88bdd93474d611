// Deterministic parallel fan-out of parameter grids.
//
// SweepRunner evaluates a task function over a (possibly sharded) global
// index range, spread across a work-stealing ThreadPool in CONTIGUOUS
// CHUNKS: instead of one future per index (whose promise/packaged_task
// machinery dominates fine-grained grids), each pool task runs a block
// of consecutive indices and returns the block's results, so the
// per-index overhead is amortized to nearly zero while work stealing
// still balances uneven grids chunk by chunk.
//
// Determinism contract: each index receives its own Rng seeded by
// task_seed(base_seed, global_index) and must draw randomness ONLY from
// that Rng, so the result vector is bit-identical for any job count, any
// chunk size, any scheduling order, and any shard partition (results
// come back in global index order; a shard computes exactly the block
// shard_range(count, i, N) of the unsharded results).
// tests/runtime_test.cpp enforces jobs/chunk/shard invariance.
//
// Per-worker workspaces: run_with_workspace() threads one reusable
// workspace object through every index of a chunk, so sweep bodies can
// keep scratch matrices/vectors (e.g. sim::JitterWorkspace in
// ablation_jitter, or an experiment's own scratch struct) across grid
// points instead of reallocating them per index.  The body must fully
// overwrite whatever workspace state it reads — the workspace is an
// allocation cache, never a data channel between indices.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <future>
#include <utility>
#include <vector>

#include "runtime/shard.hpp"
#include "runtime/thread_pool.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace cps::runtime {

/// splitmix64-style mix of (seed, index): statistically independent,
/// scheduling-independent per-task seeds.
std::uint64_t task_seed(std::uint64_t base_seed, std::uint64_t index);

/// Fan-out knobs of one sweep.
struct SweepOptions {
  /// Worker threads; <= 1 runs inline on the calling thread.
  int jobs = 1;
  /// Base seed every per-task Rng derives from.
  std::uint64_t seed = 0x5EED5EEDULL;
  /// Shard of the global index range this runner evaluates (contiguous
  /// block partition; see runtime/shard.hpp).  Defaults to the whole
  /// range.
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
  /// Indices per pool task; 0 picks kChunksPerWorker chunks per worker.
  /// Any value yields bit-identical results.
  std::size_t chunk = 0;
};

/// Deterministic parallel map over an index range (see file comment for
/// the determinism contract).
class SweepRunner {
 public:
  /// Auto-chunking aims at this many chunks per worker: small enough to
  /// amortize future overhead, large enough for stealing to balance.
  static constexpr std::size_t kChunksPerWorker = 4;

  /// Capture the fan-out options; no threads spawn until run().
  explicit SweepRunner(SweepOptions options = {}) : options_(options) {
    CPS_ENSURE(options_.shard_count >= 1 && options_.shard_index < options_.shard_count,
               "SweepRunner: invalid shard spec");
  }

  /// Worker-thread count the next run() will use.
  int jobs() const { return options_.jobs; }
  /// Base seed the per-task Rngs derive from.
  std::uint64_t seed() const { return options_.seed; }

  /// The global index block this runner evaluates for a `count`-point
  /// sweep (the whole range unless sharded).
  ShardRange range(std::size_t count) const {
    return shard_range(count, options_.shard_index, options_.shard_count);
  }

  /// Evaluate fn(global_index, rng) for every index in range(count) and
  /// return the results in global index order (element i of the result
  /// is global index range(count).begin + i).  fn must not touch shared
  /// mutable state.
  template <typename Fn>
  auto run(std::size_t count, Fn fn)
      -> std::vector<decltype(fn(std::size_t{}, std::declval<Rng&>()))> {
    struct NoWorkspace {};
    return run_with_workspace<NoWorkspace>(
        count, [&fn](std::size_t index, Rng& rng, NoWorkspace&) { return fn(index, rng); });
  }

  /// run() with a per-worker scratch workspace: fn(global_index, rng,
  /// workspace) where one default-constructed Workspace is reused across
  /// every index of a chunk (and across all indices when jobs <= 1).
  /// Results must not depend on incoming workspace contents.
  template <typename Workspace, typename Fn>
  auto run_with_workspace(std::size_t count, Fn fn)
      -> std::vector<decltype(fn(std::size_t{}, std::declval<Rng&>(),
                                 std::declval<Workspace&>()))> {
    using Result = decltype(fn(std::size_t{}, std::declval<Rng&>(), std::declval<Workspace&>()));
    const ShardRange shard = range(count);
    std::vector<Result> results;
    results.reserve(shard.size());
    if (shard.size() == 0) return results;

    const std::uint64_t base = options_.seed;
    if (options_.jobs <= 1) {
      Workspace workspace{};
      for (std::size_t i = shard.begin; i < shard.end; ++i) {
        Rng rng(task_seed(base, i));
        results.push_back(fn(i, rng, workspace));
      }
      return results;
    }

    const std::size_t workers =
        std::min(static_cast<std::size_t>(options_.jobs), shard.size());
    const std::size_t chunk =
        options_.chunk != 0
            ? options_.chunk
            : std::max<std::size_t>(1, shard.size() / (workers * kChunksPerWorker));
    ThreadPool pool(workers);
    std::vector<std::future<std::vector<Result>>> futures;
    futures.reserve((shard.size() + chunk - 1) / chunk);
    for (std::size_t lo = shard.begin; lo < shard.end; lo += chunk) {
      const std::size_t hi = std::min(lo + chunk, shard.end);
      futures.push_back(pool.submit([fn, base, lo, hi]() {
        // One workspace per chunk: allocated scratch survives across the
        // chunk's indices, which is what removes the per-index
        // allocation churn of the old one-future-per-index fan-out.
        Workspace workspace{};
        std::vector<Result> block;
        block.reserve(hi - lo);
        for (std::size_t i = lo; i < hi; ++i) {
          Rng rng(task_seed(base, i));
          block.push_back(fn(i, rng, workspace));
        }
        return block;
      }));
    }
    try {
      for (auto& future : futures) {
        auto block = future.get();
        for (auto& value : block) results.push_back(std::move(value));
      }
    } catch (...) {
      // Fail fast: drop the queued chunks so the pool's destructor joins
      // after the in-flight ones instead of draining the whole campaign.
      pool.cancel_pending();
      throw;
    }
    return results;
  }

 private:
  SweepOptions options_;
};

}  // namespace cps::runtime
