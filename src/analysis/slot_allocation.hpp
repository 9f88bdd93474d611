// TT-slot allocation (paper Section IV, last paragraph).
//
// Finding the minimum number of slots is NP-hard, so the paper uses a
// first-fit heuristic over priority-ordered applications: place each
// application in the first existing slot on which EVERY application of
// that slot (including the newcomer — adding C_i changes the blocking of
// higher-priority apps and the interference of lower-priority ones)
// remains schedulable; open a new slot when none fits.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "analysis/schedulability.hpp"

namespace cps::analysis {

/// Result of allocating a set of applications to shared TT slots.
struct Allocation {
  /// Application names per slot, in priority order within the slot.
  std::vector<std::vector<std::string>> slots;
  /// Final per-slot analysis (same indexing as `slots`).
  std::vector<SlotAnalysis> analyses;

  /// Number of TT slots the allocation uses.
  std::size_t slot_count() const { return slots.size(); }
};

/// Knobs shared by the three allocators.
struct AllocationOptions {
  /// How the per-application maximum wait time is computed.
  MaxWaitMethod method = MaxWaitMethod::kClosedFormBound;
  /// Upper bound on slots (the paper's m); throws InfeasibleError when
  /// exceeded.  0 = unlimited.
  std::size_t max_slots = 0;
  /// Anytime warm start for optimal_allocate: a slot count known to be
  /// ACHIEVABLE for this instance (some feasible partition of that many
  /// slots exists — typically the previous allocation's count after the
  /// online layer has re-verified it against the patched analysis).  The
  /// bound-proving pass starts from min(first-fit seed, warm_incumbent)
  /// instead of the seed alone, so the search only ever tightens an
  /// already-good bound; when the warm bound already meets the root lower
  /// bound the prove is skipped outright.  Because a sound B&B's proven
  /// minimum does not depend on its starting incumbent, the returned
  /// Allocation is bit-identical to a cold run — a warm start changes
  /// time, never answers.  Passing a count that is NOT achievable is a
  /// contract violation (the witness reconstruction would fail loudly).
  /// 0 = cold start.
  std::size_t warm_incumbent = 0;
  /// Cooperative cancellation for optimal_allocate's exact search: when
  /// non-null, the bound-proving and witness passes poll the flag every
  /// few dozen expanded nodes and throw cps::CancelledError once it
  /// reads true (the cps_serve daemon sets it when a per-request
  /// deadline expires, so a pathological exact query returns
  /// deadline_exceeded instead of starving the worker pool).  A search
  /// that completes without observing the flag is unaffected —
  /// cancellation changes time, never answers.  Ignored by the
  /// heuristics, whose work is bounded by one pass over the slots per
  /// application.
  const std::atomic<bool>* cancel = nullptr;
};

/// The one builder of every Allocation: slot `s` holds the applications
/// `slots[s]`, indices into `facts` (app_facts of the applications in
/// priority order, sort_by_priority); each slot's indices must increase,
/// so its members are in priority order.  Each slot's analysis is
/// analyze_slot_facts over its members' facts, equal to analyze_slot on
/// their AppSchedParams bit for bit, without copying or re-sorting them.
Allocation build_allocation(const std::vector<AppFacts>& facts,
                            const std::vector<std::vector<std::size_t>>& slots,
                            MaxWaitMethod method);

/// First-fit allocation (the paper's heuristic).  Applications may be
/// passed in any order; they are processed by decreasing priority
/// (increasing deadline).
Allocation first_fit_allocate(std::vector<AppSchedParams> apps,
                              const AllocationOptions& options = {});

/// Best-fit variant: among the feasible slots, place the application on
/// the one whose resulting interference utilization (sum of xi_M / r) is
/// highest — packing slots tighter before opening new ones.  Same
/// worst-case slot count class as first-fit, sometimes one slot better.
Allocation best_fit_allocate(std::vector<AppSchedParams> apps,
                             const AllocationOptions& options = {});

/// Exact minimum-slot allocation by branch-and-bound over set partitions
/// (the problem the paper calls NP-hard).  Throws InvalidArgument for more
/// than `max_apps_for_exact` applications.
///
/// The search is the optimized two-phase kernel:
///  1. a best-first bound-proving pass (slots ordered by descending
///     interference load) establishes the optimal slot count.  It is
///     pruned by (a) a precomputed utilization / fractional-packing
///     lower-bound table, (b) a greedy max-clique bound over the
///     precomputed conflict-pair graph (pairs that provably can never
///     share a slot), (c) canonical symmetry
///     breaking over interchangeable applications (an application whose
///     adjacent priority predecessor is identical never goes into a
///     lower-indexed slot than that twin), (d) last-application
///     dominance, and (e) forward checking from 13 applications on: at a
///     node that may open no further slot, an unplaced application that
///     no open slot can ever host (never_host_set) prunes the node;
///  2. when the proven optimum improves on the first-fit seed, a canonical
///     depth-first pass reconstructs the exact partition the
///     pre-optimization search would have returned.
/// Both passes run on a mask-indexed slot-feasibility engine.  Apps are
/// placed in priority order, so a slot's 64-bit membership mask fully
/// determines its ordered members: every query is `mask | bit(app)`,
/// answered from a flat open-addressing mask -> verdict memo or computed
/// from the mask's set bits in a stack array.  The search state is a
/// fixed-size array of masks and loads and the best-first slot order is
/// an insertion sort on the stack, so expanding a node allocates nothing;
/// a sequential call allocates only for setup, memo growth and the
/// finalized Allocation (tests/sim_alloc_guard_test.cpp).
/// Every pruning layer is sound and a verdict is a pure function of the
/// mask, so the result is bit-identical to the frozen pre-optimization
/// exhaustive search (optimal_allocate_reference in tests/reference/) for
/// every input on which the slot analysis completes (asserted by
/// tests/analysis_golden_test.cpp).  One carve-out: under
/// MaxWaitMethod::kFixedPoint, inputs whose recurrence exceeds the
/// iteration cap (interference utilization pathologically close to 1)
/// raise NumericalError at whichever candidate slot set a search tests
/// first, and the searches test different sets — so *which* call throws
/// may differ there.  The exact search additionally requires <= 64
/// applications (one mask bit each); the heuristics accept more and
/// check slots without a memo above 64.
Allocation optimal_allocate(std::vector<AppSchedParams> apps,
                            const AllocationOptions& options = {},
                            std::size_t max_apps_for_exact = 20);

/// The forward-checking screen of optimal_allocate, exposed for its
/// soundness test: the applications j above max(mask) — indices into
/// `apps`, which must already be in priority order (sort_by_priority) —
/// such that NO slot containing the members of `mask` and j can be
/// feasible under `method`.  Requires at most 64 applications and a
/// nonzero mask within them; never throws NumericalError.
std::uint64_t never_host_set(const std::vector<AppSchedParams>& apps, std::uint64_t mask,
                             MaxWaitMethod method = MaxWaitMethod::kClosedFormBound);

/// Strong-scaling profile of one exact search, for the alloc_parallel
/// bench and the sweep_alloc_parallel experiment: times the sequential
/// bound-proving pass, then splits the search tree into frontier subtree
/// tasks and re-proves them one at a time in canonical order, recording
/// per-task wall times.  The decomposition only measures — optimal_allocate
/// never runs it.  critical_path_seconds(j) is the wall-clock it would
/// reach on j dedicated cores under greedy list scheduling — the
/// core-count-independent emulation also used by bench/campaign_scaling.cpp
/// for process shards.
struct ExactSearchProfile {
  std::size_t n = 0;                 ///< applications in the instance
  std::size_t optimal_slots = 0;     ///< proven optimum
  std::size_t seed_slots = 0;        ///< first-fit upper bound
  std::size_t root_lower_bound = 0;  ///< root lower bound (util/packing/clique max)
  double sequential_seconds = 0.0;   ///< sequential bound-proving wall time
  std::size_t sequential_nodes = 0;  ///< nodes the sequential bound-proving pass expanded
  std::size_t forward_check_prunes = 0;  ///< of those, nodes cut by forward checking
  double setup_seconds = 0.0;        ///< facts + seed + frontier expansion
  double witness_seconds = 0.0;      ///< canonical witness reconstruction
  std::vector<double> task_seconds;  ///< per-subtree wall, canonical order
  /// Emulated wall-clock of the decomposition on `jobs` dedicated cores:
  /// setup + list-schedule makespan of the subtree tasks + witness.
  /// Throws InvalidArgument for jobs < 1.
  double critical_path_seconds(int jobs) const;
};

/// Profile the exact search on one instance (see ExactSearchProfile).
/// Runs everything on the calling thread; the profiled instance must be
/// feasible (throws InfeasibleError otherwise, like optimal_allocate).
ExactSearchProfile profile_exact_search(std::vector<AppSchedParams> apps,
                                        const AllocationOptions& options = {},
                                        std::size_t max_apps_for_exact = 20);

}  // namespace cps::analysis
