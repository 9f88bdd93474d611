// Tests for the exact slot allocator's search layers: permutation
// invariance of the proven optimum, symmetry breaking on interchangeable
// applications, the conflict-screen model helpers, the soundness of the
// forward-checking never-host screen, and the strong-scaling profile:
// its consistency with the real search and its list-schedule critical
// path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <random>
#include <vector>

#include "analysis/dwell_wait_model.hpp"
#include "analysis/slot_allocation.hpp"
#include "experiments/fixtures.hpp"
#include "reference/analysis_reference.hpp"
#include "util/rng.hpp"

namespace {

using namespace cps;
using namespace cps::analysis;

void expect_same_allocation(const Allocation& a, const Allocation& b) {
  ASSERT_EQ(a.slot_count(), b.slot_count());
  EXPECT_EQ(a.slots, b.slots);  // same apps, same slots, same order
  ASSERT_EQ(a.analyses.size(), b.analyses.size());
  for (std::size_t s = 0; s < a.analyses.size(); ++s) {
    ASSERT_EQ(a.analyses[s].results.size(), b.analyses[s].results.size());
    for (std::size_t i = 0; i < a.analyses[s].results.size(); ++i) {
      EXPECT_EQ(a.analyses[s].results[i].name, b.analyses[s].results[i].name);
      EXPECT_EQ(a.analyses[s].results[i].max_wait, b.analyses[s].results[i].max_wait);
      EXPECT_EQ(a.analyses[s].results[i].response, b.analyses[s].results[i].response);
    }
  }
}

TEST(ParallelAllocTest, OptimumInvariantUnderInputPermutations) {
  // The exact optimum is a property of the application SET; shuffling the
  // input vector must not change it (n <= 12 so the frozen reference
  // stays tractable as the anchor).
  Rng rng(0x9E12137AULL);
  std::mt19937_64 shuffler(0xC0FFEEULL);
  int checked = 0;
  for (int trial = 0; trial < 24; ++trial) {
    const int n = 5 + trial % 8;  // sizes 5..12
    auto set =
        experiments::random_sched_params(rng, n, experiments::allocator_ablation_ranges());
    try {
      const Allocation baseline = optimal_allocate(set);
      ASSERT_EQ(baseline.slot_count(), optimal_allocate_reference(set).slot_count());
      for (int perm = 0; perm < 4; ++perm) {
        std::shuffle(set.begin(), set.end(), shuffler);
        const Allocation shuffled = optimal_allocate(set);
        // Priorities (deadlines) are continuous draws, so the stable
        // priority sort reproduces one canonical order from any input
        // permutation — the whole Allocation must match, not just the
        // count.
        expect_same_allocation(shuffled, baseline);
      }
      ++checked;
    } catch (const InfeasibleError&) {
      EXPECT_THROW(optimal_allocate_reference(set), InfeasibleError);
    }
  }
  EXPECT_GE(checked, 12);
}

TEST(ParallelAllocTest, InterchangeableApplicationsMatchReference) {
  // Clones of one application (same model object, same r/deadline) are
  // the symmetry-breaking fast path; the proven partition must still be
  // exactly the reference's canonical-first witness.
  Rng rng(0x7711A5EDULL);
  for (int trial = 0; trial < 10; ++trial) {
    auto set =
        experiments::random_sched_params(rng, 5, experiments::allocator_ablation_ranges());
    // Triplicate one app (shared model pointer) and duplicate another
    // with an equal-parameter but DISTINCT model object.
    auto clone_a = set[1];
    clone_a.name = "A1-clone";
    set.push_back(clone_a);
    auto clone_b = set[1];
    clone_b.name = "A1-clone2";
    set.push_back(clone_b);
    auto clone_c = set[3];
    clone_c.name = "A3-clone";
    const auto* tent = dynamic_cast<const NonMonotonicModel*>(set[3].model.get());
    ASSERT_NE(tent, nullptr);
    clone_c.model = std::make_shared<NonMonotonicModel>(tent->xi_tt(), tent->xi_m(),
                                                        tent->k_p(), tent->zero_wait());
    set.push_back(clone_c);
    try {
      expect_same_allocation(optimal_allocate(set), optimal_allocate_reference(set));
    } catch (const InfeasibleError&) {
      EXPECT_THROW(optimal_allocate_reference(set), InfeasibleError);
    }
  }
}

TEST(ParallelAllocTest, InterleavedTwinsWithSharedDeadlinesMatchReference) {
  // Regression guard for the symmetry screen's adjacency requirement:
  // identical twins SEPARATED by a distinct application with the same
  // deadline.  Swapping non-adjacent twins changes intra-slot priority
  // structure (the middle app can sit above one twin and below the
  // other), so a twin rule applied across the gap could prune every
  // optimal partition; the allocator must only pair adjacent twins and
  // keep matching the reference exactly.
  Rng rng(0xAD7ACE17ULL);
  int checked = 0;
  for (int trial = 0; trial < 30; ++trial) {
    auto set =
        experiments::random_sched_params(rng, 6, experiments::allocator_ablation_ranges());
    // Twin of set[0] and a distinct same-deadline app between them (the
    // stable priority sort keeps the insertion order for equal
    // deadlines, so the final order is: set[0], middle, twin).
    auto middle = set[1];
    middle.name = "M";
    middle.deadline = set[0].deadline;
    auto twin = set[0];
    twin.name = "T";
    set.push_back(middle);
    set.push_back(twin);
    try {
      expect_same_allocation(optimal_allocate(set), optimal_allocate_reference(set));
      ++checked;
    } catch (const InfeasibleError&) {
      EXPECT_THROW(optimal_allocate_reference(set), InfeasibleError);
    }
  }
  EXPECT_GE(checked, 15);
}

/// A small synthetic dwell/wait curve with a genuine tent shape, for the
/// concave-envelope model checks.
sim::DwellWaitCurve synthetic_curve(double peak) {
  std::vector<sim::DwellWaitPoint> points;
  const double h = 0.5;
  const double dwells[] = {1.0, 2.0, peak, 2.5, 1.2, 0.8, 0.3, 0.1};
  for (std::size_t i = 0; i < 8; ++i) {
    sim::DwellWaitPoint p;
    p.wait_steps = i;
    p.wait_s = static_cast<double>(i) * h;
    p.dwell_s = dwells[i];
    p.dwell_steps = static_cast<std::size_t>(dwells[i] / h);
    points.push_back(p);
  }
  return sim::DwellWaitCurve(h, std::move(points));
}

TEST(ParallelAllocTest, MinResponseFromIsASoundLowerBound) {
  // The conflict screen leans on min_response_from being a true infimum
  // of response over [wait, inf); check it against dense sampling for
  // every model family the allocator sees.
  const NonMonotonicModel tent(1.0, 3.0, 2.0, 9.0);
  const ConservativeMonotonicModel mono(4.0, 9.0);
  const SimpleMonotonicModel simple(1.0, 9.0);
  const auto curve = synthetic_curve(3.0);
  const ConcaveEnvelopeModel concave(curve);
  const std::vector<const DwellWaitModel*> models = {&tent, &mono, &simple, &concave};
  for (const auto* model : models) {
    for (double wait = 0.0; wait < 12.0; wait += 0.37) {
      const double bound = model->min_response_from(wait);
      double sampled = 1e100;
      for (double w = wait; w < 20.0; w += 0.001)
        sampled = std::min(sampled, model->response(w));
      EXPECT_LE(bound, sampled + 1e-9) << model->name() << " at wait " << wait;
      // The bound must also be nontrivial: never below `wait` itself.
      EXPECT_GE(bound, wait);
    }
  }
}

TEST(ParallelAllocTest, SameCurveDistinguishesParameters) {
  const auto a = std::make_shared<NonMonotonicModel>(1.0, 3.0, 2.0, 9.0);
  const auto b = std::make_shared<NonMonotonicModel>(1.0, 3.0, 2.0, 9.0);
  const auto c = std::make_shared<NonMonotonicModel>(1.0, 3.5, 2.0, 9.0);
  const auto mono = std::make_shared<ConservativeMonotonicModel>(3.0, 9.0);
  EXPECT_TRUE(a->same_curve(*a));
  EXPECT_TRUE(a->same_curve(*b));  // equal parameters, distinct objects
  EXPECT_FALSE(a->same_curve(*c));
  EXPECT_FALSE(a->same_curve(*mono));  // different family

  const ConcaveEnvelopeModel hull_a(synthetic_curve(3.0));
  const ConcaveEnvelopeModel hull_b(synthetic_curve(3.0));
  const ConcaveEnvelopeModel hull_c(synthetic_curve(3.25));
  EXPECT_TRUE(hull_a.same_curve(hull_b));   // identical hulls, distinct objects
  EXPECT_FALSE(hull_a.same_curve(hull_c));  // different peak vertex
  EXPECT_FALSE(hull_a.same_curve(*a));      // different family
}

/// A random instance in one of the four model families the allocator
/// sees: the allocator-ablation tents as drawn, re-expressed as the
/// conservative or simple monotonic model, or as the concave envelope of
/// a jittered sampling of the tent.
std::vector<AppSchedParams> family_instance(Rng& rng, int n, int family,
                                            const experiments::RandomAppRanges& ranges) {
  auto apps = experiments::random_sched_params(rng, n, ranges);
  for (auto& app : apps) {
    const auto* tent = dynamic_cast<const NonMonotonicModel*>(app.model.get());
    switch (family) {
      case 1:
        app.model = std::make_shared<ConservativeMonotonicModel>(tent->xi_m(), tent->zero_wait());
        break;
      case 2:
        app.model = std::make_shared<SimpleMonotonicModel>(tent->xi_tt(), tent->zero_wait());
        break;
      case 3: {
        constexpr std::size_t kSamples = 12;
        const double h = tent->zero_wait() / static_cast<double>(kSamples);
        std::vector<sim::DwellWaitPoint> points;
        for (std::size_t k = 0; k <= kSamples; ++k) {
          sim::DwellWaitPoint p;
          p.wait_steps = k;
          p.wait_s = static_cast<double>(k) * h;
          p.dwell_s = tent->dwell(p.wait_s) * rng.uniform(0.7, 1.0);
          p.dwell_steps = static_cast<std::size_t>(p.dwell_s / h);
          points.push_back(p);
        }
        app.model =
            std::make_shared<ConcaveEnvelopeModel>(sim::DwellWaitCurve(h, std::move(points)));
        break;
      }
      default:
        break;  // the tent as drawn
    }
  }
  return apps;
}

/// Allocator-ablation tents with inter-arrival times a small multiple of
/// the peak dwell, so interference utilizations reach towards 1.
experiments::RandomAppRanges near_saturation_ranges() {
  auto ranges = experiments::allocator_ablation_ranges();
  ranges.r_factor_lo = 1.2;
  ranges.r_factor_hi = 5.0;
  return ranges;
}

TEST(ParallelAllocTest, NeverHostScreenRejectsEverySuperset) {
  // Exhaustive soundness of the forward-checking screen: for every slot
  // mask M and every j it claims, analyze_slot must reject every slot
  // that contains M and j (a NumericalError counts as a rejection: such
  // a slot is never accepted either).
  Rng rng(0xF0C4EC4ULL);
  std::size_t claims = 0, beyond_pairs = 0;
  for (const auto method : {MaxWaitMethod::kClosedFormBound, MaxWaitMethod::kFixedPoint}) {
    for (int family = 0; family < 4; ++family) {
      for (int trial = 0; trial < 4; ++trial) {
        const int n = 7 + trial;  // sizes 7..10
        auto apps = family_instance(
            rng, n, family,
            trial % 2 == 0 ? experiments::allocator_ablation_ranges() : near_saturation_ranges());
        sort_by_priority(apps);
        const std::uint64_t all = (std::uint64_t{1} << n) - 1;
        std::vector<bool> feasible(all + 1, false);
        for (std::uint64_t slot = 1; slot <= all; ++slot) {
          std::vector<AppSchedParams> members;
          for (int k = 0; k < n; ++k)
            if ((slot >> k) & 1) members.push_back(apps[static_cast<std::size_t>(k)]);
          try {
            feasible[slot] = analyze_slot(std::move(members), method).all_schedulable;
          } catch (const NumericalError&) {
          }
        }
        std::vector<std::uint64_t> pair_never(static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i)
          pair_never[static_cast<std::size_t>(i)] =
              never_host_set(apps, std::uint64_t{1} << i, method);
        for (std::uint64_t mask = 1; mask <= all; ++mask) {
          const std::uint64_t never = never_host_set(apps, mask, method);
          const int top = 63 - __builtin_clzll(mask);
          EXPECT_EQ(never & ((std::uint64_t{2} << top) - 1), 0u) << "claims an app above max(M)";
          std::uint64_t by_pairs = 0;
          for (int i = 0; i <= top; ++i)
            if ((mask >> i) & 1) by_pairs |= pair_never[static_cast<std::size_t>(i)];
          for (int j = top + 1; j < n; ++j) {
            if (((never >> j) & 1) == 0) continue;
            ++claims;
            if (((by_pairs >> j) & 1) == 0) ++beyond_pairs;
            const std::uint64_t core = mask | (std::uint64_t{1} << j);
            for (std::uint64_t slot = core;; slot = (slot + 1) | core) {
              EXPECT_FALSE(feasible[slot]) << "method " << static_cast<int>(method)
                                           << " family " << family << " mask " << mask
                                           << " app " << j << " slot " << slot;
              if (slot == all) break;
            }
          }
        }
      }
    }
  }
  // The screen must be non-vacuous, and claim more than the pair screen.
  EXPECT_GT(claims, 1000u);
  EXPECT_GT(beyond_pairs, 100u);
}

TEST(ParallelAllocTest, ForwardCheckedSearchMatchesReference) {
  // Differential against the frozen exhaustive search at n = 10..14 under
  // both wait methods, including fixed-point instances with interference
  // utilization near 1: the screen never throws, so optimal_allocate may
  // raise NumericalError only where the reference raises it too.
  Rng rng(0xD1FFC4ECULL);
  int compared = 0, trials = 0;
  std::size_t forward_check_prunes = 0;
  for (const auto method : {MaxWaitMethod::kClosedFormBound, MaxWaitMethod::kFixedPoint}) {
    for (int trial = 0; trial < 110; ++trial, ++trials) {
      const int n = 10 + trial % 5;
      const auto ranges = trial % 3 == 2 ? near_saturation_ranges()
                                         : experiments::allocator_ablation_ranges();
      const auto set = family_instance(rng, n, trial % 4, ranges);
      AllocationOptions options;
      options.method = method;
      enum class Outcome { kAllocated, kInfeasible, kNumerical };
      Allocation optimized, reference;
      const auto run = [&](auto&& allocate, Allocation& out) {
        try {
          out = allocate();
          return Outcome::kAllocated;
        } catch (const InfeasibleError&) {
          return Outcome::kInfeasible;
        } catch (const NumericalError&) {
          return Outcome::kNumerical;
        }
      };
      const Outcome ours = run([&] { return optimal_allocate(set, options); }, optimized);
      const Outcome ref =
          run([&] { return optimal_allocate_reference(set, options, 14); }, reference);
      if (ours == Outcome::kNumerical) {
        EXPECT_EQ(ref, Outcome::kNumerical) << "trial " << trial;
      } else if (ref != Outcome::kNumerical) {
        ASSERT_EQ(ours, ref) << "trial " << trial;
        if (ours == Outcome::kAllocated) {
          expect_same_allocation(optimized, reference);
          ++compared;
          if (n >= 13)
            forward_check_prunes += profile_exact_search(set, options).forward_check_prunes;
        }
      }
    }
  }
  EXPECT_GE(trials, 200);
  EXPECT_GE(compared, 150);
  EXPECT_GT(forward_check_prunes, 0u) << "the n >= 13 instances never reach the check";
}

TEST(ParallelAllocTest, ForwardCheckKeepsTheTwentyAppProveSmall) {
  // Regression pin on the work of the sequential prove of the n = 20
  // proving instance: 404 195 nodes without forward checking, 98 529
  // with it (41 525 of them cut by the check).  The bound leaves
  // headroom but fails loudly if the screen stops pruning.
  const auto inst = experiments::alloc_proving_instances().back();
  ASSERT_EQ(inst.n, 20);
  const ExactSearchProfile profile =
      profile_exact_search(experiments::alloc_proving_params(inst));
  EXPECT_GT(profile.forward_check_prunes, 0u);
  EXPECT_LE(profile.forward_check_prunes, profile.sequential_nodes);
  EXPECT_LE(profile.sequential_nodes, 150000u);
}

TEST(ParallelAllocTest, ProfileAgreesWithTheRealSearch) {
  Rng rng(0x5EED6619ULL);
  const auto set =
      experiments::random_sched_params(rng, 18, experiments::allocator_ablation_ranges());
  const Allocation alloc = optimal_allocate(set);
  const ExactSearchProfile profile = profile_exact_search(set);
  EXPECT_EQ(profile.n, 18u);
  EXPECT_EQ(profile.optimal_slots, alloc.slot_count());
  EXPECT_GE(profile.seed_slots, profile.optimal_slots);
  EXPECT_LE(profile.root_lower_bound, profile.optimal_slots);
  ASSERT_FALSE(profile.task_seconds.empty());
  // Makespans are monotone in the worker count and bounded by the serial
  // sum.
  const double cp1 = profile.critical_path_seconds(1);
  const double cp4 = profile.critical_path_seconds(4);
  const double cp8 = profile.critical_path_seconds(8);
  EXPECT_GE(cp1, cp4);
  EXPECT_GE(cp4, cp8);
  EXPECT_GE(cp8, profile.setup_seconds + profile.witness_seconds);
}

TEST(ParallelAllocTest, CriticalPathMatchesHandComputedListSchedules) {
  ExactSearchProfile profile;
  profile.task_seconds = {4, 3, 2, 1};
  // Greedy earliest-free-worker schedule: {4,3,2,1} on 2 workers ->
  // worker A: 4+1, worker B: 3+2 -> makespan 5.
  EXPECT_DOUBLE_EQ(profile.critical_path_seconds(2), 5.0);
  // One worker: the serial sum.
  EXPECT_DOUBLE_EQ(profile.critical_path_seconds(1), 10.0);
  // More workers than tasks: the longest task.
  EXPECT_DOUBLE_EQ(profile.critical_path_seconds(8), 4.0);
  EXPECT_THROW(profile.critical_path_seconds(0), InvalidArgument);
  // Setup and witness run before and after the fan-out, on one core.
  profile.setup_seconds = 0.5;
  profile.witness_seconds = 0.25;
  EXPECT_DOUBLE_EQ(profile.critical_path_seconds(2), 5.75);
  // Empty task list: setup + witness alone.
  profile.task_seconds.clear();
  EXPECT_DOUBLE_EQ(profile.critical_path_seconds(4), 0.75);
}

TEST(ParallelAllocTest, RaisedDefaultCapProvesTwentyApplications) {
  // The headline contract: a 20-application fleet's exact optimum under
  // the DEFAULT cap (no explicit max_apps_for_exact), with the first-fit
  // seed strictly improved — so the search genuinely proved something.
  Rng rng(0x5EED860DULL);
  const auto set =
      experiments::random_sched_params(rng, 20, experiments::allocator_ablation_ranges());
  const std::size_t ff = first_fit_allocate(set).slot_count();
  const Allocation exact = optimal_allocate(set);
  EXPECT_LT(exact.slot_count(), ff);
  for (const auto& analysis : exact.analyses) EXPECT_TRUE(analysis.all_schedulable);
}

}  // namespace
