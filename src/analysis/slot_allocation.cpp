#include "analysis/slot_allocation.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <unordered_map>
#include <utility>

#include "runtime/parallel_search.hpp"
#include "util/error.hpp"

namespace cps::analysis {

namespace {

/// Package a set of slots (each already in priority order) as Allocation.
Allocation finalize(std::vector<std::vector<AppSchedParams>> slots,
                    const AllocationOptions& options) {
  Allocation out;
  out.slots.reserve(slots.size());
  out.analyses.reserve(slots.size());
  for (auto& slot : slots) {
    std::vector<std::string> names;
    names.reserve(slot.size());
    for (const auto& a : slot) names.push_back(a.name);
    out.slots.push_back(std::move(names));
    out.analyses.push_back(analyze_slot(slot, options.method));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Fast slot-feasibility engine.
//
// The allocators spend their entire runtime asking "is this slot's
// application set schedulable?".  analyze_slot answers that, but each call
// copies the AppSchedParams (std::string names included), re-sorts them and
// heap-allocates the result vector.  This engine answers the same question
// over *indices* into the caller's priority-sorted application vector with
// the exact floating-point operation order of analyze_slot (same sums, same
// maxima, same comparisons), so its verdicts are bit-identical — and it
// memoizes verdicts by membership bitmask, because branch-and-bound re-tests
// the same slot contents along many branches.

struct AppFacts {
  double xi_m = 0.0;     // model->max_dwell(), the xi^M of the analysis
  double util = 0.0;     // xi_m / r, one interference-utilization term
  double r = 1.0;        // minimum inter-arrival time
  double deadline = 1.0;
  const DwellWaitModel* model = nullptr;
};

// The Eq. (5) recurrence term is shared with the semantic source:
// fixed_point_interference_term (analysis/schedulability.hpp).  Both the
// feasibility engine below and the conflict screen's pair recurrence
// must evaluate the identical expression for the pair bound to stay a
// true lower bound of the real feasibility math.

class SlotFeasibility {
 public:
  /// `apps` must stay alive and unmodified for the engine's lifetime and
  /// must already be in priority order.
  SlotFeasibility(const std::vector<AppSchedParams>& apps, MaxWaitMethod method)
      : method_(method) {
    facts_.reserve(apps.size());
    for (const auto& a : apps) {
      CPS_ENSURE(a.model != nullptr, "schedulability: every app needs a dwell/wait model");
      CPS_ENSURE(a.min_inter_arrival > 0.0, "schedulability: r must be positive");
      CPS_ENSURE(a.deadline > 0.0, "schedulability: deadline must be positive");
      AppFacts f;
      f.xi_m = a.model->max_dwell();
      f.util = f.xi_m / a.min_inter_arrival;
      f.r = a.min_inter_arrival;
      f.deadline = a.deadline;
      f.model = a.model.get();
      facts_.push_back(f);
    }
    use_memo_ = facts_.size() <= 64;
  }

  const AppFacts& facts(std::size_t i) const { return facts_[i]; }

  /// Schedulability of the slot holding exactly `members` (indices in
  /// increasing = priority order).  Equals
  /// analyze_slot({apps[members]...}, method).all_schedulable bit for bit.
  bool feasible(const std::vector<std::size_t>& members) {
    if (!use_memo_) return compute(members);
    std::uint64_t mask = 0;
    for (std::size_t i : members) mask |= std::uint64_t{1} << i;
    const auto it = memo_.find(mask);
    if (it != memo_.end()) return it->second;
    const bool ok = compute(members);
    memo_.emplace(mask, ok);
    return ok;
  }

 private:
  bool compute(const std::vector<std::size_t>& members) const {
    // Mirrors analyze_slot member by member — including evaluating every
    // member rather than stopping at the first failure, so an exception a
    // later member would raise (fixed-point non-convergence) surfaces
    // exactly as in the reference path.  Keep in sync with
    // analysis/schedulability.cpp (the semantic source of this math).
    bool all_ok = true;
    for (std::size_t i = 0; i < members.size(); ++i) {
      // Blocking a (Eq. 8): largest lower-priority max dwell.
      double a = 0.0;
      for (std::size_t k = i + 1; k < members.size(); ++k)
        a = std::max(a, facts_[members[k]].xi_m);
      // Interference utilization m (Eq. 19).
      double m = 0.0;
      for (std::size_t j = 0; j < i; ++j) m += facts_[members[j]].util;
      if (m >= 1.0) return false;  // every lower-priority member fails too

      double k_hat;
      if (method_ == MaxWaitMethod::kClosedFormBound) {
        double a_prime = a;
        for (std::size_t j = 0; j < i; ++j) a_prime += facts_[members[j]].xi_m;
        k_hat = a_prime / (1.0 - m);
      } else {
        // Exact fixed point of Eq. (5), identical to max_wait_fixed_point.
        double k = a;
        for (std::size_t j = 0; j < i; ++j) k += facts_[members[j]].xi_m;
        bool converged = false;
        for (int it = 0; it < 10000; ++it) {
          double next = a;
          for (std::size_t j = 0; j < i; ++j)
            next += fixed_point_interference_term(k, facts_[members[j]].r,
                                                  facts_[members[j]].xi_m);
          if (std::fabs(next - k) <= 1e-12) {
            k = next;
            converged = true;
            break;
          }
          k = next;
        }
        if (!converged)
          throw NumericalError(
              "max_wait_fixed_point: recurrence did not converge (m < 1 violated?)");
        k_hat = k;
      }
      const double response = k_hat + facts_[members[i]].model->dwell(k_hat);
      if (!(response <= facts_[members[i]].deadline + 1e-12)) all_ok = false;
    }
    return all_ok;
  }

  MaxWaitMethod method_;
  std::vector<AppFacts> facts_;
  bool use_memo_ = false;
  std::unordered_map<std::uint64_t, bool> memo_;
};

/// Dedicated-slot feasibility of one application, throwing the shared
/// diagnostic otherwise.
void require_alone_feasible(SlotFeasibility& engine, const AppSchedParams& app,
                            std::size_t index) {
  if (!engine.feasible({index}))
    throw InfeasibleError("application '" + app.name +
                          "' cannot meet its deadline even on a dedicated TT slot");
}

/// First-fit over indices (the paper's heuristic), shared by the public
/// entry point and the branch-and-bound seed.  max_slots = 0 is unlimited.
std::vector<std::vector<std::size_t>> first_fit_indices(
    SlotFeasibility& engine, const std::vector<AppSchedParams>& apps, std::size_t max_slots) {
  std::vector<std::vector<std::size_t>> slots;
  std::vector<std::size_t> candidate;
  for (std::size_t i = 0; i < apps.size(); ++i) {
    bool placed = false;
    for (auto& slot : slots) {
      candidate = slot;
      candidate.push_back(i);
      if (engine.feasible(candidate)) {
        slot = candidate;
        placed = true;
        break;
      }
    }
    if (!placed) {
      // A new slot always accepts a single application provided it can
      // meet its deadline alone; verify to fail loudly otherwise.
      require_alone_feasible(engine, apps[i], i);
      slots.push_back({i});
      if (max_slots != 0 && slots.size() > max_slots)
        throw InfeasibleError("slot allocation exceeds the available " +
                              std::to_string(max_slots) + " TT slots");
    }
  }
  return slots;
}

/// Materialize index slots back into application slots for finalize().
std::vector<std::vector<AppSchedParams>> materialize(
    const std::vector<std::vector<std::size_t>>& slots,
    const std::vector<AppSchedParams>& apps) {
  std::vector<std::vector<AppSchedParams>> out;
  out.reserve(slots.size());
  for (const auto& slot : slots) {
    std::vector<AppSchedParams> block;
    block.reserve(slot.size());
    for (std::size_t i : slot) block.push_back(apps[i]);
    out.push_back(std::move(block));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Branch-and-bound machinery for optimal_allocate.
//
// Four pruning layers sit on top of the feasibility engine; each is SOUND
// (it never excludes every optimal partition, and in the witness pass it
// never excludes the canonical-first witness), so the proven count and
// the returned partition stay bit-identical to the reference search:
//
//  * Conflict pairs: (i, j) such that NO slot containing both can be
//    feasible.  The screen rests on monotone wait growth — adding slot
//    members only grows blocking and interference, so each member's
//    maximum wait in a superset slot is at least its wait in the pair —
//    plus DwellWaitModel::min_response_from, a sound infimum of the
//    response beyond a known wait (the non-monotonic tent makes plain
//    response monotonicity false, so the infimum is what must clear the
//    deadline).  A conflicting pair in a candidate slot means
//    feasible() would return false; skipping the call changes nothing.
//  * Symmetry breaking: an application whose IMMEDIATE predecessor in
//    priority order is an interchangeable twin (bitwise-equal r,
//    deadline, xi_M, utilization and an identical dwell curve) never
//    goes into a slot below that twin's.  Exchange argument: swapping
//    two ADJACENT-index applications preserves every other member's
//    relative priority position inside both affected slots (no third
//    application's index can lie between them), so the swap maps any
//    partition violating the rule to an equally feasible one strictly
//    earlier in canonical DFS order — the canonical-first witness always
//    satisfies the rule.  Adjacency is essential: for non-adjacent twins
//    an application between them could sit above one twin and below the
//    other, the swap would change intra-slot priority structure, and the
//    screen could prune every optimal partition.
//  * Utilization / fractional-packing bound: in any feasible slot the
//    lowest-priority member sees m < 1, so a slot's total utilization is
//    < 1 + (utilization of its lowest-priority member); the e extra
//    slots a completion opens absorb < e + (sum of the e largest
//    remaining utilizations), the e future lowest-priority members being
//    distinct applications.
//  * Conflict-clique bound: a greedy clique among the remaining
//    applications needs pairwise-distinct slots; members conflicting
//    with every existing slot need that many NEW slots.

constexpr std::size_t kNoTwin = static_cast<std::size_t>(-1);

std::uint64_t bit_of(std::size_t i) { return std::uint64_t{1} << i; }

/// Shared search state for the branch-and-bound passes.  Note that a
/// partial partition is reachable by exactly one choice sequence (apps are
/// placed in index order and blocks are identified by their lowest-index
/// member), so no transposition bookkeeping is needed — distinct nodes are
/// distinct states.
struct SearchState {
  std::vector<std::vector<std::size_t>> blocks;
  std::vector<double> loads;
  std::vector<std::uint64_t> masks;  ///< membership bitmask per slot
  std::vector<std::size_t> slot_of;  ///< slot index of each placed app

  explicit SearchState(std::size_t n) : slot_of(n, 0) {}

  void push(std::size_t slot, std::size_t app, double util) {
    blocks[slot].push_back(app);
    loads[slot] += util;  // appending keeps this the exact in-order sum
    masks[slot] |= bit_of(app);
    slot_of[app] = slot;
  }
  void pop(std::size_t slot, const std::vector<double>& utils) {
    masks[slot] &= ~bit_of(blocks[slot].back());
    blocks[slot].pop_back();
    // Recompute the in-order sum instead of subtracting: (L + u) - u can
    // drift ulps away from L, and the loads feed the >= 1.0 feasibility
    // screen and the lower bounds, which must see exactly the sum the
    // feasibility engine computes.
    double load = 0.0;
    for (const std::size_t member : blocks[slot]) load += utils[member];
    loads[slot] = load;
  }
  void open(std::size_t app, double util) {
    blocks.push_back({app});
    loads.push_back(util);
    masks.push_back(bit_of(app));
    slot_of[app] = blocks.size() - 1;
  }
  void close() {
    blocks.pop_back();
    loads.pop_back();
    masks.pop_back();
  }
};

/// Precomputed instance facts shared (read-only) by every search pass and
/// every parallel subtree task: utilizations, suffix tables, conflict
/// masks, greedy conflict cliques per suffix, and twins.
struct SearchFacts {
  std::size_t n = 0;
  MaxWaitMethod method = MaxWaitMethod::kClosedFormBound;
  std::vector<double> utils;                    ///< facts(i).util, index order
  std::vector<double> suffix_util;              ///< sum of utils over apps [i, n)
  std::vector<double> suffix_max;               ///< max util over apps [i, n)
  std::vector<std::vector<double>> suffix_top;  ///< [i][e]: e largest utils in [i, n)
  std::vector<std::uint64_t> conflict;          ///< apps that can never share with i
  std::vector<std::uint64_t> clique_suffix;     ///< greedy conflict clique within [i, n)
  std::vector<std::size_t> twin;                ///< adjacent interchangeable predecessor
  std::size_t total_lb = 1;                     ///< root lower bound on the slot count

  SearchFacts(const SlotFeasibility& engine, MaxWaitMethod wait_method, std::size_t count)
      : n(count), method(wait_method) {
    utils.reserve(n);
    for (std::size_t i = 0; i < n; ++i) utils.push_back(engine.facts(i).util);

    suffix_util.assign(n + 1, 0.0);
    suffix_max.assign(n + 1, 0.0);
    for (std::size_t i = n; i-- > 0;) {
      suffix_util[i] = utils[i] + suffix_util[i + 1];
      suffix_max[i] = std::max(utils[i], suffix_max[i + 1]);
    }
    suffix_top.assign(n + 1, {});
    for (std::size_t i = 0; i <= n; ++i) {
      std::vector<double> desc(utils.begin() + static_cast<std::ptrdiff_t>(i), utils.end());
      std::sort(desc.begin(), desc.end(), std::greater<double>());
      auto& top = suffix_top[i];
      top.assign(desc.size() + 1, 0.0);
      for (std::size_t e = 0; e < desc.size(); ++e) top[e + 1] = top[e] + desc[e];
    }

    conflict.assign(n, 0);
    for (std::size_t j = 1; j < n; ++j)
      for (std::size_t i = 0; i < j; ++i)
        if (never_share(engine, i, j)) {
          conflict[i] |= bit_of(j);
          conflict[j] |= bit_of(i);
        }

    clique_suffix.assign(n + 1, 0);
    for (std::size_t i = 0; i < n; ++i) clique_suffix[i] = greedy_clique(i);

    // Only the ADJACENT predecessor qualifies as a twin (see the file
    // comment: the exchange argument needs no third index between the
    // pair).  Interchangeable runs still chain: twin[j] = j-1 for every
    // later member of the run.
    twin.assign(n, kNoTwin);
    for (std::size_t j = 1; j < n; ++j) {
      const AppFacts& a = engine.facts(j - 1);
      const AppFacts& b = engine.facts(j);
      if (bits_equal(a.r, b.r) && bits_equal(a.deadline, b.deadline) &&
          bits_equal(a.xi_m, b.xi_m) && bits_equal(a.util, b.util) &&
          a.model->same_curve(*b.model))
        twin[j] = j - 1;
    }

    // Root bound: smallest S with total_util < S + (sum of the S largest
    // utils) — every partition into S slots has total utilization below
    // that, since the S lowest-priority members are distinct applications
    // — strengthened by the greedy conflict clique over the full set.
    for (std::size_t s = 1; s <= n; ++s) {
      if (suffix_util[0] < static_cast<double>(s) + suffix_top[0][s]) {
        total_lb = s;
        break;
      }
    }
    total_lb = std::max(
        total_lb, static_cast<std::size_t>(__builtin_popcountll(clique_suffix[0])));
  }

  /// Lower bound on the final slot count from a node where apps [0, i)
  /// form `state` and apps [i, n) are still unplaced.
  std::size_t lower_bound_at(std::size_t i, const SearchState& state) const {
    const std::size_t used = state.blocks.size();
    if (i >= n) return used;  // nothing left to place

    // (a) Fractional packing over interference utilizations.
    std::size_t packing = used;
    const double remaining = suffix_util[i];
    const double u_max = suffix_max[i];
    double capacity = 0.0;  // what the existing slots can still absorb
    for (const double load : state.loads) capacity += std::max(0.0, 1.0 + u_max - load);
    if (remaining > capacity) {
      const double deficit = remaining - capacity;
      const auto& top = suffix_top[i];
      std::size_t extra = 1;
      while (extra < top.size() &&
             !(deficit < static_cast<double>(extra) + top[extra]))
        ++extra;
      packing = used + extra;
    }

    // (b) Conflict clique: remaining clique members that conflict with
    // every existing slot need pairwise-distinct NEW slots.
    std::size_t need_new = 0;
    std::uint64_t clique = clique_suffix[i];
    while (clique != 0) {
      const auto v = static_cast<std::size_t>(__builtin_ctzll(clique));
      clique &= clique - 1;
      bool fits_existing = false;
      for (const std::uint64_t mask : state.masks)
        if ((conflict[v] & mask) == 0) {
          fits_existing = true;
          break;
        }
      if (!fits_existing) ++need_new;
    }
    return std::max(packing, used + need_new);
  }

 private:
  /// True when i and j (i higher priority) provably cannot share ANY
  /// feasible slot.  Sound under both wait methods: a superset slot only
  /// grows each member's maximum wait beyond the pair's, and
  /// min_response_from bounds the response from below beyond that wait.
  bool never_share(const SlotFeasibility& engine, std::size_t i, std::size_t j) const {
    const AppFacts& hi = engine.facts(i);
    const AppFacts& lo = engine.facts(j);
    // The lower-priority member's interference utilization alone: m >= 1
    // fails the slot outright in compute().
    if (hi.util >= 1.0) return true;
    // i's side: with j anywhere below it, i's blocking is at least xi_M_j.
    if (hi.model->min_response_from(lo.xi_m) > hi.deadline + 1e-12) return true;
    // j's side: with i anywhere above it, j's wait is at least the pair's
    // k_hat (monotone in blocking and interference set for both methods).
    double k_min = 0.0;
    if (method == MaxWaitMethod::kClosedFormBound) {
      k_min = hi.xi_m / (1.0 - hi.util);
    } else {
      double k = hi.xi_m;  // the pair's critical-instant seed
      bool converged = false;
      for (int it = 0; it < 10000; ++it) {
        const double next = fixed_point_interference_term(k, hi.r, hi.xi_m);  // a = 0
        if (std::fabs(next - k) <= 1e-12) {
          k = next;
          converged = true;
          break;
        }
        k = next;
      }
      if (!converged) return false;  // conservative: claim nothing
      k_min = k;
    }
    return lo.model->min_response_from(k_min) > lo.deadline + 1e-12;
  }

  /// Deterministic greedy clique in the conflict graph restricted to
  /// [start, n): vertices by descending suffix degree, ties by index.
  std::uint64_t greedy_clique(std::size_t start) const {
    const std::uint64_t all = n == 64 ? ~std::uint64_t{0} : bit_of(n) - 1;
    const std::uint64_t suffix_mask = all & ~(bit_of(start) - 1);
    std::vector<std::size_t> order;
    order.reserve(n - start);
    for (std::size_t v = start; v < n; ++v) order.push_back(v);
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      const int da = __builtin_popcountll(conflict[a] & suffix_mask);
      const int db = __builtin_popcountll(conflict[b] & suffix_mask);
      if (da != db) return da > db;
      return a < b;
    });
    std::uint64_t clique = 0;
    for (const std::size_t v : order)
      if ((conflict[v] & clique) == clique) clique |= bit_of(v);
    return clique;
  }
};

/// Phase 1: prove the optimal slot count.  Explores existing slots
/// best-first (descending interference load, ties by index) so tight
/// packings — and therefore tight upper bounds — are found early; prunes
/// with the lower-bound table, the conflict/symmetry screens and
/// last-application dominance.  Only the count is tracked — through a
/// monotone SharedIncumbent, so top-level subtrees can run concurrently
/// (the proven minimum is schedule-independent); the witness partition is
/// reconstructed by phase 2.
class CountProver {
 public:
  CountProver(SlotFeasibility& engine, const SearchFacts& facts,
              runtime::SharedIncumbent& incumbent,
              const std::atomic<bool>* cancel = nullptr)
      : engine_(engine), facts_(facts), incumbent_(incumbent), n_(facts.n),
        cancel_(cancel) {}

  /// Prove from the root (sequential path).
  void prove() {
    SearchState state(n_);
    dfs(state, 0);
  }

  /// Prove one frontier subtree (parallel task; `state` is this task's
  /// private copy of the node).
  void prove_from(SearchState state, std::size_t next_app) { dfs(state, next_app); }

  /// Nodes this prover expanded (diagnostics only).
  std::size_t visited() const { return visited_; }

 private:
  /// True when some existing slot accepts app i (cheap screens first).
  bool fits_somewhere(const SearchState& state, std::size_t i) {
    for (std::size_t s = 0; s < state.blocks.size(); ++s) {
      if (state.loads[s] >= 1.0) continue;
      if ((facts_.conflict[i] & state.masks[s]) != 0) continue;
      candidate_ = state.blocks[s];
      candidate_.push_back(i);
      if (engine_.feasible(candidate_)) return true;
    }
    return false;
  }

  void dfs(SearchState& state, std::size_t i) {
    ++visited_;
    // Cooperative cancellation: a relaxed flag poll every 32 nodes keeps
    // the check off the profile while bounding the latency between a
    // deadline expiring and the search abandoning (node cost times 32).
    if (cancel_ != nullptr && (visited_ & 31u) == 0 &&
        cancel_->load(std::memory_order_relaxed))
      throw CancelledError("optimal_allocate: bound proving cancelled");
    if (state.blocks.size() >= incumbent_.load()) return;
    if (facts_.lower_bound_at(i, state) >= incumbent_.load()) return;
    if (i == n_) {
      incumbent_.improve(state.blocks.size());
      return;
    }

    // Last-application dominance: placing the final app into any feasible
    // existing slot yields count = |blocks| and dominates opening a new
    // slot (count + 1); no branching needed at the last level.  (The
    // symmetry rule is deliberately NOT applied here: the dominance
    // argument only needs SOME feasible completion of that count to
    // exist, and feasibility does not care about canonical form.)
    if (i + 1 == n_) {
      if (fits_somewhere(state, i))
        incumbent_.improve(state.blocks.size());
      else
        incumbent_.improve(state.blocks.size() + 1);
      return;
    }

    std::vector<std::size_t> order(state.blocks.size());
    for (std::size_t s = 0; s < order.size(); ++s) order[s] = s;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (state.loads[a] != state.loads[b]) return state.loads[a] > state.loads[b];
      return a < b;
    });

    const double util = facts_.utils[i];
    const std::uint64_t conflicts = facts_.conflict[i];
    const std::size_t s_min =
        facts_.twin[i] == kNoTwin ? 0 : state.slot_of[facts_.twin[i]];
    for (const std::size_t s : order) {
      if (s < s_min) continue;              // symmetry: never below the twin
      if (state.loads[s] >= 1.0) continue;  // the newcomer's m would be >= 1
      if ((conflicts & state.masks[s]) != 0) continue;  // conflicting member
      candidate_ = state.blocks[s];
      candidate_.push_back(i);
      if (!engine_.feasible(candidate_)) continue;
      state.push(s, i, util);
      dfs(state, i + 1);
      state.pop(s, facts_.utils);
    }
    if (state.blocks.size() + 1 < incumbent_.load()) {
      state.open(i, util);
      dfs(state, i + 1);
      state.close();
    }
  }

  SlotFeasibility& engine_;
  const SearchFacts& facts_;
  runtime::SharedIncumbent& incumbent_;
  std::size_t n_;
  std::size_t visited_ = 0;
  const std::atomic<bool>* cancel_ = nullptr;
  std::vector<std::size_t> candidate_;
};

/// A node of the canonical search tree, emitted by expand_frontier for a
/// parallel subtree task.
struct FrontierNode {
  SearchState state;
  std::size_t next_app = 0;
};

/// Expand the canonical search tree level-synchronously (every node on
/// one level is replaced by its non-pruned children, in canonical order:
/// existing slots by index, then a new slot) until at least `target`
/// nodes exist, the tree is exhausted, or the next level would reach the
/// last application.  The task list is independent of the worker count,
/// and pruning uses the same sound screens as the searches, so the set of
/// optimal completions is preserved.
std::vector<FrontierNode> expand_frontier(SlotFeasibility& engine, const SearchFacts& facts,
                                          const runtime::SharedIncumbent& incumbent,
                                          std::size_t target) {
  std::vector<FrontierNode> frontier;
  frontier.push_back(FrontierNode{SearchState(facts.n), 0});
  std::vector<std::size_t> candidate;
  while (!frontier.empty() && frontier.size() < target &&
         frontier.front().next_app + 2 < facts.n) {
    std::vector<FrontierNode> next;
    next.reserve(frontier.size() * 2);
    for (auto& node : frontier) {
      const std::size_t i = node.next_app;
      SearchState& state = node.state;
      if (state.blocks.size() >= incumbent.load()) continue;
      if (facts.lower_bound_at(i, state) >= incumbent.load()) continue;
      const double util = facts.utils[i];
      const std::uint64_t conflicts = facts.conflict[i];
      const std::size_t s_min =
          facts.twin[i] == kNoTwin ? 0 : state.slot_of[facts.twin[i]];
      for (std::size_t s = 0; s < state.blocks.size(); ++s) {
        if (s < s_min || state.loads[s] >= 1.0 || (conflicts & state.masks[s]) != 0)
          continue;
        candidate = state.blocks[s];
        candidate.push_back(i);
        if (!engine.feasible(candidate)) continue;
        SearchState child = state;
        child.push(s, i, util);
        next.push_back(FrontierNode{std::move(child), i + 1});
      }
      if (state.blocks.size() + 1 < incumbent.load()) {
        SearchState child = std::move(state);
        child.open(i, util);
        next.push_back(FrontierNode{std::move(child), i + 1});
      }
    }
    frontier = std::move(next);
  }
  return frontier;
}

/// How many frontier subtree tasks the parallel prove aims for.  Fixed
/// (not derived from the job count) so the decomposition — and therefore
/// the strong-scaling profile — is identical for every `exact_jobs`.
constexpr std::size_t kFrontierTarget = 128;

/// Below this size the sequential prove always wins; skip the fan-out.
constexpr std::size_t kMinAppsForParallelProve = 10;

/// Prove the optimal slot count: sequentially, or across frontier
/// subtrees on a ParallelSearch.  The result is the same either way — a
/// sound branch-and-bound's proven minimum does not depend on the order
/// in which incumbent improvements arrive.
std::size_t prove_optimal_count(const std::vector<AppSchedParams>& apps,
                                SlotFeasibility& engine, const SearchFacts& facts,
                                std::size_t upper_bound, int jobs,
                                const std::atomic<bool>* cancel) {
  runtime::SharedIncumbent incumbent(upper_bound);
  if (jobs <= 1 || facts.n < kMinAppsForParallelProve) {
    CountProver prover(engine, facts, incumbent, cancel);
    prover.prove();
    return incumbent.load();
  }
  const auto frontier = expand_frontier(engine, facts, incumbent, kFrontierTarget);
  runtime::ParallelSearch search({jobs});
  search.map(frontier.size(), [&](std::size_t t) {
    // Per-task feasibility engine: the facts are identical (same inputs,
    // same construction), only the memo is task-private.  A task that
    // observes the cancel flag throws CancelledError, which map()
    // rethrows after cancelling the pending subtree tasks — the reused
    // interrupt machinery of the parallel search.
    SlotFeasibility task_engine(apps, facts.method);
    CountProver prover(task_engine, facts, incumbent, cancel);
    prover.prove_from(frontier[t].state, frontier[t].next_app);
    return prover.visited();
  });
  return incumbent.load();
}

/// Phase 2: reconstruct the exact partition the pre-optimization search
/// returns — the first complete assignment with the optimal count in
/// canonical depth-first order (existing slots by index, then a new slot).
/// The same sound pruning applies, so only subtrees that provably hold no
/// optimal assignment are skipped; the canonical-first witness survives
/// every screen (it satisfies the symmetry rule by the exchange argument
/// above).  Always sequential: this is the canonical tie-breaking that
/// makes the returned Allocation independent of exact_jobs.
class WitnessSearch {
 public:
  WitnessSearch(SlotFeasibility& engine, const SearchFacts& facts,
                const std::atomic<bool>* cancel = nullptr)
      : engine_(engine), facts_(facts), n_(facts.n), cancel_(cancel) {}

  std::vector<std::vector<std::size_t>> find(std::size_t optimal_count) {
    bound_ = optimal_count + 1;
    found_ = false;
    SearchState state(n_);
    dfs(state, 0);
    CPS_ENSURE(found_, "optimal_allocate: proven count has no witness (internal error)");
    return result_;
  }

 private:
  void dfs(SearchState& state, std::size_t i) {
    if (found_) return;
    ++visited_;
    if (cancel_ != nullptr && (visited_ & 31u) == 0 &&
        cancel_->load(std::memory_order_relaxed))
      throw CancelledError("optimal_allocate: witness reconstruction cancelled");
    if (state.blocks.size() >= bound_) return;
    if (facts_.lower_bound_at(i, state) >= bound_) return;
    if (i == n_) {
      result_ = state.blocks;
      found_ = true;
      return;
    }

    const double util = facts_.utils[i];
    const std::uint64_t conflicts = facts_.conflict[i];
    const std::size_t s_min =
        facts_.twin[i] == kNoTwin ? 0 : state.slot_of[facts_.twin[i]];
    for (std::size_t s = 0; s < state.blocks.size() && !found_; ++s) {
      if (s < s_min) continue;
      if (state.loads[s] >= 1.0) continue;
      if ((conflicts & state.masks[s]) != 0) continue;
      candidate_ = state.blocks[s];
      candidate_.push_back(i);
      if (!engine_.feasible(candidate_)) continue;
      state.push(s, i, util);
      dfs(state, i + 1);
      state.pop(s, facts_.utils);
      // Last-application dominance, canonical form: the first feasible
      // existing slot for the final app IS the canonical-first completion
      // from this node; if it met the bound we are done, and if not, no
      // other placement of the final app can (all give the same count).
      if (i + 1 == n_) return;
    }
    if (found_) return;
    if (state.blocks.size() + 1 < bound_) {
      state.open(i, util);
      dfs(state, i + 1);
      state.close();
    }
  }

  SlotFeasibility& engine_;
  const SearchFacts& facts_;
  std::size_t n_;
  std::size_t bound_ = 0;
  std::size_t visited_ = 0;
  bool found_ = false;
  const std::atomic<bool>* cancel_ = nullptr;
  std::vector<std::vector<std::size_t>> result_;
  std::vector<std::size_t> candidate_;
};

}  // namespace

Allocation first_fit_allocate(std::vector<AppSchedParams> apps,
                              const AllocationOptions& options) {
  CPS_ENSURE(!apps.empty(), "first_fit_allocate: need at least one application");
  sort_by_priority(apps);
  SlotFeasibility engine(apps, options.method);
  const auto slots = first_fit_indices(engine, apps, options.max_slots);
  return finalize(materialize(slots, apps), options);
}

Allocation best_fit_allocate(std::vector<AppSchedParams> apps,
                             const AllocationOptions& options) {
  CPS_ENSURE(!apps.empty(), "best_fit_allocate: need at least one application");
  sort_by_priority(apps);
  SlotFeasibility engine(apps, options.method);

  // Interference utilization of a slot's contents, summed in priority
  // order exactly as the pre-rework slot_load lambda did.
  auto slot_load = [&engine](const std::vector<std::size_t>& slot) {
    double load = 0.0;
    for (std::size_t i : slot) load += engine.facts(i).util;
    return load;
  };

  std::vector<std::vector<std::size_t>> slots;
  std::vector<std::size_t> candidate;
  for (std::size_t i = 0; i < apps.size(); ++i) {
    double best_load = -1.0;
    std::size_t best_slot = slots.size();
    for (std::size_t s = 0; s < slots.size(); ++s) {
      candidate = slots[s];
      candidate.push_back(i);
      if (!engine.feasible(candidate)) continue;
      const double load = slot_load(candidate);
      if (load > best_load) {
        best_load = load;
        best_slot = s;
      }
    }
    if (best_slot < slots.size()) {
      // Appending preserves priority order: i outranks nothing already
      // placed (apps are processed by decreasing priority).
      slots[best_slot].push_back(i);
    } else {
      require_alone_feasible(engine, apps[i], i);
      slots.push_back({i});
      if (options.max_slots != 0 && slots.size() > options.max_slots)
        throw InfeasibleError("slot allocation exceeds the available " +
                              std::to_string(options.max_slots) + " TT slots");
    }
  }
  return finalize(materialize(slots, apps), options);
}

Allocation optimal_allocate(std::vector<AppSchedParams> apps, const AllocationOptions& options,
                            std::size_t max_apps_for_exact) {
  CPS_ENSURE(!apps.empty(), "optimal_allocate: need at least one application");
  CPS_ENSURE(apps.size() <= max_apps_for_exact,
             "optimal_allocate: exact search limited to max_apps_for_exact applications");
  CPS_ENSURE(apps.size() <= 64,
             "optimal_allocate: exact search limited to 64 applications (bitmask state)");
  sort_by_priority(apps);
  SlotFeasibility engine(apps, options.method);
  for (std::size_t i = 0; i < apps.size(); ++i) require_alone_feasible(engine, apps[i], i);

  // The paper's first-fit heuristic seeds the upper bound — and remains
  // the answer whenever the search cannot beat it, exactly as in the
  // reference implementation.
  const auto seed = first_fit_indices(engine, apps, 0);

  const SearchFacts facts(engine, options.method, apps.size());
  std::vector<std::vector<std::size_t>> best = seed;
  // Anytime warm start: an achievable count from the caller tightens the
  // initial incumbent below the first-fit seed.  The proven minimum is
  // incumbent-independent, so the result matches a cold run exactly.
  std::size_t upper = seed.size();
  if (options.warm_incumbent != 0 && options.warm_incumbent < upper)
    upper = options.warm_incumbent;
  std::size_t optimal_count = upper;
  if (upper > facts.total_lb)
    optimal_count = prove_optimal_count(apps, engine, facts, upper, options.exact_jobs,
                                        options.cancel);
  if (optimal_count < seed.size())
    best = WitnessSearch(engine, facts, options.cancel).find(optimal_count);

  if (options.max_slots != 0 && best.size() > options.max_slots)
    throw InfeasibleError("optimal allocation still exceeds the available " +
                          std::to_string(options.max_slots) + " TT slots");
  return finalize(materialize(best, apps), options);
}

double ExactSearchProfile::critical_path_seconds(int jobs) const {
  return setup_seconds + runtime::ParallelSearch::list_schedule_makespan(task_seconds, jobs) +
         witness_seconds;
}

ExactSearchProfile profile_exact_search(std::vector<AppSchedParams> apps,
                                        const AllocationOptions& options,
                                        std::size_t max_apps_for_exact) {
  CPS_ENSURE(!apps.empty(), "profile_exact_search: need at least one application");
  CPS_ENSURE(apps.size() <= max_apps_for_exact,
             "profile_exact_search: exact search limited to max_apps_for_exact applications");
  CPS_ENSURE(apps.size() <= 64,
             "profile_exact_search: exact search limited to 64 applications (bitmask state)");
  using Clock = std::chrono::steady_clock;
  const auto since = [](Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };

  sort_by_priority(apps);
  ExactSearchProfile profile;
  profile.n = apps.size();

  const auto setup_start = Clock::now();
  SlotFeasibility engine(apps, options.method);
  for (std::size_t i = 0; i < apps.size(); ++i) require_alone_feasible(engine, apps[i], i);
  const auto seed = first_fit_indices(engine, apps, 0);
  const SearchFacts facts(engine, options.method, apps.size());
  profile.seed_slots = seed.size();
  profile.root_lower_bound = facts.total_lb;
  const bool search_needed = seed.size() > facts.total_lb;
  std::vector<FrontierNode> frontier;
  if (search_needed) {
    const runtime::SharedIncumbent expansion_bound(seed.size());
    frontier = expand_frontier(engine, facts, expansion_bound, kFrontierTarget);
  }
  profile.setup_seconds = since(setup_start);

  profile.optimal_slots = seed.size();
  if (search_needed) {
    // The real sequential prove, timed (the j=1 baseline).
    const auto prove_start = Clock::now();
    runtime::SharedIncumbent incumbent(seed.size());
    CountProver prover(engine, facts, incumbent);
    prover.prove();
    profile.sequential_seconds = since(prove_start);
    profile.optimal_slots = incumbent.load();

    // The parallel decomposition, run one subtree at a time with per-task
    // timing (ParallelSearch::map_timed): incumbent improvements apply in
    // canonical completion order, so the durations are reproducible.
    runtime::SharedIncumbent task_incumbent(seed.size());
    runtime::ParallelSearch sequential_runner({1});
    sequential_runner.map_timed(
        frontier.size(),
        [&](std::size_t t) {
          SlotFeasibility task_engine(apps, options.method);
          CountProver task_prover(task_engine, facts, task_incumbent);
          task_prover.prove_from(frontier[t].state, frontier[t].next_app);
          return task_prover.visited();
        },
        profile.task_seconds);
    CPS_ENSURE(task_incumbent.load() == profile.optimal_slots,
               "profile_exact_search: decomposition disagrees with the sequential prove");
  }

  if (profile.optimal_slots < seed.size()) {
    const auto witness_start = Clock::now();
    const auto witness = WitnessSearch(engine, facts).find(profile.optimal_slots);
    CPS_ENSURE(witness.size() == profile.optimal_slots,
               "profile_exact_search: witness size mismatch");
    profile.witness_seconds = since(witness_start);
  }
  return profile;
}

}  // namespace cps::analysis
