#include "analysis/slot_allocation.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <utility>

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
    out.analyses.push_back(analyze_slot(std::move(slot), options.method));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Mask-indexed slot-feasibility engine.
//
// The allocators spend their entire runtime asking "is this slot's
// application set schedulable?".  analyze_slot answers that, but each call
// copies the AppSchedParams (std::string names included), re-sorts them and
// heap-allocates the result vector.  This engine answers the same question
// over *indices* into the caller's priority-sorted application vector with
// the exact floating-point operation order of analyze_slot (same sums, same
// maxima, same comparisons), so its verdicts are bit-identical.
//
// Applications are placed in index (= priority) order, so a slot's
// membership bitmask fully determines its ordered members: the engine
// takes the mask itself as the query, walks its set bits into a stack
// array, and memoizes the verdict in a flat open-addressing table keyed
// by the mask — branch-and-bound re-tests the same slot contents along
// many branches.  A verdict is a pure function of the mask, so the memo
// never changes an answer.  Instances above 64 applications have no mask;
// only the heuristics accept them, and they check explicit member lists
// without a memo.

/// Largest instance the membership bitmask (and the exact search) covers.
constexpr std::size_t kMaxIndexedApps = 64;

std::uint64_t bit_of(std::size_t i) { return std::uint64_t{1} << i; }

std::size_t lowest_bit(std::uint64_t mask) {
  return static_cast<std::size_t>(__builtin_ctzll(mask));
}

std::size_t highest_bit(std::uint64_t mask) {
  return 63 - static_cast<std::size_t>(__builtin_clzll(mask));
}

struct AppFacts {
  double xi_m = 0.0;     // model->max_dwell(), the xi^M of the analysis
  double util = 0.0;     // xi_m / r, one interference-utilization term
  double r = 1.0;        // minimum inter-arrival time
  double deadline = 1.0;
  const DwellWaitModel* model = nullptr;
};

// The Eq. (5) recurrence term is shared with the semantic source:
// fixed_point_interference_term (analysis/schedulability.hpp).  The
// engine's verdicts and its never-host sets both take their waits from
// that one expression, so a never-host claim is a claim about the real
// feasibility math.

/// Slot facts keyed by membership mask: linear probing over a
/// power-of-two table kept at most half full, Fibonacci-hashed on the
/// high product bits (so bit 63 mixes in like every other).  Key 0 marks
/// an empty cell — every queried slot has a member, so no real key is 0.
/// A cell carries two payloads, each filled on its own first query: the
/// feasibility verdict and the never-host set (SlotFeasibility::never_hosts),
/// whose column is allocated only once a search asks for one.  The table
/// allocates on the first insert and then only when it doubles.
class VerdictMemo {
 public:
  /// The memoized verdict of `mask`: 1 feasible, 0 infeasible, -1 unknown.
  int find(std::uint64_t mask) const {
    const std::size_t cell = lookup(mask);
    if (cell == kAbsent || (flags_[cell] & kHasVerdict) == 0) return -1;
    return (flags_[cell] & kFeasible) != 0 ? 1 : 0;
  }

  /// Record the verdict of a mask that find() reported unknown.
  void insert(std::uint64_t mask, bool verdict) {
    flags_[claim(mask)] |= static_cast<std::uint8_t>(kHasVerdict | (verdict ? kFeasible : 0));
  }

  /// The memoized never-host set of `mask` into `hosts`; false if unknown.
  bool find_never_hosts(std::uint64_t mask, std::uint64_t& hosts) const {
    const std::size_t cell = lookup(mask);
    if (cell == kAbsent || (flags_[cell] & kHasNeverHosts) == 0) return false;
    hosts = never_hosts_[cell];
    return true;
  }

  /// Record the never-host set of a mask that find_never_hosts() missed.
  void insert_never_hosts(std::uint64_t mask, std::uint64_t hosts) {
    const std::size_t cell = claim(mask);
    if (never_hosts_.empty()) never_hosts_.assign(keys_.size(), 0);
    flags_[cell] |= kHasNeverHosts;
    never_hosts_[cell] = hosts;
  }

 private:
  static constexpr std::size_t kInitialCells = 64;
  static constexpr std::size_t kAbsent = static_cast<std::size_t>(-1);
  static constexpr std::uint8_t kHasVerdict = 1;
  static constexpr std::uint8_t kFeasible = 2;
  static constexpr std::uint8_t kHasNeverHosts = 4;

  std::size_t probe(std::uint64_t mask) const {
    const std::size_t wrap = keys_.size() - 1;
    auto cell = static_cast<std::size_t>((mask * 0x9E3779B97F4A7C15ULL) >> shift_);
    while (keys_[cell] != 0 && keys_[cell] != mask) cell = (cell + 1) & wrap;
    return cell;
  }

  /// The cell holding `mask`, or kAbsent.
  std::size_t lookup(std::uint64_t mask) const {
    if (keys_.empty()) return kAbsent;
    const std::size_t cell = probe(mask);
    return keys_[cell] == mask ? cell : kAbsent;
  }

  /// The cell holding `mask`, created (payloads unknown) when absent.
  std::size_t claim(std::uint64_t mask) {
    if (keys_.empty()) grow();
    std::size_t cell = probe(mask);
    if (keys_[cell] == mask) return cell;
    if (2 * (size_ + 1) > keys_.size()) {
      grow();
      cell = probe(mask);
    }
    keys_[cell] = mask;
    ++size_;
    return cell;
  }

  void grow() {
    const std::vector<std::uint64_t> old_keys = std::move(keys_);
    const std::vector<std::uint8_t> old_flags = std::move(flags_);
    const std::vector<std::uint64_t> old_never_hosts = std::move(never_hosts_);
    const std::size_t cells = old_keys.empty() ? kInitialCells : 2 * old_keys.size();
    keys_.assign(cells, 0);
    flags_.assign(cells, 0);
    if (!old_never_hosts.empty()) never_hosts_.assign(cells, 0);
    shift_ = 64 - static_cast<unsigned>(__builtin_ctzll(cells));
    for (std::size_t c = 0; c < old_keys.size(); ++c) {
      if (old_keys[c] == 0) continue;
      const std::size_t cell = probe(old_keys[c]);
      keys_[cell] = old_keys[c];
      flags_[cell] = old_flags[c];
      if (!old_never_hosts.empty()) never_hosts_[cell] = old_never_hosts[c];
    }
  }

  std::vector<std::uint64_t> keys_;
  std::vector<std::uint8_t> flags_;
  std::vector<std::uint64_t> never_hosts_;
  std::size_t size_ = 0;
  unsigned shift_ = 64;
};

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
  }

  const AppFacts& facts(std::size_t i) const { return facts_[i]; }

  /// True when every application has a mask bit (at most 64 of them).
  bool indexed() const { return facts_.size() <= kMaxIndexedApps; }

  /// Schedulability of the slot holding exactly the set bits of `mask`
  /// (requires indexed()).  Equals
  /// analyze_slot({apps[members]...}, method).all_schedulable bit for bit.
  bool feasible(std::uint64_t mask) {
    const int cached = memo_.find(mask);
    if (cached >= 0) return cached != 0;
    std::array<std::size_t, kMaxIndexedApps> members{};
    const std::size_t count = members_of(mask, members.data());
    const bool ok = compute(members.data(), count);
    memo_.insert(mask, ok);
    return ok;
  }

  /// The same verdict for an explicit member list (indices in increasing
  /// = priority order), unmemoized: the path of instances too large for a
  /// mask.
  bool feasible_members(const std::vector<std::size_t>& members) const {
    return compute(members.data(), members.size());
  }

  /// The never-host set of a nonzero `mask` (requires indexed()): the
  /// applications j above max(mask) — lower priority than every member —
  /// such that NO slot containing the members and j can be feasible.
  /// Memoized.  j is claimed when, in the slot mask + j, some member's
  /// interference utilization reaches 1 or some member can no longer
  /// meet its deadline from its maximum wait on (min_response_from, the
  /// infimum of the response beyond a wait).  Adding members only grows
  /// each member's blocking and interference set, hence its utilization
  /// and wait, so every superset fails too.  Members whose blocking j
  /// does not raise keep their wait in `mask` and are not re-tested (on
  /// a feasible mask they claim nothing); a recurrence that does not
  /// converge claims nothing, so this never throws.
  std::uint64_t never_hosts(std::uint64_t mask) {
    std::uint64_t hosts = 0;
    if (memo_.find_never_hosts(mask, hosts)) return hosts;
    // Monotone in the mask: j dead for the slot without its last member
    // stays dead with it, so a known parent set spares those tests.
    const std::uint64_t parent = mask & ~bit_of(highest_bit(mask));
    std::uint64_t known = 0;
    if (parent != 0) memo_.find_never_hosts(parent, known);
    hosts = compute_never_hosts(mask, known);
    memo_.insert_never_hosts(mask, hosts);
    return hosts;
  }

  /// never_hosts() without the memo; `known` holds apps already known to
  /// be never-hosted, which are not re-tested.
  std::uint64_t compute_never_hosts(std::uint64_t mask, std::uint64_t known = 0) const {
    std::array<std::size_t, kMaxIndexedApps + 1> members;  // [0, count] written below
    const std::size_t count = members_of(mask, members.data());
    const std::size_t last = members[count - 1];
    std::uint64_t hosts = known & ~(bit_of(last) | (bit_of(last) - 1));
    if (last + 1 == facts_.size()) return hosts;

    // The newcomer sits below every member: no blocking and the whole
    // slot as interference, so its wait is the same for every j.
    double k_new = 0.0;
    const Wait newcomer = max_wait(members.data(), count + 1, count, k_new);
    // blocking[x]: the blocking member x sees within the mask.
    std::array<double, kMaxIndexedApps> blocking;
    blocking[count - 1] = 0.0;
    for (std::size_t x = count - 1; x-- > 0;)
      blocking[x] = std::max(blocking[x + 1], facts_[members[x + 1]].xi_m);

    for (std::size_t j = last + 1; j < facts_.size(); ++j) {
      if ((hosts & bit_of(j)) != 0) continue;
      const AppFacts& fj = facts_[j];
      bool dead = newcomer == Wait::kSaturated ||
                  (newcomer == Wait::kBounded && hopeless(fj, k_new));
      // blocking[] only shrinks down the slot, so the members whose
      // blocking j raises are a suffix of it.
      members[count] = j;
      for (std::size_t x = count; !dead && x-- > 0 && blocking[x] < fj.xi_m;) {
        double k_hat = 0.0;
        const Wait w = max_wait(members.data(), count + 1, x, k_hat);
        dead = w == Wait::kSaturated ||
               (w == Wait::kBounded && hopeless(facts_[members[x]], k_hat));
      }
      if (dead) hosts |= bit_of(j);
    }
    return hosts;
  }

 private:
  /// Outcome of one member's maximum-wait computation.
  enum class Wait { kBounded, kSaturated, kDiverged };

  static std::size_t members_of(std::uint64_t mask, std::size_t* members) {
    std::size_t count = 0;
    for (std::uint64_t rest = mask; rest != 0; rest &= rest - 1)
      members[count++] = lowest_bit(rest);
    return count;
  }

  /// Maximum wait k_hat of members[i] in the slot members[0, count), in
  /// analyze_slot's exact floating-point operation order.  kSaturated: its
  /// interference utilization reaches 1; kDiverged: the Eq. (5) fixed
  /// point exceeds the iteration cap.  Keep in sync with
  /// analysis/schedulability.cpp (the semantic source of this math).
  Wait max_wait(const std::size_t* members, std::size_t count, std::size_t i,
                double& k_hat) const {
    // Blocking a (Eq. 8): largest lower-priority max dwell.
    double a = 0.0;
    for (std::size_t k = i + 1; k < count; ++k) a = std::max(a, facts_[members[k]].xi_m);
    // Interference utilization m (Eq. 19).
    double m = 0.0;
    for (std::size_t j = 0; j < i; ++j) m += facts_[members[j]].util;
    if (m >= 1.0) return Wait::kSaturated;

    if (method_ == MaxWaitMethod::kClosedFormBound) {
      double a_prime = a;
      for (std::size_t j = 0; j < i; ++j) a_prime += facts_[members[j]].xi_m;
      k_hat = a_prime / (1.0 - m);
      return Wait::kBounded;
    }
    // Exact fixed point of Eq. (5), identical to max_wait_fixed_point.
    double k = a;
    for (std::size_t j = 0; j < i; ++j) k += facts_[members[j]].xi_m;
    for (int it = 0; it < 10000; ++it) {
      double next = a;
      for (std::size_t j = 0; j < i; ++j)
        next += fixed_point_interference_term(k, facts_[members[j]].r, facts_[members[j]].xi_m);
      if (std::fabs(next - k) <= 1e-12) {
        k_hat = next;
        return Wait::kBounded;
      }
      k = next;
    }
    return Wait::kDiverged;
  }

  bool compute(const std::size_t* members, std::size_t count) const {
    // Mirrors analyze_slot member by member — including evaluating every
    // member rather than stopping at the first failure, so an exception a
    // later member would raise (fixed-point non-convergence) surfaces
    // exactly as in the reference path.
    bool all_ok = true;
    for (std::size_t i = 0; i < count; ++i) {
      double k_hat = 0.0;
      switch (max_wait(members, count, i, k_hat)) {
        case Wait::kSaturated:
          return false;  // every lower-priority member fails too
        case Wait::kDiverged:
          throw NumericalError(
              "max_wait_fixed_point: recurrence did not converge (m < 1 violated?)");
        case Wait::kBounded:
          break;
      }
      const double response = k_hat + facts_[members[i]].model->dwell(k_hat);
      if (!(response <= facts_[members[i]].deadline + 1e-12)) all_ok = false;
    }
    return all_ok;
  }

  /// True when an application can no longer meet its deadline once its
  /// maximum wait is at least `wait`.
  static bool hopeless(const AppFacts& f, double wait) {
    return f.model->min_response_from(wait) > f.deadline + 1e-12;
  }

  MaxWaitMethod method_;
  std::vector<AppFacts> facts_;
  VerdictMemo memo_;
};

/// Dedicated-slot feasibility of one application, throwing the shared
/// diagnostic otherwise.
void require_alone_feasible(SlotFeasibility& engine, const AppSchedParams& app,
                            std::size_t index) {
  const bool alone = engine.indexed() ? engine.feasible(bit_of(index))
                                      : engine.feasible_members({index});
  if (!alone)
    throw InfeasibleError("application '" + app.name +
                          "' cannot meet its deadline even on a dedicated TT slot");
}

/// The growing partition of a heuristic allocator: member lists (the
/// answer) plus, on mask-indexed instances, one membership mask per slot
/// for the memoized feasibility query.
class HeuristicPartition {
 public:
  explicit HeuristicPartition(SlotFeasibility& engine) : engine_(engine) {}

  std::size_t size() const { return slots_.size(); }
  const std::vector<std::size_t>& members(std::size_t s) const { return slots_[s]; }

  /// Whether slot `s` stays schedulable with app i added (i outranks none
  /// of its members: apps are processed by decreasing priority).
  bool accepts(std::size_t s, std::size_t i) {
    if (engine_.indexed()) return engine_.feasible(masks_[s] | bit_of(i));
    candidate_ = slots_[s];
    candidate_.push_back(i);
    return engine_.feasible_members(candidate_);
  }

  void add(std::size_t s, std::size_t i) {
    slots_[s].push_back(i);  // appending preserves priority order
    if (engine_.indexed()) masks_[s] |= bit_of(i);
  }

  /// Open a new slot for `app` (index i), failing loudly when it cannot
  /// meet its deadline even alone or the slot cap is exceeded.
  /// max_slots = 0 is unlimited.
  void open(const AppSchedParams& app, std::size_t i, std::size_t max_slots) {
    require_alone_feasible(engine_, app, i);
    slots_.push_back({i});
    if (engine_.indexed()) masks_.push_back(bit_of(i));
    if (max_slots != 0 && slots_.size() > max_slots)
      throw InfeasibleError("slot allocation exceeds the available " +
                            std::to_string(max_slots) + " TT slots");
  }

  std::vector<std::vector<std::size_t>> release() { return std::move(slots_); }

 private:
  SlotFeasibility& engine_;
  std::vector<std::vector<std::size_t>> slots_;
  std::vector<std::uint64_t> masks_;
  std::vector<std::size_t> candidate_;
};

/// First-fit over indices (the paper's heuristic), shared by the public
/// entry point and the branch-and-bound seed.  max_slots = 0 is unlimited.
std::vector<std::vector<std::size_t>> first_fit_indices(
    SlotFeasibility& engine, const std::vector<AppSchedParams>& apps, std::size_t max_slots) {
  HeuristicPartition partition(engine);
  for (std::size_t i = 0; i < apps.size(); ++i) {
    std::size_t s = 0;
    while (s < partition.size() && !partition.accepts(s, i)) ++s;
    if (s < partition.size())
      partition.add(s, i);
    else
      partition.open(apps[i], i, max_slots);
  }
  return partition.release();
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
// Five pruning layers sit on top of the feasibility engine; each is SOUND
// (it never excludes every optimal partition, and in the witness pass it
// never excludes the canonical-first witness), so the proven count and
// the returned partition stay bit-identical to the reference search:
//
//  * Conflict pairs: (i, j) such that NO slot containing both can be
//    feasible — j in the never-host set of the singleton {i}.  The
//    screen rests on monotone wait growth — adding slot
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
//  * Forward checking: the conflict-pair screen generalised from a pair
//    to a whole slot.  never_hosts(M) holds every j above max(M) for
//    which no superset of M + j can be feasible (the same monotone-wait
//    and min_response_from argument: some member's utilization reaches
//    1, or some member — j included — misses its deadline from its wait
//    in M + j on).  Open slots only grow, and never_hosts(M + x) contains
//    never_hosts(M) above x, so an unplaced app in every open slot's set
//    can only go into a NEW slot.  At a node that may open no further
//    slot (slots + 1 = bound) such a homeless app leaves no completion
//    below the bound, and the node is pruned.  Nodes with room for more
//    slots are not checked: a greedy clique of homeless apps needing
//    all the remaining room pruned 0.07 % more nodes on the
//    sweep_alloc_scaling instances than the check at slots + 1 = bound
//    alone, for more never-host evaluations.  A recurrence that does not
//    converge claims nothing, so the screen never throws where the
//    search would not.
//
// Forward checking prunes the two searches only.  The root lower bound
// and the frontier expansion keep the other four layers: both are
// reported (sweep_alloc_parallel.csv, the profile's task count), and a
// screen that changed them would change those reports without changing
// any Allocation.
//
// The search state is fixed-size (one membership mask and one load per
// slot), so expanding a node touches no heap: slot orders are built on
// the stack and every feasibility query is a mask lookup.

constexpr std::size_t kNoTwin = static_cast<std::size_t>(-1);

/// Forward checking pays from this size on.  Measured in Release on a
/// 4-vCPU VM: on random allocator-ablation instances it proves n = 14
/// ~25 % faster, breaks even at n = 12 and costs ~14 % at n = 10; on the
/// n = 10..12 instances of sweep_flexray_params (~100 nodes a search)
/// evaluating the never-host sets costs ~8 % more than the nodes it
/// saves.
constexpr std::size_t kMinAppsForForwardCheck = 13;

/// Shared search state for the branch-and-bound passes.  Note that a
/// partial partition is reachable by exactly one choice sequence (apps are
/// placed in index order and blocks are identified by their lowest-index
/// member), so no transposition bookkeeping is needed — distinct nodes are
/// distinct states.  Slot members are the set bits of its mask, in
/// increasing = priority order.
struct SearchState {
  std::size_t slots = 0;                                ///< slots opened so far
  std::array<double, kMaxIndexedApps> loads{};          ///< in-order utilization sum
  std::array<std::uint64_t, kMaxIndexedApps> masks{};   ///< membership bitmask per slot
  std::array<std::uint8_t, kMaxIndexedApps> slot_of{};  ///< slot index of each placed app

  void push(std::size_t slot, std::size_t app, double util) {
    loads[slot] += util;  // appending keeps this the exact in-order sum
    masks[slot] |= bit_of(app);
    slot_of[app] = static_cast<std::uint8_t>(slot);
  }
  void pop(std::size_t slot, std::size_t app, const std::vector<double>& utils) {
    masks[slot] &= ~bit_of(app);
    // Recompute the in-order sum instead of subtracting: (L + u) - u can
    // drift ulps away from L, and the loads feed the >= 1.0 feasibility
    // screen and the lower bounds, which must see exactly the sum the
    // feasibility engine computes.
    double load = 0.0;
    for (std::uint64_t rest = masks[slot]; rest != 0; rest &= rest - 1)
      load += utils[lowest_bit(rest)];
    loads[slot] = load;
  }
  void open(std::size_t app, double util) {
    loads[slots] = util;
    masks[slots] = bit_of(app);
    slot_of[app] = static_cast<std::uint8_t>(slots);
    ++slots;
  }
  void close() { --slots; }

  /// The partition as member lists, slots in index order.
  std::vector<std::vector<std::size_t>> members() const {
    std::vector<std::vector<std::size_t>> out(slots);
    for (std::size_t s = 0; s < slots; ++s)
      for (std::uint64_t rest = masks[s]; rest != 0; rest &= rest - 1)
        out[s].push_back(lowest_bit(rest));
    return out;
  }
};

/// Precomputed instance facts shared (read-only) by every search pass and
/// every subtree task: utilizations, suffix tables, conflict
/// masks, greedy conflict cliques per suffix, and twins.
struct SearchFacts {
  std::size_t n = 0;
  std::vector<double> utils;                    ///< facts(i).util, index order
  std::vector<double> suffix_util;              ///< sum of utils over apps [i, n)
  std::vector<double> suffix_max;               ///< max util over apps [i, n)
  std::vector<double> suffix_top;               ///< top(i, e): e largest utils in [i, n)
  std::vector<std::uint64_t> conflict;          ///< apps that can never share with i
  std::vector<std::uint64_t> clique_suffix;     ///< greedy conflict clique within [i, n)
  std::vector<std::size_t> twin;                ///< adjacent interchangeable predecessor
  std::size_t total_lb = 1;                     ///< root lower bound on the slot count
  bool forward_check = false;                   ///< run pruning layer (e)

  SearchFacts(const SlotFeasibility& engine, std::size_t count)
      : n(count), forward_check(count >= kMinAppsForForwardCheck) {
    utils.reserve(n);
    for (std::size_t i = 0; i < n; ++i) utils.push_back(engine.facts(i).util);

    suffix_util.assign(n + 1, 0.0);
    suffix_max.assign(n + 1, 0.0);
    for (std::size_t i = n; i-- > 0;) {
      suffix_util[i] = utils[i] + suffix_util[i + 1];
      suffix_max[i] = std::max(utils[i], suffix_max[i + 1]);
    }
    // Row i holds the prefix sums of [i, n)'s utilizations in descending
    // order; entries past n - i stay unused.
    suffix_top.assign((n + 1) * (n + 1), 0.0);
    std::array<double, kMaxIndexedApps> desc{};
    for (std::size_t i = 0; i <= n; ++i) {
      std::copy(utils.begin() + static_cast<std::ptrdiff_t>(i), utils.end(), desc.begin());
      std::sort(desc.begin(), desc.begin() + static_cast<std::ptrdiff_t>(n - i),
                std::greater<double>());
      double* row = &suffix_top[i * (n + 1)];
      for (std::size_t e = 0; e < n - i; ++e) row[e + 1] = row[e] + desc[e];
    }

    // A pair conflicts when the singleton slot of its higher-priority
    // member never hosts the other.
    conflict.assign(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t below = engine.compute_never_hosts(bit_of(i));
      conflict[i] |= below;
      for (std::uint64_t rest = below; rest != 0; rest &= rest - 1)
        conflict[lowest_bit(rest)] |= bit_of(i);
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
      if (suffix_util[0] < static_cast<double>(s) + top(0, s)) {
        total_lb = s;
        break;
      }
    }
    total_lb = std::max(
        total_lb, static_cast<std::size_t>(__builtin_popcountll(clique_suffix[0])));
  }

  /// Sum of the e largest utilizations among apps [i, n), e <= n - i.
  double top(std::size_t i, std::size_t e) const { return suffix_top[i * (n + 1) + e]; }

  /// Lower bound on the final slot count from a node where apps [0, i)
  /// form `state` and apps [i, n) are still unplaced.
  std::size_t lower_bound_at(std::size_t i, const SearchState& state) const {
    const std::size_t used = state.slots;
    if (i >= n) return used;  // nothing left to place

    // (a) Fractional packing over interference utilizations.
    std::size_t packing = used;
    const double remaining = suffix_util[i];
    const double u_max = suffix_max[i];
    double capacity = 0.0;  // what the existing slots can still absorb
    for (std::size_t s = 0; s < used; ++s)
      capacity += std::max(0.0, 1.0 + u_max - state.loads[s]);
    if (remaining > capacity) {
      const double deficit = remaining - capacity;
      std::size_t extra = 1;
      while (extra <= n - i && !(deficit < static_cast<double>(extra) + top(i, extra)))
        ++extra;
      packing = used + extra;
    }

    // (b) Conflict clique: remaining clique members that conflict with
    // every existing slot need pairwise-distinct NEW slots.
    std::size_t need_new = 0;
    std::uint64_t clique = clique_suffix[i];
    while (clique != 0) {
      const std::size_t v = lowest_bit(clique);
      clique &= clique - 1;
      bool fits_existing = false;
      for (std::size_t s = 0; s < used; ++s)
        if ((conflict[v] & state.masks[s]) == 0) {
          fits_existing = true;
          break;
        }
      if (!fits_existing) ++need_new;
    }
    return std::max(packing, used + need_new);
  }

  /// Apps [i, n) as a mask.
  std::uint64_t suffix_mask(std::size_t i) const {
    const std::uint64_t all = n == 64 ? ~std::uint64_t{0} : bit_of(n) - 1;
    return all & ~(bit_of(i) - 1);
  }

  /// Deterministic greedy clique in the conflict graph restricted to
  /// [start, n): vertices by descending suffix degree, ties by index.
  std::uint64_t greedy_clique(std::size_t start) const {
    const std::uint64_t suffix = suffix_mask(start);
    std::array<std::size_t, kMaxIndexedApps> order{};
    const auto last = order.begin() + static_cast<std::ptrdiff_t>(n - start);
    for (std::size_t v = start; v < n; ++v) order[v - start] = v;
    std::sort(order.begin(), last, [&](std::size_t a, std::size_t b) {
      const int da = __builtin_popcountll(conflict[a] & suffix);
      const int db = __builtin_popcountll(conflict[b] & suffix);
      if (da != db) return da > db;
      return a < b;
    });
    std::uint64_t clique = 0;
    for (auto it = order.begin(); it != last; ++it)
      if ((conflict[*it] & clique) == clique) clique |= bit_of(*it);
    return clique;
  }
};

/// Pruning layer (e), forward checking, at a node that may open no
/// further slot: true when some unplaced app in [i, n) has no open slot
/// that can ever host it.
bool has_homeless_app(SlotFeasibility& engine, const SearchFacts& facts,
                      const SearchState& state, std::size_t i) {
  std::uint64_t homeless = facts.suffix_mask(i);
  for (std::size_t s = 0; s < state.slots && homeless != 0; ++s)
    homeless &= engine.never_hosts(state.masks[s]);
  return homeless != 0;
}

/// Lowest slot app i may join under the symmetry rule: its twin's slot,
/// or 0 when i has no twin.
std::size_t twin_floor(const SearchFacts& facts, const SearchState& state, std::size_t i) {
  return facts.twin[i] == kNoTwin ? 0 : state.slot_of[facts.twin[i]];
}

/// The child screen every pass applies before placing app i into open
/// slot s: the twin floor, a load that would leave the newcomer's m at
/// 1 or more, a conflicting member, and only then the memoized
/// feasibility verdict of the grown slot.
bool may_join(SlotFeasibility& engine, const SearchFacts& facts, const SearchState& state,
              std::size_t s, std::size_t i, std::size_t s_min) {
  if (s < s_min) return false;
  if (state.loads[s] >= 1.0) return false;
  if ((facts.conflict[i] & state.masks[s]) != 0) return false;
  return engine.feasible(state.masks[s] | bit_of(i));
}

/// Cooperative cancellation: a relaxed flag poll every 32 nodes keeps the
/// check off the profile while bounding the latency between a deadline
/// expiring and the search abandoning (node cost times 32).
void poll_cancel(const std::atomic<bool>* cancel, std::size_t visited, const char* what) {
  if (cancel != nullptr && (visited & 31u) == 0 && cancel->load(std::memory_order_relaxed))
    throw CancelledError(what);
}

/// Phase 1: prove the optimal slot count.  Explores existing slots
/// best-first (descending interference load, ties by index) so tight
/// packings — and therefore tight upper bounds — are found early; prunes
/// with the lower-bound table, the conflict/symmetry screens, forward
/// checking and last-application dominance.  Only the count is tracked;
/// the witness partition is reconstructed by phase 2.
class CountProver {
 public:
  /// `incumbent` is an achievable slot count the search must beat.
  CountProver(SlotFeasibility& engine, const SearchFacts& facts, std::size_t incumbent,
              const std::atomic<bool>* cancel = nullptr)
      : engine_(engine), facts_(facts), incumbent_(incumbent), n_(facts.n), cancel_(cancel) {}

  /// Prove from the root.
  void prove() {
    SearchState state;
    dfs(state, 0);
  }

  /// Prove one frontier subtree (`state` is a private copy of the node).
  void prove_from(SearchState state, std::size_t next_app) { dfs(state, next_app); }

  /// The best slot count found so far: the proven optimum after prove().
  std::size_t incumbent() const { return incumbent_; }
  /// Nodes this prover expanded (diagnostics only).
  std::size_t visited() const { return visited_; }
  /// Of those, nodes pruned by forward checking (diagnostics only).
  std::size_t forward_check_prunes() const { return forward_check_prunes_; }

 private:
  /// True when some existing slot accepts app i (cheap screens first).
  bool fits_somewhere(const SearchState& state, std::size_t i) {
    for (std::size_t s = 0; s < state.slots; ++s)
      if (may_join(engine_, facts_, state, s, i, 0)) return true;
    return false;
  }

  void improve(std::size_t count) { incumbent_ = std::min(incumbent_, count); }

  void dfs(SearchState& state, std::size_t i) {
    ++visited_;
    poll_cancel(cancel_, visited_, "optimal_allocate: bound proving cancelled");
    if (state.slots >= incumbent_) return;
    if (facts_.lower_bound_at(i, state) >= incumbent_) return;
    if (i == n_) {
      improve(state.slots);
      return;
    }

    // Last-application dominance: placing the final app into any feasible
    // existing slot yields count = |blocks| and dominates opening a new
    // slot (count + 1); no branching needed at the last level.  (The
    // symmetry rule is deliberately NOT applied here: the dominance
    // argument only needs SOME feasible completion of that count to
    // exist, and feasibility does not care about canonical form.)
    if (i + 1 == n_) {
      improve(fits_somewhere(state, i) ? state.slots : state.slots + 1);
      return;
    }
    if (facts_.forward_check && state.slots + 1 >= incumbent_ &&
        has_homeless_app(engine_, facts_, state, i)) {
      ++forward_check_prunes_;
      return;
    }

    // Best-first order by insertion: slot s enters behind every earlier
    // slot at least as loaded, which is descending load with ties by index.
    std::array<std::uint8_t, kMaxIndexedApps> order{};
    for (std::size_t s = 0; s < state.slots; ++s) {
      std::size_t pos = s;
      for (; pos > 0 && state.loads[order[pos - 1]] < state.loads[s]; --pos)
        order[pos] = order[pos - 1];
      order[pos] = static_cast<std::uint8_t>(s);
    }

    const double util = facts_.utils[i];
    const std::size_t s_min = twin_floor(facts_, state, i);
    for (std::size_t k = 0, used = state.slots; k < used; ++k) {
      const std::size_t s = order[k];
      if (!may_join(engine_, facts_, state, s, i, s_min)) continue;
      state.push(s, i, util);
      dfs(state, i + 1);
      state.pop(s, i, facts_.utils);
    }
    if (state.slots + 1 < incumbent_) {
      state.open(i, util);
      dfs(state, i + 1);
      state.close();
    }
  }

  SlotFeasibility& engine_;
  const SearchFacts& facts_;
  std::size_t incumbent_;
  std::size_t n_;
  std::size_t visited_ = 0;
  std::size_t forward_check_prunes_ = 0;
  const std::atomic<bool>* cancel_ = nullptr;
};

/// A node of the canonical search tree, emitted by expand_frontier for
/// one subtree task of the profiled decomposition.
struct FrontierNode {
  SearchState state;
  std::size_t next_app = 0;
};

/// Expand the canonical search tree level-synchronously (every node on
/// one level is replaced by its non-pruned children, in canonical order:
/// existing slots by index, then a new slot) until at least `target`
/// nodes exist, the tree is exhausted, or the next level would reach the
/// last application.  Children are pruned against the achievable count
/// `incumbent` with the same sound screens as the searches, so the set of
/// optimal completions is preserved.
std::vector<FrontierNode> expand_frontier(SlotFeasibility& engine, const SearchFacts& facts,
                                          std::size_t incumbent, std::size_t target) {
  std::vector<FrontierNode> frontier;
  frontier.push_back(FrontierNode{SearchState{}, 0});
  while (!frontier.empty() && frontier.size() < target &&
         frontier.front().next_app + 2 < facts.n) {
    std::vector<FrontierNode> next;
    next.reserve(frontier.size() * 2);
    for (const auto& node : frontier) {
      const std::size_t i = node.next_app;
      const SearchState& state = node.state;
      if (state.slots >= incumbent) continue;
      if (facts.lower_bound_at(i, state) >= incumbent) continue;
      const double util = facts.utils[i];
      const std::size_t s_min = twin_floor(facts, state, i);
      for (std::size_t s = 0; s < state.slots; ++s) {
        if (!may_join(engine, facts, state, s, i, s_min)) continue;
        next.push_back(FrontierNode{state, i + 1});
        next.back().state.push(s, i, util);
      }
      if (state.slots + 1 < incumbent) {
        next.push_back(FrontierNode{state, i + 1});
        next.back().state.open(i, util);
      }
    }
    frontier = std::move(next);
  }
  return frontier;
}

/// How many frontier subtree tasks the profiled decomposition aims for.
/// Fixed rather than derived from a core count, so the reported task
/// count is a property of the instance alone.
constexpr std::size_t kFrontierTarget = 128;

/// Makespan of greedily list-scheduling `task_seconds` (in order) onto
/// `workers` cores, each task to the earliest-free worker — the schedule
/// a work-stealing pool approximates on dedicated cores.
double list_schedule_makespan(const std::vector<double>& task_seconds, int workers) {
  CPS_ENSURE(workers >= 1, "critical_path_seconds: need at least one worker");
  std::vector<double> free_at(static_cast<std::size_t>(workers), 0.0);
  for (const double task : task_seconds) {
    auto slot = std::min_element(free_at.begin(), free_at.end());
    *slot += std::max(0.0, task);
  }
  return *std::max_element(free_at.begin(), free_at.end());
}

/// Phase 2: reconstruct the exact partition the pre-optimization search
/// returns — the first complete assignment with the optimal count in
/// canonical depth-first order (existing slots by index, then a new slot).
/// The same sound pruning applies, so only subtrees that provably hold no
/// optimal assignment are skipped; the canonical-first witness survives
/// every screen (it satisfies the symmetry rule by the exchange argument
/// above).  This canonical tie-breaking is what makes the returned
/// Allocation independent of the order in which phase 1 found its bounds.
class WitnessSearch {
 public:
  WitnessSearch(SlotFeasibility& engine, const SearchFacts& facts,
                const std::atomic<bool>* cancel = nullptr)
      : engine_(engine), facts_(facts), n_(facts.n), cancel_(cancel) {}

  std::vector<std::vector<std::size_t>> find(std::size_t optimal_count) {
    bound_ = optimal_count + 1;
    found_ = false;
    SearchState state;
    dfs(state, 0);
    CPS_ENSURE(found_, "optimal_allocate: proven count has no witness (internal error)");
    return result_.members();
  }

 private:
  void dfs(SearchState& state, std::size_t i) {
    if (found_) return;
    ++visited_;
    poll_cancel(cancel_, visited_, "optimal_allocate: witness reconstruction cancelled");
    if (state.slots >= bound_) return;
    if (facts_.lower_bound_at(i, state) >= bound_) return;
    if (i == n_) {
      result_ = state;
      found_ = true;
      return;
    }
    if (facts_.forward_check && state.slots + 1 >= bound_ &&
        has_homeless_app(engine_, facts_, state, i))
      return;

    const double util = facts_.utils[i];
    const std::size_t s_min = twin_floor(facts_, state, i);
    for (std::size_t s = 0; s < state.slots && !found_; ++s) {
      if (!may_join(engine_, facts_, state, s, i, s_min)) continue;
      state.push(s, i, util);
      dfs(state, i + 1);
      state.pop(s, i, facts_.utils);
      // Last-application dominance, canonical form: the first feasible
      // existing slot for the final app IS the canonical-first completion
      // from this node; if it met the bound we are done, and if not, no
      // other placement of the final app can (all give the same count).
      if (i + 1 == n_) return;
    }
    if (found_) return;
    if (state.slots + 1 < bound_) {
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
  SearchState result_;
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

  HeuristicPartition partition(engine);
  for (std::size_t i = 0; i < apps.size(); ++i) {
    double best_load = -1.0;
    std::size_t best_slot = partition.size();
    for (std::size_t s = 0; s < partition.size(); ++s) {
      if (!partition.accepts(s, i)) continue;
      // Interference utilization of the candidate slot, summed in
      // priority order (members, then the newcomer).
      double load = 0.0;
      for (std::size_t m : partition.members(s)) load += engine.facts(m).util;
      load += engine.facts(i).util;
      if (load > best_load) {
        best_load = load;
        best_slot = s;
      }
    }
    if (best_slot < partition.size())
      partition.add(best_slot, i);
    else
      partition.open(apps[i], i, options.max_slots);
  }
  return finalize(materialize(partition.release(), apps), options);
}

Allocation optimal_allocate(std::vector<AppSchedParams> apps, const AllocationOptions& options,
                            std::size_t max_apps_for_exact) {
  CPS_ENSURE(!apps.empty(), "optimal_allocate: need at least one application");
  CPS_ENSURE(apps.size() <= max_apps_for_exact,
             "optimal_allocate: exact search limited to max_apps_for_exact applications");
  CPS_ENSURE(apps.size() <= kMaxIndexedApps,
             "optimal_allocate: exact search limited to 64 applications (bitmask state)");
  sort_by_priority(apps);
  SlotFeasibility engine(apps, options.method);
  for (std::size_t i = 0; i < apps.size(); ++i) require_alone_feasible(engine, apps[i], i);

  // The paper's first-fit heuristic seeds the upper bound — and remains
  // the answer whenever the search cannot beat it, exactly as in the
  // reference implementation.
  auto best = first_fit_indices(engine, apps, 0);
  const std::size_t seed_slots = best.size();

  const SearchFacts facts(engine, apps.size());
  // Anytime warm start: an achievable count from the caller tightens the
  // initial incumbent below the first-fit seed.  The proven minimum is
  // incumbent-independent, so the result matches a cold run exactly.
  std::size_t upper = seed_slots;
  if (options.warm_incumbent != 0 && options.warm_incumbent < upper)
    upper = options.warm_incumbent;
  std::size_t optimal_count = upper;
  if (upper > facts.total_lb) {
    CountProver prover(engine, facts, upper, options.cancel);
    prover.prove();
    optimal_count = prover.incumbent();
  }
  if (optimal_count < seed_slots)
    best = WitnessSearch(engine, facts, options.cancel).find(optimal_count);

  if (options.max_slots != 0 && best.size() > options.max_slots)
    throw InfeasibleError("optimal allocation still exceeds the available " +
                          std::to_string(options.max_slots) + " TT slots");
  return finalize(materialize(best, apps), options);
}

std::uint64_t never_host_set(const std::vector<AppSchedParams>& apps, std::uint64_t mask,
                             MaxWaitMethod method) {
  CPS_ENSURE(apps.size() <= kMaxIndexedApps,
             "never_host_set: at most 64 applications (bitmask state)");
  CPS_ENSURE(mask != 0 && (apps.size() == kMaxIndexedApps || (mask >> apps.size()) == 0),
             "never_host_set: mask must name at least one of the applications");
  return SlotFeasibility(apps, method).compute_never_hosts(mask);
}

double ExactSearchProfile::critical_path_seconds(int jobs) const {
  return setup_seconds + list_schedule_makespan(task_seconds, jobs) + witness_seconds;
}

ExactSearchProfile profile_exact_search(std::vector<AppSchedParams> apps,
                                        const AllocationOptions& options,
                                        std::size_t max_apps_for_exact) {
  CPS_ENSURE(!apps.empty(), "profile_exact_search: need at least one application");
  CPS_ENSURE(apps.size() <= max_apps_for_exact,
             "profile_exact_search: exact search limited to max_apps_for_exact applications");
  CPS_ENSURE(apps.size() <= kMaxIndexedApps,
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
  const SearchFacts facts(engine, apps.size());
  profile.seed_slots = seed.size();
  profile.root_lower_bound = facts.total_lb;
  const bool search_needed = seed.size() > facts.total_lb;
  std::vector<FrontierNode> frontier;
  if (search_needed) frontier = expand_frontier(engine, facts, seed.size(), kFrontierTarget);
  // The root engine as the frontier left it, before the sequential prove
  // below warms its memo further; every subtree task starts from a copy.
  const SlotFeasibility frontier_engine = engine;
  profile.setup_seconds = since(setup_start);

  profile.optimal_slots = seed.size();
  if (search_needed) {
    // The real sequential prove, timed.
    const auto prove_start = Clock::now();
    CountProver prover(engine, facts, seed.size());
    prover.prove();
    profile.sequential_seconds = since(prove_start);
    profile.sequential_nodes = prover.visited();
    profile.forward_check_prunes = prover.forward_check_prunes();
    profile.optimal_slots = prover.incumbent();

    // The frontier decomposition, one subtree task at a time in canonical
    // order, each timed; a task's improvements carry into the next, so
    // the durations are reproducible.
    std::size_t task_incumbent = seed.size();
    profile.task_seconds.reserve(frontier.size());
    for (const FrontierNode& node : frontier) {
      const auto task_start = Clock::now();
      SlotFeasibility task_engine(frontier_engine);
      CountProver task_prover(task_engine, facts, task_incumbent);
      task_prover.prove_from(node.state, node.next_app);
      task_incumbent = task_prover.incumbent();
      profile.task_seconds.push_back(since(task_start));
    }
    CPS_ENSURE(task_incumbent == profile.optimal_slots,
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
