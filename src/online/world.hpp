// The online world: a deterministic, sim-time/wall-clock-decoupled tick
// engine hosting the switched-system fleet as a resident system.
//
// Following DZSimulator's tick-clock split, SIM TIME is not wall time:
// it advances ONLY as ticks are computed — World::advance(n) computes up
// to n ticks and sim_time() is exactly tick() * tick_seconds, no matter
// how long (or short) the wall-clock computation took, so a run can be
// replayed, paused, and resumed tick-by-tick with identical results.
//
// Each tick:
//  1. every scenario event scheduled at this tick fires (fault
//     injection: slot loss, dropped/delayed frames, parameter drift,
//     churn), each followed by one incremental re-allocation
//     (online/reallocation.hpp: repair, then warm-started exact B&B)
//     and one ReallocationReport;
//  2. the tick's sim-time interval is simulated: each app's disturbance
//     arrivals (drawn from its private Rng, spaced >= its minimum
//     inter-arrival time r) are serviced at the WORST-CASE response of
//     its current slot placement — an arrival whose placement is
//     unschedulable (or that lands during a total slot outage) is a
//     deadline MISS; schedulable arrivals accumulate TT-mode dwell time
//     (the ET/TT switched semantics, analysis-driven).
//
// Determinism contract (CI-enforced): identical scenario + seed =>
// byte-identical event-log CSV, for any advance() call pattern and any
// process count — per-app Rngs are seeded from (world seed, app name),
// so arrival streams survive fleet churn unchanged.  Wall-clock quantities (proof times) go to stdout tables
// only and NEVER into the event log.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "online/reallocation.hpp"
#include "online/scenario.hpp"
#include "util/rng.hpp"

namespace cps::online {

/// One row of the replayable event log (the byte-compared artifact).
/// Row kinds: "init" (the cold allocation at tick 0), one row per fired
/// scenario event (kind name), "miss" (per app per tick with >= 1
/// missed arrival), "end" (the run summary).
struct EventLogRow {
  std::uint64_t tick = 0;
  std::string event;
  std::string app;           ///< target/missing app ("" for fleet-level rows)
  std::size_t slots = 0;     ///< allocation slot count after the row's action
  bool feasible = false;     ///< schedulable allocation fits the budget
  std::size_t fleet = 0;     ///< apps resident after the row's action
  std::uint64_t arrivals = 0;  ///< cumulative fleet arrivals
  std::uint64_t misses = 0;    ///< cumulative fleet deadline misses
  std::string detail;          ///< kind-specific (factors, warm/gap, counts)
};

/// The resident ticking world (see file comment).
class World {
 public:
  /// Build the world at tick 0: synthesize the scenario's fleet with
  /// `seed` (resolve it via effective_scenario_seed first), run the
  /// initial allocation, log the "init" row.
  World(ScenarioSpec scenario, std::uint64_t seed, ReallocationPolicy policy = {});

  /// Compute up to `n_ticks` more ticks (stops at the scenario's end);
  /// returns the number actually computed.  Sim time advances exactly
  /// here and nowhere else.
  std::uint64_t advance(std::uint64_t n_ticks);

  /// advance() to the scenario's end.
  void run() { advance(scenario_.ticks); }

  std::uint64_t tick() const { return tick_; }
  /// Sim seconds elapsed: tick() * tick_seconds (never wall clock).
  double sim_time() const { return static_cast<double>(tick_) * scenario_.tick_seconds; }
  bool done() const { return tick_ >= scenario_.ticks; }

  const ScenarioSpec& scenario() const { return scenario_; }
  std::uint64_t seed() const { return seed_; }
  const std::vector<EventLogRow>& event_log() const { return log_; }
  const std::vector<ReallocationReport>& reports() const { return reports_; }
  /// Current allocation (degraded when infeasible, empty during outage).
  const analysis::Allocation& allocation() const { return allocation_; }
  bool feasible() const { return feasible_; }
  /// Remaining slot budget (0 = unlimited, outage when an allocation is
  /// impossible because drop_slot events exhausted every slot).
  std::size_t slot_budget() const { return slot_budget_; }
  bool outage() const { return outage_; }
  std::uint64_t total_arrivals() const { return total_arrivals_; }
  std::uint64_t total_misses() const { return total_misses_; }
  /// Names of the resident apps, in arrival-stream order.
  std::vector<std::string> app_names() const;

 private:
  struct AppState {
    plants::SynthesizedSchedApp params;
    Rng rng;                    ///< private arrival stream (seed, name)-seeded
    double next_arrival = 0.0;  ///< sim time of the next disturbance
    std::uint64_t arrivals = 0;
    std::uint64_t misses = 0;
    bool schedulable = false;   ///< current placement's verdict
    double response = 0.0;      ///< current worst-case response [s]
  };

  void add_app(plants::SynthesizedSchedApp params);
  void apply_event(const ScenarioEvent& event);
  /// Re-run the allocator against the current fleet and refresh every
  /// app's schedulability verdict; records the report and log row.
  void reallocate_now(const ScenarioEvent* trigger);
  void refresh_verdicts();
  void log_row(const std::string& event, const std::string& app, const std::string& detail);
  void simulate_tick();

  ScenarioSpec scenario_;
  std::uint64_t seed_ = 0;
  ReallocationPolicy policy_;
  std::uint64_t tick_ = 0;
  std::size_t next_event_ = 0;   ///< cursor into scenario_.events
  std::size_t slot_budget_ = 0;  ///< 0 = unlimited
  bool outage_ = false;          ///< drop_slot exhausted every slot
  bool ended_ = false;           ///< "end" row written
  std::vector<AppState> apps_;
  analysis::Allocation allocation_;
  bool feasible_ = false;
  std::uint64_t total_arrivals_ = 0;
  std::uint64_t total_misses_ = 0;
  double total_tt_seconds_ = 0.0;  ///< accumulated worst-case TT-mode dwell
  std::vector<EventLogRow> log_;
  std::vector<ReallocationReport> reports_;
};

/// Write the event log as the canonical CSV artifact (byte-identical
/// per (scenario, seed) — see the determinism contract above).
void write_event_log_csv(const std::string& path, const World& world);

}  // namespace cps::online
