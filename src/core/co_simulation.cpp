#include "core/co_simulation.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace cps::core {

double SlotTimeline::occupancy() const {
  if (owner.empty()) return 0.0;
  std::size_t held = 0;
  for (std::size_t o : owner)
    if (o != npos) ++held;
  return static_cast<double>(held) / static_cast<double>(owner.size());
}

std::size_t SlotTimeline::grant_count() const {
  std::size_t grants = 0;
  std::size_t prev = npos;
  for (std::size_t o : owner) {
    if (o != npos && o != prev) ++grants;
    prev = o;
  }
  return grants;
}

CoSimulator::CoSimulator(CoSimulationOptions options) : options_(std::move(options)) {
  CPS_ENSURE(options_.horizon > 0.0, "CoSimulator: horizon must be positive");
  CPS_ENSURE(options_.release_factor > 0.0 && options_.release_factor <= 1.0,
             "CoSimulator: release factor must be in (0, 1]");
  options_.bus_config.validate();
}

void CoSimulator::add_application(const ControlApplication& app, std::size_t slot,
                                  std::vector<double> disturbances) {
  std::sort(disturbances.begin(), disturbances.end());
  for (double t : disturbances)
    CPS_ENSURE(t >= 0.0 && t < options_.horizon, "disturbance time outside the horizon");
  if (!entries_.empty())
    CPS_ENSURE(std::fabs(app.sampling_period() - entries_.front().app->sampling_period()) < 1e-12,
               "co-simulation requires a common sampling period");
  entries_.push_back(Entry{&app, slot, std::move(disturbances)});
}

CoSimulationResult CoSimulator::run() const {
  CPS_ENSURE(!entries_.empty(), "CoSimulator: no applications registered");

  const double h = entries_.front().app->sampling_period();
  const std::size_t steps = static_cast<std::size_t>(std::ceil(options_.horizon / h));
  const std::size_t n_apps = entries_.size();

  std::size_t n_slots = 0;
  for (const auto& e : entries_) n_slots = std::max(n_slots, e.slot + 1);

  // FlexRay setup: slot s of the allocation maps to static slot s; each
  // app registers a dynamic frame whose id reflects its priority.
  flexray::FlexRayBus bus(options_.bus_config);
  std::vector<std::size_t> priority_order(n_apps);
  for (std::size_t i = 0; i < n_apps; ++i) priority_order[i] = i;
  std::sort(priority_order.begin(), priority_order.end(), [&](std::size_t a, std::size_t b) {
    return entries_[a].app->timing().deadline < entries_[b].app->timing().deadline;
  });
  std::vector<std::size_t> frame_of(n_apps);
  if (options_.simulate_bus) {
    CPS_ENSURE(n_slots <= options_.bus_config.static_slot_count,
               "allocation needs more TT slots than the FlexRay static segment provides");
    for (std::size_t rank = 0; rank < n_apps; ++rank) {
      const std::size_t i = priority_order[rank];
      frame_of[i] = rank + 1;  // smaller id = higher priority
      flexray::FrameSpec spec;
      spec.frame_id = frame_of[i];
      spec.name = entries_[i].app->name();
      spec.payload_minislots = 4;
      bus.register_frame(spec);
    }
  }

  // Mutable simulation state.
  std::vector<linalg::Vector> state;
  state.reserve(n_apps);
  for (const auto& e : entries_) {
    // Start in steady state (zero) unless a disturbance hits at t = 0.
    state.push_back(linalg::Vector::zero(e.app->disturbed_state().size()));
  }
  std::vector<double> norm(n_apps);  // threshold norm of state[i] this step
  std::vector<std::size_t> next_disturbance(n_apps, 0);
  std::vector<std::vector<sim::Sample>> samples(n_apps);
  for (auto& s : samples) s.reserve(steps + 1);
  // Slot owner: n_apps = free.
  std::vector<std::size_t> slot_owner(n_slots, n_apps);
  std::vector<double> max_tt_delay(n_apps, 0.0), max_et_delay(n_apps, 0.0);
  std::vector<SlotTimeline> timelines(n_slots);
  for (auto& tl : timelines) {
    tl.sampling_period = h;
    tl.owner.reserve(steps + 1);
  }
  // Per-run scratch of a step's ET transmissions: the requests, the app
  // each one belongs to, and the arbitration results.
  std::vector<flexray::TransmissionRequest> et_requests;
  std::vector<std::size_t> et_app;
  std::vector<flexray::TransmissionResult> et_results;
  flexray::DynamicSegmentArbiter::Workspace et_workspace;
  et_requests.reserve(n_apps);
  et_app.reserve(n_apps);
  et_results.reserve(n_apps);
  et_workspace.pending.reserve(n_apps);

  for (std::size_t k = 0; k <= steps; ++k) {
    const double t = static_cast<double>(k) * h;

    // 1. Disturbances due by t displace the state.
    for (std::size_t i = 0; i < n_apps; ++i) {
      auto& e = entries_[i];
      while (next_disturbance[i] < e.disturbances.size() &&
             e.disturbances[next_disturbance[i]] <= t) {
        state[i] = e.app->disturbed_state();
        ++next_disturbance[i];
      }
      norm[i] = e.app->switched_system().threshold_norm(state[i]);
    }

    // 2. Owners back in steady state release their slot.
    for (std::size_t s = 0; s < n_slots; ++s) {
      const std::size_t owner = slot_owner[s];
      if (owner != n_apps &&
          norm[owner] <= options_.release_factor * entries_[owner].app->timing().threshold)
        slot_owner[s] = n_apps;
    }

    // 3. Grant each free slot to its highest-priority transient requester.
    for (std::size_t s = 0; s < n_slots; ++s) {
      if (slot_owner[s] != n_apps) continue;  // non-preemptive
      for (std::size_t rank = 0; rank < n_apps; ++rank) {
        const std::size_t i = priority_order[rank];
        if (entries_[i].slot != s) continue;
        if (norm[i] > entries_[i].app->timing().threshold) {
          slot_owner[s] = i;
          break;
        }
      }
    }

    // 4. Record, transmit, evolve.
    for (std::size_t s = 0; s < n_slots; ++s)
      timelines[s].owner.push_back(slot_owner[s] == n_apps ? SlotTimeline::npos
                                                           : slot_owner[s]);
    et_requests.clear();
    et_app.clear();
    for (std::size_t i = 0; i < n_apps; ++i) {
      const auto& e = entries_[i];
      const bool holds_slot = slot_owner[e.slot] == i;
      const sim::Mode mode = holds_slot ? sim::Mode::kTimeTriggered : sim::Mode::kEventTriggered;
      samples[i].push_back(sim::Sample{state[i], norm[i], mode});

      if (options_.simulate_bus && k < steps) {
        if (holds_slot) {
          // The holder owns its static slot in every cycle: the message
          // completes at the end of the slot's first occurrence at or
          // after t.
          const double completion = bus.static_schedule().completion_time(e.slot, t);
          max_tt_delay[i] = std::max(max_tt_delay[i], completion - t);
        } else {
          et_requests.push_back(flexray::TransmissionRequest{frame_of[i], t});
          et_app.push_back(i);
        }
      }
      if (k < steps) state[i] = e.app->switched_system().step(state[i], mode);
    }
    if (!et_requests.empty()) {
      bus.dynamic_segment().arbitrate_into(et_requests, et_results, et_workspace);
      for (std::size_t j = 0; j < et_results.size(); ++j)
        max_et_delay[et_app[j]] = std::max(max_et_delay[et_app[j]], et_results[j].delay());
    }
  }

  // Post-process: response times per disturbance from the norm traces.
  CoSimulationResult out;
  out.slots = std::move(timelines);
  out.apps.reserve(n_apps);
  for (std::size_t i = 0; i < n_apps; ++i) {
    AppCoSimResult r{.name = entries_[i].app->name(),
                     .slot = entries_[i].slot,
                     .trajectory = sim::Trajectory(h, std::move(samples[i])),
                     .disturbance_times = entries_[i].disturbances,
                     .response_times = {},
                     .all_deadlines_met = true,
                     .worst_response = 0.0,
                     .steady_state_excursions = 0,
                     .max_tt_delay = max_tt_delay[i],
                     .max_et_delay = max_et_delay[i]};

    const double threshold = entries_[i].app->timing().threshold;
    const double deadline = entries_[i].app->timing().deadline;
    for (std::size_t d = 0; d < r.disturbance_times.size(); ++d) {
      const double t0 = r.disturbance_times[d];
      const double t_end = d + 1 < r.disturbance_times.size() ? r.disturbance_times[d + 1]
                                                              : options_.horizon;
      // First return to the steady-state set within [t0, t_end); later
      // re-crossings are counted as excursions.
      const std::size_t k0 = static_cast<std::size_t>(std::ceil(t0 / h));
      const std::size_t k1 =
          std::min(r.trajectory.length(), static_cast<std::size_t>(std::ceil(t_end / h)));
      double settle = std::numeric_limits<double>::infinity();
      bool entered_transient = false;
      bool settled = false;
      for (std::size_t k = k0; k < k1; ++k) {
        const bool above = r.trajectory.at(k).norm > threshold;
        if (!settled) {
          if (above) {
            entered_transient = true;
          } else if (entered_transient || k > k0) {
            settle = static_cast<double>(k) * h - t0;
            settled = true;
          } else {
            // Already in steady state at the disturbance instant.
            settle = 0.0;
            settled = true;
          }
        } else if (above && r.trajectory.at(k - 1).norm <= threshold) {
          ++r.steady_state_excursions;
        }
      }
      r.response_times.push_back(settle);
      r.worst_response = std::max(r.worst_response, settle);
      if (!(settle <= deadline)) r.all_deadlines_met = false;
    }
    if (!r.all_deadlines_met) out.all_deadlines_met = false;
    out.apps.push_back(std::move(r));
  }
  return out;
}

}  // namespace cps::core
