#include "flexray/dynamic_segment.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace cps::flexray {

DynamicSegmentArbiter::DynamicSegmentArbiter(FlexRayConfig config) : config_(config) {
  config_.validate();
}

void DynamicSegmentArbiter::register_frame(const FrameSpec& spec) {
  CPS_ENSURE(spec.payload_minislots >= 1, "dynamic frame needs at least one minislot");
  CPS_ENSURE(spec.payload_minislots <= config_.minislot_count(),
             "dynamic frame payload exceeds the dynamic segment");
  for (const auto& f : frames_)
    if (f.frame_id == spec.frame_id)
      throw InvalidArgument("dynamic frame id " + std::to_string(spec.frame_id) +
                            " already registered");
  frames_.push_back(spec);
  std::sort(frames_.begin(), frames_.end(),
            [](const FrameSpec& a, const FrameSpec& b) { return a.frame_id < b.frame_id; });
}

const FrameSpec& DynamicSegmentArbiter::spec_of(std::size_t frame_id) const {
  const auto it = std::lower_bound(
      frames_.begin(), frames_.end(), frame_id,
      [](const FrameSpec& f, std::size_t id) { return f.frame_id < id; });
  if (it == frames_.end() || it->frame_id != frame_id)
    throw InvalidArgument("dynamic frame id " + std::to_string(frame_id) + " not registered");
  return *it;
}

std::size_t DynamicSegmentArbiter::first_admitting_cycle(double release) const {
  const double static_len = config_.static_segment_length();
  // floor() estimates the cycle; the two loops correct its rounding with
  // the exact admission test the cycle loop applies, so no admitting
  // cycle is skipped and no idle one is visited.
  const double estimate =
      release > static_len ? std::floor((release - static_len) / config_.cycle_length) : 0.0;
  CPS_ENSURE(estimate < 0x1p53, "arbitrate: release time beyond the cycle counter's range");
  std::size_t cycle = static_cast<std::size_t>(estimate);
  while (cycle > 0 && release <= config_.cycle_start(cycle - 1) + static_len) --cycle;
  while (release > config_.cycle_start(cycle) + static_len) ++cycle;
  return cycle;
}

std::vector<TransmissionResult> DynamicSegmentArbiter::arbitrate(
    const std::vector<TransmissionRequest>& requests) const {
  std::vector<TransmissionResult> results;
  Workspace workspace;
  arbitrate_into(requests, results, workspace);
  return results;
}

void DynamicSegmentArbiter::arbitrate_into(const std::vector<TransmissionRequest>& requests,
                                           std::vector<TransmissionResult>& results,
                                           Workspace& workspace) const {
  auto& pending = workspace.pending;
  pending.clear();
  double earliest = std::numeric_limits<double>::infinity();  // pending release
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const double release = requests[i].release_time;
    CPS_ENSURE(std::isfinite(release) && release >= 0.0,
               "arbitrate: release time must be finite and non-negative");
    pending.push_back({i, spec_of(requests[i].frame_id).payload_minislots});
    earliest = std::min(earliest, release);
  }
  results.assign(requests.size(), TransmissionResult{});

  // Service order: frame id (priority), then release, then request order.
  // Every cycle serves its released requests in this one order, so it is
  // sorted once, not per cycle.
  std::sort(pending.begin(), pending.end(),
            [&](const Workspace::Pending& a, const Workspace::Pending& b) {
              const TransmissionRequest& ra = requests[a.request];
              const TransmissionRequest& rb = requests[b.request];
              if (ra.frame_id != rb.frame_id) return ra.frame_id < rb.frame_id;
              if (ra.release_time != rb.release_time) return ra.release_time < rb.release_time;
              return a.request < b.request;
            });

  // Cycle-by-cycle simulation, skipping every cycle that admits no
  // pending request.  Within a cycle the dynamic segment starts after the
  // static segment; eligible requests are served in order while their
  // payload fits into the minislots left.  Served requests leave `pending`.
  const std::size_t total_minislots = config_.minislot_count();
  for (std::size_t cycle = 0; !pending.empty(); ++cycle) {
    cycle = std::max(cycle, first_admitting_cycle(earliest));
    const double dyn_start = config_.cycle_start(cycle) + config_.static_segment_length();
    std::size_t counter = 0;  // consumed minislots in this cycle
    std::size_t kept = 0;
    earliest = std::numeric_limits<double>::infinity();
    for (const Workspace::Pending p : pending) {
      const TransmissionRequest& r = requests[p.request];
      if (r.release_time > dyn_start) {
        earliest = std::min(earliest, r.release_time);
        pending[kept++] = p;
        continue;
      }
      if (counter + p.payload_minislots > total_minislots) {
        // Does not fit any more this cycle: one empty minislot elapses for
        // the passed-over identifier (if any room remains).
        if (counter < total_minislots) ++counter;
        earliest = std::min(earliest, r.release_time);
        pending[kept++] = p;
        continue;
      }
      counter += p.payload_minislots;
      const double completion =
          dyn_start + static_cast<double>(counter) * config_.minislot_length;
      results[p.request] =
          TransmissionResult{r.frame_id, r.release_time, completion, Segment::kDynamic};
    }
    pending.resize(kept);
  }
}

double DynamicSegmentArbiter::worst_case_delay(std::size_t frame_id) const {
  const FrameSpec& self = spec_of(frame_id);

  // Higher-priority (smaller id) payload per cycle.
  std::size_t hp_minislots = 0;
  for (const auto& f : frames_)
    if (f.frame_id < frame_id) hp_minislots += f.payload_minislots;

  const std::size_t capacity = config_.minislot_count();
  if (hp_minislots + self.payload_minislots > capacity)
    throw InfeasibleError(
        "dynamic segment overload: frame " + std::to_string(frame_id) +
        " plus higher-priority load does not fit in one dynamic segment");

  // Released just after its opportunity: wait for the next cycle's dynamic
  // segment (at most one full cycle), then behind all higher-priority
  // payloads, then transmit.
  const double wait_for_segment = config_.cycle_length;
  const double blocking =
      static_cast<double>(hp_minislots + self.payload_minislots) * config_.minislot_length;
  return wait_for_segment + blocking;
}

}  // namespace cps::flexray
