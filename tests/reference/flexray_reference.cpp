#include "reference/flexray_reference.hpp"

#include <algorithm>
#include <cstddef>
#include <string>

#include "util/error.hpp"

namespace cps::flexray {
namespace {

const FrameSpec& spec_of(const DynamicSegmentArbiter& arbiter, std::size_t frame_id) {
  for (const auto& f : arbiter.frames())
    if (f.frame_id == frame_id) return f;
  throw InvalidArgument("dynamic frame id " + std::to_string(frame_id) + " not registered");
}

}  // namespace

std::vector<TransmissionResult> arbitrate_reference(const DynamicSegmentArbiter& arbiter,
                                                    std::vector<TransmissionRequest> requests) {
  const FlexRayConfig& config = arbiter.config();
  for (const auto& r : requests) {
    CPS_ENSURE(r.release_time >= 0.0, "arbitrate: release time must be non-negative");
    spec_of(arbiter, r.frame_id);  // validates registration
  }

  std::vector<TransmissionResult> results(requests.size());
  std::vector<bool> done(requests.size(), false);
  std::size_t remaining = requests.size();

  // Cycle-by-cycle simulation.  Within a cycle the dynamic segment starts
  // after the static segment; pending requests are served in frame-id
  // order while their payload fits into the minislots left.
  for (std::size_t cycle = 0; remaining > 0; ++cycle) {
    const double dyn_start = config.cycle_start(cycle) + config.static_segment_length();
    const std::size_t total_minislots = config.minislot_count();
    std::size_t counter = 0;  // consumed minislots in this cycle

    // Requests eligible this cycle, ordered by priority then release.
    std::vector<std::size_t> eligible;
    for (std::size_t i = 0; i < requests.size(); ++i)
      if (!done[i] && requests[i].release_time <= dyn_start) eligible.push_back(i);
    std::sort(eligible.begin(), eligible.end(), [&](std::size_t a, std::size_t b) {
      if (requests[a].frame_id != requests[b].frame_id)
        return requests[a].frame_id < requests[b].frame_id;
      return requests[a].release_time < requests[b].release_time;
    });

    for (std::size_t i : eligible) {
      const FrameSpec& spec = spec_of(arbiter, requests[i].frame_id);
      if (counter + spec.payload_minislots > total_minislots) {
        // Does not fit any more this cycle: one empty minislot elapses for
        // the passed-over identifier (if any room remains).
        if (counter < total_minislots) ++counter;
        continue;
      }
      counter += spec.payload_minislots;
      results[i].frame_id = requests[i].frame_id;
      results[i].release_time = requests[i].release_time;
      results[i].completion_time =
          dyn_start + static_cast<double>(counter) * config.minislot_length;
      results[i].segment = Segment::kDynamic;
      done[i] = true;
      --remaining;
    }
  }
  return results;
}

}  // namespace cps::flexray
