// Combined FlexRay bus facade: a static TDMA schedule plus a dynamic
// segment arbiter behind one transmit API, with an event log.
//
// The co-simulation layer (core/) moves each application's control message
// through this bus's two segments: over its granted static slot while the
// application holds TT access, over the dynamic segment otherwise.  It
// drives static_schedule() and dynamic_segment() directly (the allocation-
// free arbitrate_into), so its messages do not enter the log; transmit_*
// serve one-off transmissions.
#pragma once

#include <cstddef>
#include <vector>

#include "flexray/config.hpp"
#include "flexray/dynamic_segment.hpp"
#include "flexray/frame.hpp"
#include "flexray/static_segment.hpp"

namespace cps::flexray {

class FlexRayBus {
 public:
  explicit FlexRayBus(FlexRayConfig config);

  const FlexRayConfig& config() const { return config_; }
  StaticSchedule& static_schedule() { return static_; }
  const StaticSchedule& static_schedule() const { return static_; }
  DynamicSegmentArbiter& dynamic_segment() { return dynamic_; }
  const DynamicSegmentArbiter& dynamic_segment() const { return dynamic_; }

  /// Register a frame for dynamic-segment use (all frames must register;
  /// static slots are assigned separately via static_schedule()).
  void register_frame(const FrameSpec& spec);

  /// One-shot transmission of `frame_id` released at `release_time` over
  /// the static slot currently owned by the frame.  Throws if the frame
  /// owns no slot.
  TransmissionResult transmit_static(std::size_t frame_id, double release_time);

  /// One-shot transmission over the dynamic segment assuming the given
  /// set of competing requests released in the same window (the frame's
  /// own request must be included).  Results in request order.
  std::vector<TransmissionResult> transmit_dynamic(
      const std::vector<TransmissionRequest>& requests);

  /// Worst-case delay for `frame_id` over the dynamic segment.
  double worst_case_dynamic_delay(std::size_t frame_id) const;

  /// Worst-case delay over a static slot (slot just missed).
  double worst_case_static_delay() const;

  /// All transmissions performed through this facade, in call order.
  const std::vector<TransmissionResult>& log() const { return log_; }
  void clear_log() { log_.clear(); }

 private:
  FlexRayConfig config_;
  StaticSchedule static_;
  DynamicSegmentArbiter dynamic_;
  std::vector<TransmissionResult> log_;
};

}  // namespace cps::flexray
