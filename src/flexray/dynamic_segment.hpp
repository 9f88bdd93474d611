// Dynamic (event-triggered) segment: minislot-based arbitration.
//
// FlexRay's dynamic segment maintains a minislot counter.  Frames are
// considered in increasing frame-id order; a pending frame whose payload
// still fits in the remaining dynamic segment transmits and consumes
// payload_minislots minislots, otherwise it (and in this model every frame
// with a larger id) waits for the next cycle while the counter advances one
// empty minislot per considered id.  This captures the two properties the
// paper relies on:
//   * transmission timing depends on preceding messages (jitter), and
//   * a bounded worst-case delay exists (Pop et al., RTS 2008).
//
// A request is served only from a dynamic segment whose start is >= its
// release, so every cycle before the first release is idle and the
// arbiter never visits it: it sorts the requests once by priority and
// starts at the first cycle whose dynamic segment admits the earliest
// pending one, jumping again over any idle gap.  The cost is
// O(R log R + R * C) for R requests served over C non-idle cycles,
// independent of how far from t = 0 the releases lie.
#pragma once

#include <cstddef>
#include <vector>

#include "flexray/config.hpp"
#include "flexray/frame.hpp"

namespace cps::flexray {

class DynamicSegmentArbiter {
 public:
  explicit DynamicSegmentArbiter(FlexRayConfig config);

  /// Register a frame type.  Frame ids must be unique.
  void register_frame(const FrameSpec& spec);

  const FlexRayConfig& config() const { return config_; }
  const std::vector<FrameSpec>& frames() const { return frames_; }

  /// Reusable working storage of arbitrate_into.  Once it has grown to the
  /// largest request set it sees, arbitration allocates nothing.
  struct Workspace {
    struct Pending {
      std::size_t request = 0;            ///< index into the request set
      std::size_t payload_minislots = 0;  ///< of the request's frame
    };
    std::vector<Pending> pending;  ///< unserved requests in service order
  };

  /// Simulate the arbitration of `requests` (any order; each release time
  /// must be finite and >= 0).  Returns one result per request, in request
  /// order.  Requests released mid-cycle participate from the next dynamic
  /// segment whose start is >= their release time; within a cycle they are
  /// served by frame id, then release time, then request order.
  std::vector<TransmissionResult> arbitrate(
      const std::vector<TransmissionRequest>& requests) const;

  /// arbitrate() into caller-owned `results` (resized to the request
  /// count) using `workspace` for its scratch: the allocation-free form.
  void arbitrate_into(const std::vector<TransmissionRequest>& requests,
                      std::vector<TransmissionResult>& results, Workspace& workspace) const;

  /// Analytic worst-case delay bound for `frame_id`: released just after
  /// its arbitration opportunity passed, then blocked in every later cycle
  /// by all higher-priority (smaller-id) frames transmitting back-to-back.
  /// Conservative but finite whenever the higher-priority load fits in one
  /// dynamic segment.
  double worst_case_delay(std::size_t frame_id) const;

 private:
  const FrameSpec& spec_of(std::size_t frame_id) const;

  /// First cycle whose dynamic segment admits a request released at
  /// `release` (release <= cycle_start(c) + static_segment_length()).
  std::size_t first_admitting_cycle(double release) const;

  FlexRayConfig config_;
  std::vector<FrameSpec> frames_;  // kept sorted by frame_id
};

}  // namespace cps::flexray
