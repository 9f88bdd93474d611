// Static (time-triggered) segment: a TDMA schedule mapping slot indices to
// frame ids, and the timing of slot-bound transmissions.
//
// A message assigned to static slot s and released at time t is transmitted
// in the first occurrence of slot s whose start is >= t; the transmission
// completes at slot start + Psi.  Start and end are thus exactly known —
// the determinism the paper's TT mode exploits.
//
// FlexRay cycle multiplexing is supported: an assignment with repetition
// R > 1 owns the slot only in cycles k with k % R == base_cycle, trading
// latency for bandwidth (several applications can share one physical slot
// across cycles).
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "flexray/config.hpp"
#include "flexray/frame.hpp"

namespace cps::flexray {

/// One slot reservation: which frame, in which cycles.
struct SlotAssignment {
  std::size_t frame_id = 0;
  std::size_t repetition = 1;  ///< slot owned every `repetition` cycles
  std::size_t base_cycle = 0;  ///< first owning cycle modulo repetition
};

class StaticSchedule {
 public:
  explicit StaticSchedule(FlexRayConfig config);

  const FlexRayConfig& config() const { return config_; }

  /// Reserve slot `slot` for frame `frame_id` (every cycle).  A slot holds
  /// at most one assignment; a frame may own several slots.  Throws if the
  /// slot is taken by a different frame.
  void assign(std::size_t slot, std::size_t frame_id);

  /// Cycle-multiplexed reservation: own the slot in cycles where
  /// cycle % repetition == base_cycle.
  void assign_multiplexed(std::size_t slot, std::size_t frame_id, std::size_t repetition,
                          std::size_t base_cycle = 0);

  /// Release a slot (no-op if empty).
  void release(std::size_t slot);

  /// Frame currently owning `slot`, if any.
  std::optional<std::size_t> owner(std::size_t slot) const;

  /// Full assignment of `slot`, if any.
  std::optional<SlotAssignment> assignment(std::size_t slot) const;

  /// First slot owned by `frame_id`, if any.
  std::optional<std::size_t> slot_of(std::size_t frame_id) const;

  /// Completion time of a transmission of the frame owning `slot`,
  /// released at `release_time`: end of the first owned occurrence of the
  /// slot starting at or after the release.  An unassigned slot times as
  /// one owned in every cycle.
  double completion_time(std::size_t slot, double release_time) const;

  /// Worst-case static-segment delay for `slot`'s assignment: just missing
  /// an owned occurrence costs `repetition` cycles plus the slot length.
  double worst_case_delay(std::size_t slot) const;

  /// Worst case over a non-multiplexed slot (repetition 1) — kept for the
  /// common case-study geometry.
  double worst_case_delay() const;

  std::size_t slot_count() const { return config_.static_slot_count; }

 private:
  FlexRayConfig config_;
  std::vector<std::optional<SlotAssignment>> owners_;
};

}  // namespace cps::flexray
