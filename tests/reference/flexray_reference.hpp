// Frozen FlexRay dynamic-segment arbitration from before the linear-time
// arbiter — the oracle DynamicSegmentArbiter::arbitrate is proven
// bit-identical against (tests/flexray_test.cpp) and timed against
// (bench/fig5_responses.cpp).  It replays the bus cycle by cycle from
// cycle 0 and re-sorts the eligible requests every cycle.  Test-only: it
// lives in the cps_reference library, never in the shipped cps library,
// and uses only the arbiter's public API.
#pragma once

#include <vector>

#include "flexray/dynamic_segment.hpp"
#include "flexray/frame.hpp"

namespace cps::flexray {

/// Frozen copy of DynamicSegmentArbiter::arbitrate.
std::vector<TransmissionResult> arbitrate_reference(const DynamicSegmentArbiter& arbiter,
                                                    std::vector<TransmissionRequest> requests);

}  // namespace cps::flexray
