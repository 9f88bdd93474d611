#include "flexray/bus.hpp"

#include "util/error.hpp"

namespace cps::flexray {

FlexRayBus::FlexRayBus(FlexRayConfig config)
    : config_(config), static_(config), dynamic_(config) {
  config_.validate();
}

void FlexRayBus::register_frame(const FrameSpec& spec) { dynamic_.register_frame(spec); }

TransmissionResult FlexRayBus::transmit_static(std::size_t frame_id, double release_time) {
  const auto slot = static_.slot_of(frame_id);
  if (!slot.has_value())
    throw InvalidArgument("transmit_static: frame " + std::to_string(frame_id) +
                          " owns no static slot");
  TransmissionResult result;
  result.frame_id = frame_id;
  result.release_time = release_time;
  result.completion_time = static_.completion_time(*slot, release_time);
  result.segment = Segment::kStatic;
  log_.push_back(result);
  return result;
}

std::vector<TransmissionResult> FlexRayBus::transmit_dynamic(
    const std::vector<TransmissionRequest>& requests) {
  auto results = dynamic_.arbitrate(requests);
  for (const auto& r : results) log_.push_back(r);
  return results;
}

double FlexRayBus::worst_case_dynamic_delay(std::size_t frame_id) const {
  return dynamic_.worst_case_delay(frame_id);
}

double FlexRayBus::worst_case_static_delay() const { return static_.worst_case_delay(); }

}  // namespace cps::flexray
