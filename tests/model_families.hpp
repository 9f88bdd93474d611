// Random application sets in the four dwell/wait model families the slot
// analysis and the allocators see, shared by the analysis test suites.
#pragma once

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "analysis/dwell_wait_model.hpp"
#include "analysis/schedulability.hpp"
#include "experiments/fixtures.hpp"
#include "sim/dwell_wait.hpp"
#include "util/rng.hpp"

namespace cps::analysis {

/// A random instance in one of the four model families the allocator
/// sees: the allocator-ablation tents as drawn, re-expressed as the
/// conservative or simple monotonic model, or as the concave envelope of
/// a jittered sampling of the tent.
inline std::vector<AppSchedParams> family_instance(
    Rng& rng, int n, int family, const experiments::RandomAppRanges& ranges) {
  auto apps = experiments::random_sched_params(rng, n, ranges);
  for (auto& app : apps) {
    const auto* tent = dynamic_cast<const NonMonotonicModel*>(app.model.get());
    switch (family) {
      case 1:
        app.model =
            std::make_shared<ConservativeMonotonicModel>(tent->xi_m(), tent->zero_wait());
        break;
      case 2:
        app.model = std::make_shared<SimpleMonotonicModel>(tent->xi_tt(), tent->zero_wait());
        break;
      case 3: {
        constexpr std::size_t kSamples = 12;
        const double h = tent->zero_wait() / static_cast<double>(kSamples);
        std::vector<sim::DwellWaitPoint> points;
        for (std::size_t k = 0; k <= kSamples; ++k) {
          sim::DwellWaitPoint p;
          p.wait_steps = k;
          p.wait_s = static_cast<double>(k) * h;
          p.dwell_s = tent->dwell(p.wait_s) * rng.uniform(0.7, 1.0);
          p.dwell_steps = static_cast<std::size_t>(p.dwell_s / h);
          points.push_back(p);
        }
        app.model =
            std::make_shared<ConcaveEnvelopeModel>(sim::DwellWaitCurve(h, std::move(points)));
        break;
      }
      default:
        break;  // the tent as drawn
    }
  }
  return apps;
}

/// Allocator-ablation tents with inter-arrival times a small multiple of
/// the peak dwell, so interference utilizations reach towards 1.
inline experiments::RandomAppRanges near_saturation_ranges() {
  auto ranges = experiments::allocator_ablation_ranges();
  ranges.r_factor_lo = 1.2;
  ranges.r_factor_hi = 5.0;
  return ranges;
}

}  // namespace cps::analysis
