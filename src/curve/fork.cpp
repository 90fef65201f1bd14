#include "curve/fork.h"

namespace merlin {

void CandidateFork::fold(ObsSink& lane, ObsSink& into) {
  into.counters.merge(lane.counters);
  // Through maximize, so the sink's per-net peak curve width sees it too.
  for (std::size_t g = 0; g < kGaugeCount; ++g)
    into.maximize(static_cast<Gauge>(g), lane.gauges.v[g]);
  discard(lane);
}

void CandidateFork::discard(ObsSink& lane) noexcept {
  lane.counters = Counters{};
  lane.gauges = Gauges{};
}

}  // namespace merlin
