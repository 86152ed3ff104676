#include "telemetry/profile.hpp"

namespace bddmin::telemetry {

ProfileCollector::ProfileCollector(const Manager& mgr,
                                   PhaseProfile* out) noexcept
    : mgr_(mgr), out_(out) {
  for (std::size_t i = 0; i < kNumPhases; ++i) {
    start_[i] = mgr.telemetry(static_cast<Phase>(i));
  }
}

ProfileCollector::~ProfileCollector() {
  for (std::size_t i = 0; i < kNumPhases; ++i) {
    const CounterSnapshot delta =
        mgr_.telemetry(static_cast<Phase>(i)) - start_[i];
    PhaseData& d = out_->phases[i];
    d.steps += delta.value(Counter::kGovernorSteps);
    d.cache_hits += delta.total_cache_hits();
    d.cache_misses += delta.total_cache_misses();
    d.unique_inserts += delta.value(Counter::kUniqueInserts);
  }
}

}  // namespace bddmin::telemetry
