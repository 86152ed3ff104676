#include "telemetry/counters.hpp"

#include <sstream>

namespace bddmin::telemetry {

const char* counter_name(Counter c) noexcept {
  switch (c) {
    case Counter::kUniqueInserts: return "unique_inserts";
    case Counter::kUniqueHits: return "unique_hits";
    case Counter::kIteCacheHits: return "ite_cache_hits";
    case Counter::kIteCacheMisses: return "ite_cache_misses";
    case Counter::kCofactorCacheHits: return "cofactor_cache_hits";
    case Counter::kCofactorCacheMisses: return "cofactor_cache_misses";
    case Counter::kQuantifyCacheHits: return "quantify_cache_hits";
    case Counter::kQuantifyCacheMisses: return "quantify_cache_misses";
    case Counter::kComposeCacheHits: return "compose_cache_hits";
    case Counter::kComposeCacheMisses: return "compose_cache_misses";
    case Counter::kUserCacheHits: return "user_cache_hits";
    case Counter::kUserCacheMisses: return "user_cache_misses";
    case Counter::kAndCacheHits: return "and_cache_hits";
    case Counter::kAndCacheMisses: return "and_cache_misses";
    case Counter::kXorCacheHits: return "xor_cache_hits";
    case Counter::kXorCacheMisses: return "xor_cache_misses";
    case Counter::kGcRuns: return "gc_runs";
    case Counter::kGcNodesReclaimed: return "gc_nodes_reclaimed";
    case Counter::kReorderNodesFreed: return "reorder_nodes_freed";
    case Counter::kSiftSwaps: return "sift_swaps";
    case Counter::kGovernorSteps: return "governor_steps";
    case Counter::kCacheGrowths: return "cache_growths";
    case Counter::kCount: break;
  }
  return "?";
}

const char* phase_name(Phase p) noexcept {
  switch (p) {
    case Phase::kMatching: return "matching";
    case Phase::kCoverBuild: return "cover_build";
    case Phase::kValidation: return "validation";
  }
  return "?";
}

std::string prometheus_text(const CounterSnapshot& s) {
  std::ostringstream os;
  const auto plain = [&](Counter c, const char* name, const char* help) {
    os << "# HELP " << name << ' ' << help << "\n# TYPE " << name
       << " counter\n"
       << name << ' ' << s.value(c) << '\n';
  };
  plain(Counter::kUniqueInserts, "bddmin_unique_inserts_total",
        "New unique-table slots claimed");
  plain(Counter::kUniqueHits, "bddmin_unique_hits_total",
        "Unique-table lookups resolved to an existing node");
  os << "# HELP bddmin_cache_lookups_total Computed-cache lookups by op "
        "class and outcome\n"
        "# TYPE bddmin_cache_lookups_total counter\n";
  const auto cache = [&](const char* op, Counter hit) {
    const auto miss =
        static_cast<Counter>(static_cast<unsigned>(hit) + 1);
    os << "bddmin_cache_lookups_total{op=\"" << op << "\",outcome=\"hit\"} "
       << s.value(hit) << '\n';
    os << "bddmin_cache_lookups_total{op=\"" << op << "\",outcome=\"miss\"} "
       << s.value(miss) << '\n';
  };
  cache("ite", Counter::kIteCacheHits);
  cache("and", Counter::kAndCacheHits);
  cache("xor", Counter::kXorCacheHits);
  cache("cofactor", Counter::kCofactorCacheHits);
  cache("quantify", Counter::kQuantifyCacheHits);
  cache("compose", Counter::kComposeCacheHits);
  cache("user", Counter::kUserCacheHits);
  plain(Counter::kGcRuns, "bddmin_gc_runs_total", "Garbage-collection passes");
  plain(Counter::kGcNodesReclaimed, "bddmin_gc_nodes_reclaimed_total",
        "Nodes reclaimed by garbage collection");
  plain(Counter::kReorderNodesFreed, "bddmin_reorder_nodes_freed_total",
        "Nodes freed inline by adjacent-level swaps");
  plain(Counter::kSiftSwaps, "bddmin_sift_swaps_total",
        "Adjacent-level swaps executed");
  plain(Counter::kGovernorSteps, "bddmin_governor_steps_total",
        "Recursion steps charged (memoization misses)");
  plain(Counter::kCacheGrowths, "bddmin_cache_growths_total",
        "Adaptive computed-cache doublings");
  return os.str();
}

}  // namespace bddmin::telemetry
