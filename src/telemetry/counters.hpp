/// \file counters.hpp
/// \brief Core counter registry: per-Manager event counters.
///
/// Design:
///  * Each Manager owns one CounterBank — a plain array of uint64, no
///    atomics, because a Manager is strictly single-threaded.  Bumping a
///    counter is one increment on a cache-resident line.
///  * `Manager::telemetry()` returns a CounterSnapshot — a value copy that
///    supports delta arithmetic, so callers measure "what did this
///    operation cost" as `after - before`.  Snapshots are deterministic:
///    they count structural events (inserts, memo misses), never time.
///  * The bank keeps one row per minimizer Phase and writes through a
///    pointer to the current row, so switching the phase work is
///    attributed to is a pointer store (telemetry/profile.hpp).  Totals
///    sum the rows.
///  * There is no process-wide aggregate: the batch engine records each
///    job's delta in its JobOutcome and sums them per batch
///    (engine::BatchMetrics::counters).
///
/// This header is dependency-free by design: bdd/manager.hpp includes it.
#pragma once

#include <array>
#include <cstdint>
#include <string>

namespace bddmin::telemetry {

/// Every counted event.  Cache hit/miss pairs must stay adjacent
/// (hit = base, miss = base + 1): the manager classifies an op tag once
/// and indexes the pair.
enum class Counter : unsigned {
  kUniqueInserts = 0,    ///< new node slots claimed by unique_insert
  kUniqueHits,           ///< unique_insert found an existing node
  kIteCacheHits,         ///< computed-cache, op class ITE
  kIteCacheMisses,
  kCofactorCacheHits,    ///< op class cofactor
  kCofactorCacheMisses,
  kQuantifyCacheHits,    ///< op classes exists / and_exists
  kQuantifyCacheMisses,
  kComposeCacheHits,     ///< op class compose
  kComposeCacheMisses,
  kUserCacheHits,        ///< client tags (>= Manager::kUserOpBase)
  kUserCacheMisses,
  kAndCacheHits,         ///< op class AND (and_kernel + leq/disjoint probes)
  kAndCacheMisses,
  kXorCacheHits,         ///< op class XOR (xor_kernel)
  kXorCacheMisses,
  kGcRuns,               ///< garbage_collect() passes
  kGcNodesReclaimed,     ///< nodes freed by garbage_collect()
  kReorderNodesFreed,    ///< nodes freed inline by swap_adjacent_levels()
  kSiftSwaps,            ///< adjacent-level swaps executed
  kGovernorSteps,        ///< recursion steps charged (memoization misses)
  kCacheGrowths,         ///< adaptive computed-cache doublings
  kCount,
};

inline constexpr std::size_t kNumCounters =
    static_cast<std::size_t>(Counter::kCount);

/// Stable short name ("unique_inserts", "ite_cache_hits", ...).
[[nodiscard]] const char* counter_name(Counter c) noexcept;

/// Computed-cache op classes, as exposed per counter pair.
enum class CacheOpClass : unsigned {
  kIte,
  kCofactor,
  kQuantify,
  kCompose,
  kUser,
  kAnd,
  kXor,
};

[[nodiscard]] constexpr Counter cache_hit_counter(CacheOpClass cls) noexcept {
  switch (cls) {
    case CacheOpClass::kIte: return Counter::kIteCacheHits;
    case CacheOpClass::kCofactor: return Counter::kCofactorCacheHits;
    case CacheOpClass::kQuantify: return Counter::kQuantifyCacheHits;
    case CacheOpClass::kCompose: return Counter::kComposeCacheHits;
    case CacheOpClass::kUser: return Counter::kUserCacheHits;
    case CacheOpClass::kAnd: return Counter::kAndCacheHits;
    case CacheOpClass::kXor: return Counter::kXorCacheHits;
  }
  return Counter::kUserCacheHits;
}

/// A value snapshot of one bank; supports delta arithmetic.
struct CounterSnapshot {
  std::array<std::uint64_t, kNumCounters> values{};

  [[nodiscard]] std::uint64_t value(Counter c) const noexcept {
    return values[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] std::uint64_t total_cache_hits() const noexcept {
    return value(Counter::kIteCacheHits) + value(Counter::kCofactorCacheHits) +
           value(Counter::kQuantifyCacheHits) +
           value(Counter::kComposeCacheHits) + value(Counter::kUserCacheHits) +
           value(Counter::kAndCacheHits) + value(Counter::kXorCacheHits);
  }
  [[nodiscard]] std::uint64_t total_cache_misses() const noexcept {
    return value(Counter::kIteCacheMisses) +
           value(Counter::kCofactorCacheMisses) +
           value(Counter::kQuantifyCacheMisses) +
           value(Counter::kComposeCacheMisses) +
           value(Counter::kUserCacheMisses) + value(Counter::kAndCacheMisses) +
           value(Counter::kXorCacheMisses);
  }

  CounterSnapshot& operator+=(const CounterSnapshot& o) noexcept {
    for (std::size_t i = 0; i < kNumCounters; ++i) values[i] += o.values[i];
    return *this;
  }
  /// Delta (this - o); callers guarantee monotonicity (same bank, later
  /// snapshot on the left).
  [[nodiscard]] CounterSnapshot operator-(const CounterSnapshot& o) const noexcept {
    CounterSnapshot d;
    for (std::size_t i = 0; i < kNumCounters; ++i) {
      d.values[i] = values[i] - o.values[i];
    }
    return d;
  }
  [[nodiscard]] bool operator==(const CounterSnapshot&) const noexcept = default;
};

/// The minimizer phases a manager's work is attributed to: the matching
/// criteria, result construction (the default) and the engine's cover
/// checks.
enum class Phase : unsigned { kMatching = 0, kCoverBuild = 1, kValidation = 2 };
inline constexpr std::size_t kNumPhases = 3;

/// Stable short name ("matching", "cover_build", "validation").
[[nodiscard]] const char* phase_name(Phase p) noexcept;

/// Per-Manager counter bank: one row per Phase, and a pointer to the row
/// of the current phase that every bump writes through.  Plain uint64 —
/// the owning Manager is single-threaded, so a bump is one increment, no
/// synchronization.
///
/// alignas(64): each batch-engine worker owns one pooled Manager and bumps
/// its bank on every hot-path event.  Managers for neighbouring workers can
/// be allocated close together; cache-line alignment guarantees two workers
/// never false-share a line through their banks.
class alignas(64) CounterBank {
 public:
  CounterBank() noexcept = default;
  // row_ points into rows_: a copy would write into the original.
  CounterBank(const CounterBank&) = delete;
  CounterBank& operator=(const CounterBank&) = delete;

  void bump(Counter c) noexcept {
    ++row_->values[static_cast<std::size_t>(c)];
  }
  void add(Counter c, std::uint64_t n) noexcept {
    row_->values[static_cast<std::size_t>(c)] += n;
  }
  /// Zero every row and return to Phase::kCoverBuild.
  void reset() noexcept {
    rows_ = {};
    (void)set_phase(Phase::kCoverBuild);
  }
  [[nodiscard]] Phase phase() const noexcept {
    return static_cast<Phase>(row_ - rows_.data());
  }
  /// Attribute later events to \p p; returns the previous phase.
  Phase set_phase(Phase p) noexcept {
    const Phase prev = phase();
    row_ = &rows_[static_cast<std::size_t>(p)];
    return prev;
  }
  /// The rows summed: every event, whatever its phase.
  [[nodiscard]] CounterSnapshot snapshot() const noexcept {
    CounterSnapshot s;
    for (const CounterSnapshot& row : rows_) s += row;
    return s;
  }
  /// The events attributed to phase \p p.
  [[nodiscard]] const CounterSnapshot& snapshot(Phase p) const noexcept {
    return rows_[static_cast<std::size_t>(p)];
  }
  /// Counter::kGovernorSteps in the current row, so the governor can
  /// charge steps without depending on this header's enum.  Moves with
  /// set_phase(): re-attach after each switch.
  [[nodiscard]] std::uint64_t* step_slot() noexcept {
    return &row_->values[static_cast<std::size_t>(Counter::kGovernorSteps)];
  }

 private:
  std::array<CounterSnapshot, kNumPhases> rows_{};
  CounterSnapshot* row_ = &rows_[static_cast<std::size_t>(Phase::kCoverBuild)];
};

/// Prometheus text exposition of a snapshot: one `bddmin_*_total` family
/// per structural counter, plus a labelled
/// `bddmin_cache_lookups_total{op=...,outcome=...}` family.
[[nodiscard]] std::string prometheus_text(const CounterSnapshot& s);

}  // namespace bddmin::telemetry
