/// \file spans.hpp
/// \brief In-memory span recorder for the traced benchmark run.
///
/// Spans are recorded from the benchmark's own wrappers around calls into
/// the library (traversals, minimize hooks, Heuristic::run, run_batch), one
/// buffer per recording thread, and collected with drain() once the traced
/// work is over.  A span's self time is its duration minus the part of it
/// covered by its children on the same thread.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;    ///< 0 = root
  std::uint32_t instance = 0;  ///< minimization instance the span serves
  std::uint32_t lane = 0;      ///< recording thread
  std::string_view name;       ///< static string
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Recording switch and the cross-thread parent: a span opened on a thread
/// with no open span of its own (an engine worker) becomes a child of the
/// span set here.  Both are set only while no traced work runs.
void set_tracing(bool on);
[[nodiscard]] bool tracing();
void set_orphan_parent(std::uint32_t id);

/// RAII span on the calling thread; a no-op while tracing is off.
/// \p name must be a string with static storage duration.
class Scope {
 public:
  Scope(std::string_view name, std::uint32_t instance);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] std::uint32_t id() const noexcept { return id_; }

 private:
  std::uint32_t id_ = 0;
};

/// Every span recorded since the last drain, from all threads, in id
/// order.  Call only while no traced work runs.
[[nodiscard]] std::vector<Span> drain();

/// Per-name totals over a drained span set.
struct NameTotals {
  double seconds = 0.0;       ///< summed durations
  double self_seconds = 0.0;  ///< summed self times
  std::size_t count = 0;      ///< spans of this name
};

struct SpanSummary {
  std::map<std::string, NameTotals, std::less<>> by_name;
  /// Largest tiling error over every (parent, lane) pair with children:
  /// |children + self - parent| / parent, where self is the parent minus
  /// the union of its children.  Nonzero when children overlap each other
  /// or stick out of their parent.
  double max_tiling_error = 0.0;
  std::size_t spans = 0;
};

[[nodiscard]] SpanSummary summarize(const std::vector<Span>& spans);

/// Write spans as CSV (id,parent,instance,lane,name,start_ns,end_ns).
/// Returns false when the file cannot be written.
bool write_spans(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench
