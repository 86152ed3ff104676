#include "analysis/failpoint.hpp"

#include <array>
#include <charconv>
#include <stdexcept>
#include <string>
#include <utility>

#include "analysis/check.hpp"
#include "harness/env.hpp"

namespace bddmin::analysis {
namespace {

/// The compile-time failpoint catalog.  Every BDDMIN_FAILPOINT site in
/// the tree must appear here exactly once; lint rule R7 parses the block
/// between the begin/end markers and cross-checks the sites.  The
/// default value is the hit payload (the exit status for
/// journal_commit_abort).
// bddmin-failpoint-catalog-begin
constexpr FailPointRegistry::CatalogEntry kCatalog[] = {
    {"unique_insert_oom",
     "throw OutOfMemory in Manager::unique_insert before a new table slot "
     "is claimed (suppressed inside reorder critical sections)",
     0},
    {"bucket_grow_oom",
     "throw OutOfMemory in Manager::grow_buckets before the bucket array "
     "is reallocated (the table stays consistent, just denser)",
     0},
    {"cache_grow_oom",
     "simulate allocation failure in Manager::grow_cache: adaptive cache "
     "growth is quietly disabled, exactly like a real bad_alloc",
     0},
    {"gc_oom",
     "throw OutOfMemory at the head of Manager::garbage_collect, before "
     "any mutation",
     0},
    {"reorder_swap_oom",
     "throw OutOfMemory at the head of Manager::swap_adjacent_levels, "
     "before any mutation (an abort between swaps)",
     0},
    {"job_decode_corrupt",
     "reject the job payload as corrupted in engine::decode_job "
     "(simulates a snapshot that fails integrity checks)",
     0},
    {"journal_commit_abort",
     "terminate the process (value = exit status) immediately before a "
     "journal completion record is written — the crash the resume path "
     "must heal",
     42},
};
// bddmin-failpoint-catalog-end

[[noreturn]] void bad_spec(std::string_view spec, const std::string& why) {
  throw std::invalid_argument("bad failpoint spec '" + std::string(spec) +
                              "': " + why);
}

}  // namespace

FailPointHit FailPoint::poll() noexcept {
  std::uint64_t left = countdown_.load(std::memory_order_relaxed);
  // The CAS hands each evaluation its own countdown value, so exactly one
  // of any number of concurrent polls takes 1 -> 0 and fires.
  while (left != 0) {
    if (countdown_.compare_exchange_weak(left, left - 1,
                                         std::memory_order_relaxed)) {
      return left == 1 ? FailPointHit{true, value_} : FailPointHit{};
    }
  }
  return {};
}

FailPointRegistry& FailPointRegistry::instance() {
  static FailPointRegistry registry;  // stateless; trivially destructible
  return registry;
}

std::span<const FailPointRegistry::CatalogEntry> FailPointRegistry::catalog() {
  return kCatalog;
}

std::span<FailPoint> FailPointRegistry::points() noexcept {
  // Constant-initialized static storage: the first poll allocates
  // nothing, so arming state never perturbs the heap of the code under
  // test, and there is nothing to destroy at exit.
  static constinit std::array<FailPoint, std::size(kCatalog)> points =
      []<std::size_t... I>(std::index_sequence<I...>) {
        return std::array<FailPoint, sizeof...(I)>{
            FailPoint(kCatalog[I].default_value)...};
      }(std::make_index_sequence<std::size(kCatalog)>());
  return points;
}

FailPoint* FailPointRegistry::find(std::string_view name) noexcept {
  for (std::size_t i = 0; i < std::size(kCatalog); ++i) {
    if (name == kCatalog[i].name) return &points()[i];
  }
  return nullptr;
}

FailPoint& FailPointRegistry::site(std::string_view name) {
  FailPoint* fp = find(name);
  BDDMIN_CHECK(fp != nullptr && "BDDMIN_FAILPOINT name not in catalog");
  return *fp;
}

void FailPointRegistry::arm(std::string_view name, std::uint64_t nth) {
  FailPoint* fp = find(name);
  if (fp == nullptr) {
    throw std::invalid_argument("unknown failpoint '" + std::string(name) +
                                "'");
  }
  fp->countdown_.store(nth, std::memory_order_relaxed);
}

void FailPointRegistry::disarm_all() noexcept {
  for (FailPoint& fp : points()) {
    fp.countdown_.store(0, std::memory_order_relaxed);
  }
}

FailPointHit FailPointRegistry::evaluate(std::string_view name) {
  FailPoint* fp = find(name);
  if (fp == nullptr) {
    throw std::invalid_argument("unknown failpoint '" + std::string(name) +
                                "'");
  }
  return fp->poll();
}

void FailPointRegistry::arm_from_spec(std::string_view spec) {
  const std::size_t colon = spec.find(':');
  if (colon == std::string_view::npos || colon == 0) {
    bad_spec(spec, "expected name:off, name:once or name:nth:N");
  }
  const std::string_view mode = spec.substr(colon + 1);
  std::uint64_t nth = 0;
  if (mode == "once") {
    nth = 1;
  } else if (mode.starts_with("nth:")) {
    const std::string_view text = mode.substr(4);
    const auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), nth);
    if (ec != std::errc{} || ptr != text.data() + text.size() || nth == 0) {
      bad_spec(spec, "N must be a positive integer, got '" +
                         std::string(text) + "'");
    }
  } else if (mode != "off") {
    bad_spec(spec, "unknown mode '" + std::string(mode) +
                       "' (off|once|nth:N)");
  }
  arm(spec.substr(0, colon), nth);  // throws on unknown name
}

void FailPointRegistry::arm_from_env() {
  const std::optional<std::string> raw =
      harness::env_string("BDDMIN_FAILPOINTS");
  if (!raw) return;
  const std::string& text = *raw;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t comma = text.find(',', start);
    if (comma == std::string::npos) comma = text.size();
    const std::string_view spec =
        std::string_view(text).substr(start, comma - start);
    if (!spec.empty()) {
      try {
        arm_from_spec(spec);
      } catch (const std::invalid_argument& e) {
        throw harness::EnvError(std::string("BDDMIN_FAILPOINTS: ") + e.what());
      }
    }
    start = comma + 1;
  }
}

}  // namespace bddmin::analysis
