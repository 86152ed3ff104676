#include "analysis/failpoint.hpp"

#include <charconv>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "analysis/check.hpp"
#include "harness/env.hpp"

namespace bddmin::analysis {
namespace {

/// The compile-time failpoint catalog.  Every BDDMIN_FAILPOINT site in
/// the tree must appear here exactly once; lint rule R7 parses the block
/// between the begin/end markers and cross-checks the sites.  The
/// default value is the hit payload when the arming spec does not
/// override it (the exit status for journal_commit_abort).
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

/// splitmix64: tiny, seedable, statistically fine for fire/no-fire.
std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

[[noreturn]] void bad_spec(std::string_view spec, const std::string& why) {
  throw std::invalid_argument("bad failpoint spec '" + std::string(spec) +
                              "': " + why);
}

std::uint64_t parse_u64_field(std::string_view spec, std::string_view text,
                              const char* what) {
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    bad_spec(spec, std::string(what) + " must be a non-negative integer, got '" +
                       std::string(text) + "'");
  }
  return value;
}

double parse_probability(std::string_view spec, std::string_view text) {
  const std::string copy(text);
  char* end = nullptr;
  const double p = std::strtod(copy.c_str(), &end);
  if (end != copy.c_str() + copy.size() || !(p >= 0.0) || p > 1.0) {
    bad_spec(spec, "probability must be in [0, 1], got '" + copy + "'");
  }
  return p;
}

}  // namespace

FailPointHit FailPoint::poll() noexcept {
  if (!armed_.load(std::memory_order_relaxed)) return {};
  const std::lock_guard<std::mutex> lock(mu_);
  switch (cfg_.mode) {
    case FailPointMode::kOff:
      return {};  // raced with a disarm; benign
    case FailPointMode::kOnce:
      cfg_.mode = FailPointMode::kOff;
      armed_.store(false, std::memory_order_relaxed);
      return fire_locked();
    case FailPointMode::kNth:
      if (countdown_ > 1) {
        --countdown_;
        return {};
      }
      cfg_.mode = FailPointMode::kOff;
      armed_.store(false, std::memory_order_relaxed);
      return fire_locked();
    case FailPointMode::kRandom: {
      const std::uint64_t draw = splitmix64(rng_);
      // 53 uniform mantissa bits -> [0, 1).
      const double u = static_cast<double>(draw >> 11) * 0x1.0p-53;
      if (u < cfg_.probability) return fire_locked();
      return {};
    }
  }
  return {};
}

FailPointHit FailPoint::fire_locked() noexcept {
  fires_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t value =
      cfg_.value != 0 ? cfg_.value : default_value_;
  return FailPointHit{true, value};
}

void FailPoint::configure(const FailPointConfig& cfg) {
  const std::lock_guard<std::mutex> lock(mu_);
  cfg_ = cfg;
  countdown_ = cfg.nth == 0 ? 1 : cfg.nth;
  rng_ = cfg.seed;
  armed_.store(cfg.mode != FailPointMode::kOff, std::memory_order_relaxed);
}

FailPointRegistry& FailPointRegistry::instance() {
  static FailPointRegistry* registry = new FailPointRegistry();  // leaked
  return *registry;
}

std::span<const FailPointRegistry::CatalogEntry> FailPointRegistry::catalog() {
  return kCatalog;
}

FailPointRegistry::FailPointRegistry() {
  points_.reserve(std::size(kCatalog));
  for (const CatalogEntry& entry : kCatalog) {
    points_.push_back(
        std::unique_ptr<FailPoint>(new FailPoint(entry.default_value)));
  }
}

FailPoint* FailPointRegistry::find(std::string_view name) noexcept {
  for (std::size_t i = 0; i < std::size(kCatalog); ++i) {
    if (name == kCatalog[i].name) return points_[i].get();
  }
  return nullptr;
}

FailPoint& FailPointRegistry::site(std::string_view name) {
  FailPoint* fp = find(name);
  BDDMIN_CHECK(fp != nullptr && "BDDMIN_FAILPOINT name not in catalog");
  return *fp;
}

void FailPointRegistry::arm(std::string_view name,
                            const FailPointConfig& cfg) {
  FailPoint* fp = find(name);
  if (fp == nullptr) {
    throw std::invalid_argument("unknown failpoint '" + std::string(name) +
                                "'");
  }
  fp->configure(cfg);
}

void FailPointRegistry::disarm(std::string_view name) {
  arm(name, FailPointConfig{});
}

void FailPointRegistry::disarm_all() noexcept {
  for (const std::unique_ptr<FailPoint>& fp : points_) {
    fp->configure(FailPointConfig{});
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
  // name:mode with mode in {off, once[:value], nth:N[:value],
  // random:P[:seed[:value]]}.
  std::vector<std::string_view> fields;
  std::size_t start = 0;
  while (start <= spec.size()) {
    const std::size_t colon = spec.find(':', start);
    if (colon == std::string_view::npos) {
      fields.push_back(spec.substr(start));
      break;
    }
    fields.push_back(spec.substr(start, colon - start));
    start = colon + 1;
  }
  if (fields.size() < 2 || fields[0].empty()) {
    bad_spec(spec, "expected name:mode[:arg...]");
  }
  const std::string_view name = fields[0];
  const std::string_view mode = fields[1];
  FailPointConfig cfg;
  if (mode == "off") {
    if (fields.size() > 2) bad_spec(spec, "off takes no arguments");
    cfg.mode = FailPointMode::kOff;
  } else if (mode == "once") {
    if (fields.size() > 3) bad_spec(spec, "once takes at most one argument");
    cfg.mode = FailPointMode::kOnce;
    if (fields.size() == 3) {
      cfg.value = parse_u64_field(spec, fields[2], "value");
    }
  } else if (mode == "nth") {
    if (fields.size() < 3 || fields.size() > 4) {
      bad_spec(spec, "nth takes nth:N[:value]");
    }
    cfg.mode = FailPointMode::kNth;
    cfg.nth = parse_u64_field(spec, fields[2], "N");
    if (cfg.nth == 0) bad_spec(spec, "N must be >= 1");
    if (fields.size() == 4) {
      cfg.value = parse_u64_field(spec, fields[3], "value");
    }
  } else if (mode == "random") {
    if (fields.size() < 3 || fields.size() > 5) {
      bad_spec(spec, "random takes random:P[:seed[:value]]");
    }
    cfg.mode = FailPointMode::kRandom;
    cfg.probability = parse_probability(spec, fields[2]);
    if (fields.size() >= 4) {
      cfg.seed = parse_u64_field(spec, fields[3], "seed");
    }
    if (fields.size() == 5) {
      cfg.value = parse_u64_field(spec, fields[4], "value");
    }
  } else {
    bad_spec(spec, "unknown mode '" + std::string(mode) +
                       "' (off|once|nth|random)");
  }
  arm(name, cfg);  // throws on unknown name
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
