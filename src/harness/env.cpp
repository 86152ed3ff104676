#include "harness/env.hpp"

#include <charconv>
#include <cstdlib>

namespace bddmin::harness {

std::optional<std::string> env_string(const char* name) {
  // The one getenv in the repo.  Reads are racy against concurrent
  // setenv by design of the C API; we copy the value out immediately.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  const char* raw = std::getenv(name);
  if (raw == nullptr || raw[0] == '\0') return std::nullopt;
  return std::string(raw);
}

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const std::optional<std::string> raw = env_string(name);
  if (!raw) return fallback;
  // from_chars takes plain decimal digits only: no whitespace, sign or
  // base prefix, and it reports overflow.
  const char* end = raw->data() + raw->size();
  std::uint64_t value = 0;
  const auto [ptr, ec] = std::from_chars(raw->data(), end, value);
  if (ec != std::errc() || ptr != end) {
    throw EnvError(std::string(name) +
                   ": expected a non-negative integer, got '" + *raw + "'");
  }
  return value;
}

}  // namespace bddmin::harness
