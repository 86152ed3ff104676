/// \file env.hpp
/// \brief Centralized environment-variable access.
///
/// Every BDDMIN_* environment variable the library honours is read
/// through this header (the single NOLINT'd `getenv` call in the repo
/// lives in env.cpp):
///
///   BDDMIN_NODE_LIMIT   default per-job node quota (engine)
///   BDDMIN_STEP_LIMIT   default per-job step budget (engine)
///   BDDMIN_AUDIT_LEVEL  default audit tier (analysis/audit)
///   BDDMIN_FAILPOINTS   failpoint arming specs (analysis/failpoint)
///   BDDMIN_PROGRESS     1 = force the batch --progress line even when
///                       stderr is not a terminal (tools/bddmin_cli)
///
/// Integer parsing is strict: a variable that is set but does not parse
/// as a non-negative integer is a hard error (EnvError names the
/// variable and the offending text) rather than a silently ignored
/// default — a mistyped quota must not run unbounded.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>

namespace bddmin::harness {

/// Thrown when a set environment variable fails to parse.
class EnvError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The raw value of \p name, or nullopt when unset or empty.  Never
/// throws; the value is copied out so later setenv calls are safe.
[[nodiscard]] std::optional<std::string> env_string(const char* name);

/// \p name parsed as a non-negative decimal integer.  Returns
/// \p fallback when the variable is unset or empty; throws EnvError
/// ("BDDMIN_FOO: expected a non-negative integer, got 'xyz'") when it
/// is set but malformed (sign, trailing junk, overflow, non-digits).
[[nodiscard]] std::uint64_t env_u64(const char* name, std::uint64_t fallback);

}  // namespace bddmin::harness
