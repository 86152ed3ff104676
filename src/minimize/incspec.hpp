/// \file incspec.hpp
/// \brief Incompletely specified functions [f, c] (Section 2 of the paper).
///
/// `[f, c]` has onset f·c, offset f̄·c and don't-care set c̄ — i.e. `c` is
/// the *care* function.  A cover g satisfies f·c <= g <= f + c̄.
#pragma once

#include <cstddef>
#include <cstdint>

#include "bdd/manager.hpp"

namespace bddmin::minimize {

/// An incompletely specified function.
struct IncSpec {
  Edge f{};  ///< value function (arbitrary outside the care set)
  Edge c{};  ///< care set

  friend constexpr bool operator==(IncSpec, IncSpec) noexcept = default;
};

/// Key of an (f, c) edge pair in the walks' memo (Manager::pair_scratch),
/// and how a walk stores the [f', c'] it built for that pair.
[[nodiscard]] constexpr std::uint64_t pair_key(Edge f, Edge c) noexcept {
  return (std::uint64_t{f.bits} << 32) | c.bits;
}
[[nodiscard]] constexpr IncSpec unpack_pair(std::uint64_t key) noexcept {
  return {Edge{static_cast<std::uint32_t>(key >> 32)},
          Edge{static_cast<std::uint32_t>(key)}};
}

/// Definition 2: g is a cover of [f,c] iff f·c <= g <= f + c̄, equivalently
/// (g XOR f)·c == 0.
[[nodiscard]] bool is_cover(Manager& mgr, Edge g, IncSpec spec);

/// Definition 2: [outer] is an i-cover of [inner] iff every cover of
/// [outer] is a cover of [inner]; equivalently inner.c <= outer.c and the
/// two value functions agree on inner.c.
[[nodiscard]] bool is_icover(Manager& mgr, IncSpec outer, IncSpec inner);

/// Two IncSpec values denote the same incompletely specified function:
/// equal care sets and equal values on the care set.
[[nodiscard]] bool same_function(Manager& mgr, IncSpec a, IncSpec b);

/// Fraction of the Boolean space (over the union of the supports of f and
/// c) on which c is 1 — the paper's `c_onset_size`, in [0, 1].
[[nodiscard]] double c_onset_fraction(Manager& mgr, IncSpec spec);

/// The call filters of Section 4.1.2: calls where c is a cube, or c is
/// contained in f or f̄, are excluded because most heuristics find the
/// minimum trivially there.
struct CallFilter {
  bool c_is_cube = false;
  bool c_in_f = false;       ///< 0 != c <= f: minimum cover is the constant 1
  bool c_in_not_f = false;   ///< c <= f̄: minimum cover is the constant 0
  bool c_trivial = false;    ///< c == 0 or c == 1

  [[nodiscard]] bool filtered() const noexcept {
    return c_is_cube || c_in_f || c_in_not_f || c_trivial;
  }
};

[[nodiscard]] CallFilter classify_call(Manager& mgr, IncSpec spec);

}  // namespace bddmin::minimize
