/// \file cube.hpp
/// \brief Cube (path) enumeration over BDDs.
///
/// A cube is stored positionally: entry v is 0 or 1 when literal x_v occurs
/// in that phase and kAbsentLiteral when x_v does not appear.  The paper
/// enumerates cubes of the care function this way to compute its Theorem 7
/// lower bound ("traversing its BDD in a depth-first order, returning a
/// cube each time the constant 1 is reached").
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "bdd/manager.hpp"

namespace bddmin {

/// Literal value marking "variable absent from this cube".
inline constexpr std::uint8_t kAbsentLiteral = 2;

/// Positional cube: cube[v] in {0, 1, kAbsentLiteral}.
using CubeVec = std::vector<std::uint8_t>;

/// Depth-first enumeration of the cubes (1-paths) of f.  The visitor may
/// return false to stop early; at most \p max_cubes cubes are visited
/// (0 = unlimited).  Returns the number of cubes visited.
std::size_t for_each_cube(const Manager& mgr, Edge f, unsigned num_vars,
                          std::size_t max_cubes,
                          const std::function<bool(const CubeVec&)>& visitor);

/// Build the conjunction-of-literals BDD for a positional cube.
[[nodiscard]] Edge cube_to_edge(Manager& mgr, const CubeVec& cube);

/// Number of literals in a positional cube.
[[nodiscard]] std::size_t cube_literal_count(const CubeVec& cube);

/// A largest cube of f (a 1-path with the fewest literals), found by
/// shortest-path dynamic programming over the graph — the paper's
/// Section 4.1.1 "look for large cubes by finding short paths from the
/// root to the constant 1".  Precondition: f != 0.
[[nodiscard]] CubeVec largest_cube(const Manager& mgr, Edge f,
                                   unsigned num_vars);

}  // namespace bddmin
