#include "bdd/cube.hpp"

#include <algorithm>
#include <unordered_map>

#include "analysis/check.hpp"

namespace bddmin {
namespace {

struct CubeWalker {
  const Manager& mgr;
  const std::function<bool(const CubeVec&)>& visitor;
  std::size_t max_cubes;
  std::size_t visited = 0;
  CubeVec cube;

  /// Returns false to abort the whole enumeration.
  bool walk(Edge f) {
    if (f == kZero) return true;
    if (f == kOne) {
      ++visited;
      if (!visitor(cube)) return false;
      return max_cubes == 0 || visited < max_cubes;
    }
    const std::uint32_t v = mgr.var_of(f);
    cube[v] = 1;
    const bool go_on = walk(mgr.hi_of(f));
    if (!go_on) {
      cube[v] = kAbsentLiteral;
      return false;
    }
    cube[v] = 0;
    const bool go_on2 = walk(mgr.lo_of(f));
    cube[v] = kAbsentLiteral;
    return go_on2;
  }
};

}  // namespace

std::size_t for_each_cube(const Manager& mgr, Edge f, unsigned num_vars,
                          std::size_t max_cubes,
                          const std::function<bool(const CubeVec&)>& visitor) {
  CubeWalker walker{mgr, visitor, max_cubes, 0,
                    CubeVec(num_vars, kAbsentLiteral)};
  walker.walk(f);
  return walker.visited;
}

Edge cube_to_edge(Manager& mgr, const CubeVec& cube) {
  // Build bottom-up in order position, so each step is one make_node.
  std::vector<std::uint32_t> vars;
  for (std::size_t v = 0; v < cube.size(); ++v) {
    if (cube[v] != kAbsentLiteral) vars.push_back(static_cast<std::uint32_t>(v));
  }
  std::sort(vars.begin(), vars.end(), [&](std::uint32_t a, std::uint32_t b) {
    return mgr.level_of_var(a) > mgr.level_of_var(b);
  });
  Edge e = kOne;
  for (const std::uint32_t v : vars) {
    e = cube[v] ? mgr.make_node(v, e, kZero) : mgr.make_node(v, kZero, e);
  }
  return e;
}

std::size_t cube_literal_count(const CubeVec& cube) {
  std::size_t n = 0;
  for (const std::uint8_t lit : cube) n += lit != kAbsentLiteral;
  return n;
}

namespace {

constexpr std::size_t kUnreachable = SIZE_MAX;

/// Fewest literals on any path from `e` to the constant 1 (complement
/// parity folded into the edge).  Memoized per (node, parity).
std::size_t shortest_to_one(const Manager& mgr, Edge e,
                            std::unordered_map<std::uint32_t, std::size_t>& memo) {
  if (e == kOne) return 0;
  if (e == kZero) return kUnreachable;
  if (const auto it = memo.find(e.bits); it != memo.end()) return it->second;
  const std::size_t hi = shortest_to_one(mgr, mgr.hi_of(e), memo);
  const std::size_t lo = shortest_to_one(mgr, mgr.lo_of(e), memo);
  const std::size_t best = std::min(hi, lo);
  const std::size_t result =
      best == kUnreachable ? kUnreachable : best + 1;
  memo.emplace(e.bits, result);
  return result;
}

}  // namespace

CubeVec largest_cube(const Manager& mgr, Edge f, unsigned num_vars) {
  BDDMIN_CHECK(f != kZero);
  std::unordered_map<std::uint32_t, std::size_t> memo;
  (void)shortest_to_one(mgr, f, memo);
  CubeVec cube(num_vars, kAbsentLiteral);
  Edge e = f;
  while (e != kOne) {
    const Edge hi = mgr.hi_of(e);
    const Edge lo = mgr.lo_of(e);
    const std::size_t via_hi = shortest_to_one(mgr, hi, memo);
    const std::size_t via_lo = shortest_to_one(mgr, lo, memo);
    const bool take_hi = via_hi <= via_lo;
    cube[mgr.var_of(e)] = take_hi ? 1 : 0;
    e = take_hi ? hi : lo;
  }
  return cube;
}

}  // namespace bddmin
