/// \file level.hpp
/// \brief Minimizing at a level (Section 3.3): collect the subfunctions
/// below a level, match as many as possible (FMM), substitute the
/// i-covers back.
///
/// FMM — the function matching minimization problem (Definition 8) — is
/// solved exactly per criterion:
///  * osm: the directed matching graph (DMG) is acyclic; the sink vertices
///    are a minimum solution (Proposition 10) and every vertex maps to a
///    reachable sink by transitivity.
///  * tsm: FMM reduces to minimum clique cover of the undirected matching
///    graph (Theorem 15), which is NP-complete, so the paper's greedy
///    clique construction is used with its two proposed optimizations:
///    seeds in decreasing-degree order, and growth along minimum
///    path-distance edges (dist of Section 3.3.2, from Touati et al.).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bdd/cube.hpp"
#include "minimize/matching.hpp"

namespace bddmin::minimize {

struct LevelOptions {
  /// Cap on the number of collected functions per level; 0 = unlimited
  /// (the paper's implementation: "we do not limit the size of the set,
  /// preferring to trade runtime for quality").
  std::size_t max_set_size = 0;
  /// With a cap: process the set, then continue the traversal building a
  /// new set (the paper's first proposed method, which also groups
  /// "nearby" subfunctions).  Without it, functions beyond the cap are
  /// simply left untouched for that level.
  bool chunked = true;
  /// The paper's second proposed method: collect only subfunctions whose
  /// value part is rooted exactly at level i+1 (minimizes the node count
  /// of level i+1 specifically).  Orthogonal to the cap.
  bool only_level_plus_one = false;
  /// Clique optimization 1: visit seed vertices in decreasing order of
  /// out-degree so large cliques are not shadowed by small ones.
  bool order_by_degree = true;
  /// Clique optimization 2: grow cliques along edges with the smallest
  /// path distance, favouring matches of nearby (sibling-like) functions.
  bool weight_by_distance = true;
};

/// First root paths, one row of `width` literals (0, 1 or kAbsentLiteral,
/// indexed by order position) per collected vertex, stored row-major.
struct PathMatrix {
  std::size_t width = 0;
  std::vector<std::uint8_t> literals;

  [[nodiscard]] std::size_t rows() const noexcept {
    return width == 0 ? 0 : literals.size() / width;
  }
  [[nodiscard]] std::span<const std::uint8_t> row(
      std::size_t j) const noexcept {
    return {literals.data() + j * width, width};
  }
  friend bool operator==(const PathMatrix&, const PathMatrix&) = default;
};

/// A boundary pair the collection mapped to a vertex.
struct BoundaryPair {
  std::uint64_t key = 0;    ///< pair_key(f, c)
  std::size_t vertex = 0;

  friend bool operator==(BoundaryPair, BoundaryPair) = default;
};

/// The subfunctions [fj, cj] pointed to from level `level` or above whose
/// f and c nodes both lie strictly below `level` (variable index >
/// level, constants included).  Deduplicated as *incompletely specified
/// functions* (same care set and same values on it), which keeps the osm
/// DMG acyclic as required by Proposition 10.  The walk files each
/// vertex in the Manager's pair_scratch() under the canonical key
/// pair_key(f·c, c), so a pair of the same class reached later, (f·c, c)
/// itself included, maps to that vertex.
struct CollectedLevel {
  std::vector<IncSpec> specs;  ///< unique functions (graph vertices)
  PathMatrix paths;            ///< first root path reaching each vertex
  /// Every pair mapped to a vertex, in walk order.  Pairs beyond a set
  /// cap or outside the level+1 filter are not listed (substitution keeps
  /// them).  boundary.size() == specs.size() iff no two pairs share a
  /// vertex.
  std::vector<BoundaryPair> boundary;
  /// The smallest level of any boundary pair the walk reached (listed or
  /// not; kConstVar when every one is a pair of constants).  A collection
  /// at any level in [level, min_boundary_level) reaches the same pairs
  /// in the same order.
  std::uint32_t min_boundary_level = kConstVar;
};

[[nodiscard]] CollectedLevel collect_at_level(Manager& mgr, IncSpec spec,
                                              std::uint32_t level,
                                              std::size_t max_set_size = 0,
                                              bool only_level_plus_one = false);

/// Section 3.3.2's path distance dist(g, h) = sum over common literal
/// positions of |x_i^g - x_i^h| * 2^(k-i-1); absent positions are skipped.
[[nodiscard]] double path_distance(std::span<const std::uint8_t> a,
                                   std::span<const std::uint8_t> b);

/// The matching graph over r collected functions: edge (j, k) means
/// vertex j matches vertex k.  Directed under osm (the DMG), symmetric
/// under tsm (the UMG).
struct MatchGraph {
  std::size_t r = 0;
  std::vector<std::uint8_t> adjacency;  ///< adjacency[j*r + k]

  [[nodiscard]] bool edge(std::size_t j, std::size_t k) const noexcept {
    return adjacency[j * r + k] != 0;
  }
  friend bool operator==(const MatchGraph&, const MatchGraph&) = default;
};

/// Build the osm or tsm matching graph filter-then-prove: a pair whose
/// simulation signatures witness a mismatch (signatures_rule_out) is
/// skipped, and only the surviving pairs run the exact matches().  The
/// graph equals the one from matches() on every pair.
[[nodiscard]] MatchGraph match_graph(Manager& mgr, Criterion crit,
                                     std::span<const IncSpec> specs);

/// Solve FMM on a DMG: rep[j] = index of the sink vertex whose [f, c]
/// i-covers vertex j (rep[j] == j for sinks).
[[nodiscard]] std::vector<std::size_t> osm_sinks(const MatchGraph& dmg);

/// Solve FMM under osm: osm_sinks of the osm matching graph.
[[nodiscard]] std::vector<std::size_t> fmm_osm(Manager& mgr,
                                               std::span<const IncSpec> specs);

/// A clique cover of the UMG, flat: the cliques back to back in
/// `members`, each in the order it grew; clique q ends at ends[q].
struct CliqueCover {
  std::vector<std::size_t> members;
  std::vector<std::size_t> ends;
  std::vector<std::size_t> clique_of;  ///< vertex -> clique

  [[nodiscard]] std::size_t size() const noexcept { return ends.size(); }
  [[nodiscard]] std::span<const std::size_t> clique(
      std::size_t q) const noexcept {
    const std::size_t begin = q == 0 ? 0 : ends[q - 1];
    return {members.data() + begin, ends[q] - begin};
  }
  friend bool operator==(const CliqueCover&, const CliqueCover&) = default;
};

/// The greedy clique cover of a UMG with the two optimizations selected by
/// \p opts.  Each clique grows from its seed by the candidate adjacent to
/// every member at the smallest path distance to the clique (the lowest
/// index on a tie); distances are used only when weight_by_distance is on
/// and \p paths has one row per vertex.
[[nodiscard]] CliqueCover clique_cover(const MatchGraph& umg,
                                       const PathMatrix& paths,
                                       const LevelOptions& opts);

/// Solve FMM under tsm: clique_cover of the tsm matching graph.
[[nodiscard]] CliqueCover fmm_tsm(Manager& mgr, std::span<const IncSpec> specs,
                                  const PathMatrix& paths,
                                  const LevelOptions& opts);

/// Merge all functions of a clique into their common i-cover
/// [sum fj·cj, sum cj] (valid by Lemma 14).
[[nodiscard]] IncSpec merge_clique(Manager& mgr, std::span<const IncSpec> specs,
                                   std::span<const std::size_t> members);

/// Rebuild [f, c] with each boundary pair of \p collected replaced by
/// replacement[vertex] (one entry per collected vertex; pairs left out of
/// the collection, e.g. beyond a set cap, are kept).  The walk's memo is
/// seeded with the boundary list, so a boundary pair costs one lookup.
/// The result is an i-cover of spec when every replacement[j] i-covers
/// collected.specs[j].
[[nodiscard]] IncSpec substitute_at_level(Manager& mgr, IncSpec spec,
                                          std::uint32_t level,
                                          const CollectedLevel& collected,
                                          std::span<const IncSpec> replacement);

struct LevelStats {
  std::size_t vertices = 0;  ///< functions collected
  std::size_t groups = 0;    ///< sinks (osm) or cliques (tsm)
  std::size_t matched = 0;   ///< vertices - groups
};

/// One full "minimize at level i" step under osm or tsm (osdm degenerates
/// to osm with an empty premise and is not offered separately, mirroring
/// the paper).  A step whose groups are all single vertices and whose
/// vertices each stand for one boundary pair is the identity: it returns
/// \p spec without substituting.
[[nodiscard]] IncSpec minimize_at_level(Manager& mgr, Criterion crit,
                                        std::uint32_t level,
                                        const LevelOptions& opts, IncSpec spec,
                                        LevelStats* stats = nullptr);

/// The paper's opt_lv heuristic: visit levels top-down applying level
/// minimization under \p crit (the paper's variant uses tsm; the osm
/// variant is the "safe" member of the class per Theorem 12, used by the
/// scheduler); the final value function is a cover of the input.  One
/// workspace serves every level.  After an identity step at level i,
/// opt_lv goes on at the collection's min_boundary_level: the levels in
/// between reach the same boundary in the same order, with paths padded
/// by absent literals, so every distance scales by the same power of two
/// and each of them is the identity too.  With only_level_plus_one the
/// set does depend on the level, and every level runs.
[[nodiscard]] Edge opt_lv(Manager& mgr, Edge f, Edge c,
                          const LevelOptions& opts = {},
                          Criterion crit = Criterion::kTsm);

}  // namespace bddmin::minimize
