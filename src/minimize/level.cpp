#include "minimize/level.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "analysis/check.hpp"
#include "telemetry/profile.hpp"

namespace bddmin::minimize {
namespace {

constexpr std::uint64_t pair_key(Edge f, Edge c) noexcept {
  return (std::uint64_t{f.bits} << 32) | c.bits;
}

struct Collector {
  Manager& mgr;
  std::uint32_t level;
  std::size_t max_set_size;
  bool only_level_plus_one;
  CollectedLevel out;
  std::unordered_set<std::uint64_t> visited;
  /// canonical (f·c, c) -> vertex, so equal incompletely specified
  /// functions share one vertex (keeps the DMG acyclic).
  std::unordered_map<std::uint64_t, std::size_t> canonical_to_vertex;
  CubeVec path;

  void walk(Edge f, Edge c) {
    const std::uint64_t key = pair_key(f, c);
    if (!visited.insert(key).second) return;
    const bool f_below = mgr.level_of(f) > level;  // constants are below all
    const bool c_below = mgr.level_of(c) > level;
    if (f_below && c_below) {
      if (max_set_size != 0 && out.specs.size() >= max_set_size) return;
      if (only_level_plus_one && mgr.level_of(f) != level + 1) return;
      const std::uint64_t canon = pair_key(mgr.and_(f, c), c);
      const auto [it, inserted] =
          canonical_to_vertex.try_emplace(canon, out.specs.size());
      if (inserted) {
        out.specs.push_back(IncSpec{f, c});
        out.paths.push_back(path);
      }
      out.pair_to_vertex.emplace(key, it->second);
      return;
    }
    const std::uint32_t v = mgr.top_var(f, c);
    const auto [f_t, f_e] = mgr.branches(f, v);
    const auto [c_t, c_e] = mgr.branches(c, v);
    // Paths are indexed by order position so the Section 3.3.2 distance
    // weights depth correctly even under a permuted order.
    const std::uint32_t pos = mgr.level_of_var(v);
    path[pos] = 1;
    walk(f_t, c_t);
    path[pos] = 0;
    walk(f_e, c_e);
    path[pos] = kAbsentLiteral;
  }
};

}  // namespace

CollectedLevel collect_at_level(Manager& mgr, IncSpec spec, std::uint32_t level,
                                std::size_t max_set_size,
                                bool only_level_plus_one) {
  Collector collector{mgr,
                      level,
                      max_set_size,
                      only_level_plus_one,
                      {},
                      {},
                      {},
                      CubeVec(level + 1, kAbsentLiteral)};
  collector.walk(spec.f, spec.c);
  return std::move(collector.out);
}

double path_distance(const CubeVec& a, const CubeVec& b) {
  BDDMIN_DCHECK(a.size() == b.size());
  const std::size_t k = a.size();
  double d = 0.0;
  for (std::size_t v = 0; v < k; ++v) {
    if (a[v] == kAbsentLiteral || b[v] == kAbsentLiteral) continue;
    if (a[v] != b[v]) d += std::ldexp(1.0, static_cast<int>(k - 1 - v));
  }
  return d;
}

MatchGraph match_graph(Manager& mgr, Criterion crit,
                       std::span<const IncSpec> specs) {
  BDDMIN_CHECK(crit == Criterion::kOsm || crit == Criterion::kTsm);
  const std::size_t r = specs.size();
  MatchGraph graph{r, std::vector<std::uint8_t>(r * r, 0)};
  // Filter-then-prove: 64-pattern signatures rule out most non-matching
  // pairs with a few word operations; only the survivors pay for the
  // exact, BDD-walking matches().
  std::vector<SpecSignature> sig(r);
  for (std::size_t j = 0; j < r; ++j) sig[j] = signature_of(mgr, specs[j]);
  const bool symmetric = crit == Criterion::kTsm;
  for (std::size_t j = 0; j < r; ++j) {
    for (std::size_t k = symmetric ? j + 1 : 0; k < r; ++k) {
      if (j == k || signatures_rule_out(crit, sig[j], sig[k])) continue;
      if (matches(mgr, crit, specs[j], specs[k])) {
        graph.adjacency[j * r + k] = 1;
        if (symmetric) graph.adjacency[k * r + j] = 1;
      }
    }
  }
  return graph;
}

std::vector<std::size_t> osm_sinks(const MatchGraph& dmg) {
  const std::size_t r = dmg.r;
  // Map every vertex to a reachable sink.  The DMG is acyclic for
  // distinct functions (Proposition 10), and osm transitivity makes the
  // sink a direct i-cover of every vertex on the way.
  std::vector<std::size_t> rep(r, SIZE_MAX);
  auto resolve = [&](auto&& self, std::size_t j) -> std::size_t {
    if (rep[j] != SIZE_MAX) return rep[j];
    for (std::size_t k = 0; k < r; ++k) {
      if (dmg.edge(j, k)) return rep[j] = self(self, k);
    }
    return rep[j] = j;  // no out-edge: a sink
  };
  for (std::size_t j = 0; j < r; ++j) resolve(resolve, j);
  return rep;
}

std::vector<std::size_t> fmm_osm(Manager& mgr, std::span<const IncSpec> specs) {
  const telemetry::PhaseScope phase(telemetry::Phase::kMatching);
  return osm_sinks(match_graph(mgr, Criterion::kOsm, specs));
}

CliqueCover clique_cover(const MatchGraph& umg, std::span<const CubeVec> paths,
                         const LevelOptions& opts) {
  const std::size_t r = umg.r;
  std::vector<std::size_t> seed_order(r);
  for (std::size_t j = 0; j < r; ++j) seed_order[j] = j;
  if (opts.order_by_degree) {
    std::vector<std::size_t> degree(r, 0);
    for (std::size_t j = 0; j < r; ++j) {
      degree[j] = static_cast<std::size_t>(
          std::count(umg.adjacency.begin() + j * r,
                     umg.adjacency.begin() + (j + 1) * r, std::uint8_t{1}));
    }
    std::stable_sort(seed_order.begin(), seed_order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return degree[a] > degree[b];
                     });
  }

  CliqueCover cover;
  cover.clique_of.assign(r, SIZE_MAX);
  const bool use_weights = opts.weight_by_distance && paths.size() == r;
  for (const std::size_t seed : seed_order) {
    if (cover.clique_of[seed] != SIZE_MAX) continue;
    std::vector<std::size_t> clique{seed};
    cover.clique_of[seed] = cover.cliques.size();
    // Grow greedily: repeatedly add the *nearest* uncovered vertex that is
    // adjacent to every clique member (paper Section 3.3.2, optimization 2).
    for (;;) {
      std::size_t best = SIZE_MAX;
      double best_weight = 0.0;
      for (std::size_t w = 0; w < r; ++w) {
        if (cover.clique_of[w] != SIZE_MAX) continue;
        const bool adjacent_to_all =
            std::all_of(clique.begin(), clique.end(),
                        [&](std::size_t u) { return umg.edge(u, w); });
        if (!adjacent_to_all) continue;
        double weight = 0.0;
        if (use_weights) {
          weight = path_distance(paths[seed], paths[w]);
          for (const std::size_t u : clique) {
            weight = std::min(weight, path_distance(paths[u], paths[w]));
          }
        }
        if (best == SIZE_MAX || weight < best_weight) {
          best = w;
          best_weight = weight;
        }
      }
      if (best == SIZE_MAX) break;
      cover.clique_of[best] = cover.cliques.size();
      clique.push_back(best);
    }
    cover.cliques.push_back(std::move(clique));
  }
  return cover;
}

CliqueCover fmm_tsm(Manager& mgr, std::span<const IncSpec> specs,
                    std::span<const CubeVec> paths, const LevelOptions& opts) {
  const telemetry::PhaseScope phase(telemetry::Phase::kMatching);
  return clique_cover(match_graph(mgr, Criterion::kTsm, specs), paths, opts);
}

IncSpec merge_clique(Manager& mgr, std::span<const IncSpec> specs,
                     std::span<const std::size_t> members) {
  const telemetry::PhaseScope phase(telemetry::Phase::kCoverBuild);
  Edge f = kZero;
  Edge c = kZero;
  for (const std::size_t j : members) {
    f = mgr.or_(f, mgr.and_(specs[j].f, specs[j].c));
    c = mgr.or_(c, specs[j].c);
  }
  return IncSpec{f, c};
}

namespace {

struct Substituter {
  Manager& mgr;
  std::uint32_t level;
  const std::unordered_map<std::uint64_t, IncSpec>& replacement;
  std::unordered_map<std::uint64_t, IncSpec> memo;

  IncSpec rebuild(Edge f, Edge c) {
    const std::uint64_t key = pair_key(f, c);
    if (mgr.level_of(f) > level && mgr.level_of(c) > level) {
      const auto it = replacement.find(key);
      return it != replacement.end() ? it->second : IncSpec{f, c};
    }
    if (const auto it = memo.find(key); it != memo.end()) return it->second;
    mgr.governor().charge_step();
    const std::uint32_t v = mgr.top_var(f, c);
    const auto [f_t, f_e] = mgr.branches(f, v);
    const auto [c_t, c_e] = mgr.branches(c, v);
    const IncSpec t = rebuild(f_t, c_t);
    const IncSpec e = rebuild(f_e, c_e);
    const IncSpec result{mgr.make_node(v, t.f, e.f), mgr.make_node(v, t.c, e.c)};
    memo.emplace(key, result);
    return result;
  }
};

}  // namespace

IncSpec substitute_at_level(
    Manager& mgr, IncSpec spec, std::uint32_t level,
    const std::unordered_map<std::uint64_t, IncSpec>& replacement) {
  const telemetry::PhaseScope phase(telemetry::Phase::kCoverBuild);
  Substituter sub{mgr, level, replacement, {}};
  return sub.rebuild(spec.f, spec.c);
}

namespace {

IncSpec minimize_at_level_once(Manager& mgr, Criterion crit,
                               std::uint32_t level, const LevelOptions& opts,
                               IncSpec spec, LevelStats* stats) {
  BDDMIN_CHECK(crit == Criterion::kOsm || crit == Criterion::kTsm);
  const CollectedLevel collected = collect_at_level(
      mgr, spec, level, opts.max_set_size, opts.only_level_plus_one);
  const std::size_t r = collected.specs.size();
  std::vector<IncSpec> vertex_replacement(r);
  std::size_t groups = 0;
  if (crit == Criterion::kOsm) {
    const std::vector<std::size_t> rep = fmm_osm(mgr, collected.specs);
    for (std::size_t j = 0; j < r; ++j) {
      vertex_replacement[j] = collected.specs[rep[j]];
      groups += rep[j] == j;
    }
  } else {
    const CliqueCover cover =
        fmm_tsm(mgr, collected.specs, collected.paths, opts);
    std::vector<IncSpec> merged(cover.cliques.size());
    for (std::size_t q = 0; q < cover.cliques.size(); ++q) {
      merged[q] = merge_clique(mgr, collected.specs, cover.cliques[q]);
    }
    for (std::size_t j = 0; j < r; ++j) {
      const std::size_t q = cover.clique_of[j];
      // Singleton cliques spend no freedom: keep the original function
      // rather than its [f·c, c] normal form.
      vertex_replacement[j] =
          cover.cliques[q].size() == 1 ? collected.specs[j] : merged[q];
    }
    groups = cover.cliques.size();
  }
  if (stats) {
    stats->vertices = r;
    stats->groups = groups;
    stats->matched = r - groups;
  }
  std::unordered_map<std::uint64_t, IncSpec> replacement;
  replacement.reserve(collected.pair_to_vertex.size());
  for (const auto& [key, vertex] : collected.pair_to_vertex) {
    replacement.emplace(key, vertex_replacement[vertex]);
  }
  return substitute_at_level(mgr, spec, level, replacement);
}

}  // namespace

IncSpec minimize_at_level(Manager& mgr, Criterion crit, std::uint32_t level,
                          const LevelOptions& opts, IncSpec spec,
                          LevelStats* stats) {
  LevelStats local;
  spec = minimize_at_level_once(mgr, crit, level, opts, spec, &local);
  if (opts.max_set_size != 0 && opts.chunked) {
    // Section 3.3.1: "When the limit is reached, the resulting set is
    // processed.  Then the traversal is continued, building a new set."
    // Matched vertices merge, so the population shrinks each round; the
    // round cap is a safety net against pathological oscillation.
    std::size_t last_matched = local.matched;
    std::size_t last_vertices = local.vertices;
    for (int round = 0;
         round < 64 && last_matched > 0 && last_vertices >= opts.max_set_size;
         ++round) {
      LevelStats next;
      spec = minimize_at_level_once(mgr, crit, level, opts, spec, &next);
      last_matched = next.matched;
      last_vertices = next.vertices;
      local.vertices = next.vertices;
      local.groups = next.groups;
      local.matched += next.matched;
    }
  }
  if (stats) *stats = local;
  return spec;
}

Edge opt_lv(Manager& mgr, Edge f, Edge c, const LevelOptions& opts,
            Criterion crit) {
  if (c == kZero || c == kOne) return f;
  IncSpec spec{f, c};
  // Level n-1 would only group constants; stop one short.
  for (std::uint32_t level = 0; level + 1 < mgr.num_vars(); ++level) {
    spec = minimize_at_level(mgr, crit, level, opts, spec);
  }
  return spec.f;
}

}  // namespace bddmin::minimize
