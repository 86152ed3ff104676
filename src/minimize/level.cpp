#include "minimize/level.hpp"

#include <algorithm>
#include <cmath>

#include "analysis/check.hpp"
#include "telemetry/profile.hpp"

namespace bddmin::minimize {
namespace {

/// A canonical (f·c, c) entry the walk has not reached yet.
constexpr std::uint64_t kUnreached = std::uint64_t{1} << 63;
constexpr std::size_t kNone = SIZE_MAX;

/// The collect walk.  Its pair_scratch() entries: a walked pair holds 0,
/// or vertex+1 when its key is the canonical key of a vertex's class; a
/// class key filed before the walk reached it also carries kUnreached.
struct Collector {
  Manager& mgr;
  std::uint32_t level;
  std::size_t max_set_size;
  bool only_level_plus_one;
  CollectedLevel& out;
  CubeVec& path;
  PairScratch& table;

  std::size_t add_vertex(Edge f, Edge c) {
    out.specs.push_back(IncSpec{f, c});
    out.paths.literals.insert(out.paths.literals.end(), path.begin(),
                              path.end());
    return out.specs.size() - 1;
  }

  void walk(Edge f, Edge c) {
    const std::uint64_t key = pair_key(f, c);
    const auto [slot, inserted] = table.try_emplace(key, 0);
    if (!inserted) {
      if ((*slot & kUnreached) == 0) return;  // walked already
      *slot &= ~kUnreached;
    }
    const std::uint32_t f_level = mgr.level_of(f);  // constants are below all
    const std::uint32_t c_level = mgr.level_of(c);
    if (f_level > level && c_level > level) {
      out.min_boundary_level =
          std::min({out.min_boundary_level, f_level, c_level});
      if (max_set_size != 0 && out.specs.size() >= max_set_size) return;
      if (only_level_plus_one && f_level != level + 1) return;
      if (!inserted) {  // a class key: (f·c, c) is its own canonical pair
        out.boundary.push_back({key, *slot - 1});
        return;
      }
      const std::uint64_t canon = pair_key(mgr.and_(f, c), c);
      std::size_t vertex = kNone;
      if (canon == key) {
        vertex = add_vertex(f, c);
        *slot = vertex + 1;
      } else {
        std::uint64_t* class_slot = table.try_emplace(canon, kUnreached).first;
        const std::uint64_t filed = *class_slot & ~kUnreached;
        if (filed != 0) {
          vertex = filed - 1;
        } else {  // a new class; its key is unreached or walked uncollected
          vertex = add_vertex(f, c);
          *class_slot |= vertex + 1;
        }
      }
      out.boundary.push_back({key, vertex});
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

void collect(Manager& mgr, IncSpec spec, std::uint32_t level,
             std::size_t max_set_size, bool only_level_plus_one,
             CollectedLevel& out, CubeVec& path) {
  out.specs.clear();
  out.paths.width = level + 1;
  out.paths.literals.clear();
  out.boundary.clear();
  out.min_boundary_level = kConstVar;
  path.assign(level + 1, kAbsentLiteral);
  const PairScratch::Walk walk = mgr.pair_scratch().begin();
  Collector{mgr, level, max_set_size, only_level_plus_one, out, path,
            mgr.pair_scratch()}
      .walk(spec.f, spec.c);
}

void build_match_graph(Manager& mgr, Criterion crit,
                       std::span<const IncSpec> specs,
                       std::vector<SpecSignature>& sig, MatchGraph& graph) {
  BDDMIN_CHECK(crit == Criterion::kOsm || crit == Criterion::kTsm);
  const std::size_t r = specs.size();
  graph.r = r;
  graph.adjacency.assign(r * r, 0);
  // Filter-then-prove: 64-pattern signatures rule out most non-matching
  // pairs with a few word operations; only the survivors pay for the
  // exact, BDD-walking matches().
  sig.resize(r);
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
}

void find_sinks(const MatchGraph& dmg, std::vector<std::size_t>& rep) {
  const std::size_t r = dmg.r;
  // Map every vertex to a reachable sink.  The DMG is acyclic for
  // distinct functions (Proposition 10), and osm transitivity makes the
  // sink a direct i-cover of every vertex on the way.
  rep.assign(r, kNone);
  auto resolve = [&](auto&& self, std::size_t j) -> std::size_t {
    if (rep[j] != kNone) return rep[j];
    for (std::size_t k = 0; k < r; ++k) {
      if (dmg.edge(j, k)) return rep[j] = self(self, k);
    }
    return rep[j] = j;  // no out-edge: a sink
  };
  for (std::size_t j = 0; j < r; ++j) resolve(resolve, j);
}

/// clique_cover's per-vertex buffers.
struct CliqueScratch {
  std::vector<std::size_t> seed_order;
  std::vector<std::size_t> degree;
  std::vector<std::uint8_t> candidate;  ///< adjacent to every member
  std::vector<double> distance;         ///< min path distance to a member
};

void cover_cliques(const MatchGraph& umg, const PathMatrix& paths,
                   const LevelOptions& opts, CliqueScratch& s,
                   CliqueCover& cover) {
  const std::size_t r = umg.r;
  s.seed_order.resize(r);
  for (std::size_t j = 0; j < r; ++j) s.seed_order[j] = j;
  if (opts.order_by_degree) {
    s.degree.resize(r);
    for (std::size_t j = 0; j < r; ++j) {
      s.degree[j] = static_cast<std::size_t>(
          std::count(umg.adjacency.begin() + j * r,
                     umg.adjacency.begin() + (j + 1) * r, std::uint8_t{1}));
    }
    // Decreasing degree, index order among equals (a stable sort).
    std::sort(s.seed_order.begin(), s.seed_order.end(),
              [&](std::size_t a, std::size_t b) {
                return s.degree[a] != s.degree[b] ? s.degree[a] > s.degree[b]
                                                  : a < b;
              });
  }

  cover.members.clear();
  cover.ends.clear();
  cover.clique_of.assign(r, kNone);
  s.candidate.resize(r);
  s.distance.assign(r, 0.0);
  const bool use_weights = opts.weight_by_distance && paths.rows() == r;
  for (const std::size_t seed : s.seed_order) {
    if (cover.clique_of[seed] != kNone) continue;
    const std::size_t q = cover.ends.size();
    std::size_t added = seed;
    for (;;) {
      cover.clique_of[added] = q;
      cover.members.push_back(added);
      // Grow greedily: repeatedly add the *nearest* uncovered vertex that
      // is adjacent to every clique member (paper Section 3.3.2,
      // optimization 2).  The candidates and their distance to the
      // clique are updated once per added member.
      std::size_t best = kNone;
      for (std::size_t w = 0; w < r; ++w) {
        if (added == seed) {
          s.candidate[w] = cover.clique_of[w] == kNone && umg.edge(seed, w);
        } else {
          s.candidate[w] = s.candidate[w] && umg.edge(added, w);
        }
        if (!s.candidate[w]) continue;
        if (use_weights) {
          const double d = path_distance(paths.row(added), paths.row(w));
          s.distance[w] = added == seed ? d : std::min(s.distance[w], d);
        }
        if (best == kNone || s.distance[w] < s.distance[best]) best = w;
      }
      if (best == kNone) break;
      added = best;
    }
    cover.ends.push_back(cover.members.size());
  }
}

/// [f, c] with each mapped boundary pair replaced; \p memo is seeded with
/// the boundary list, so a pair costs one find.
struct Substituter {
  Manager& mgr;
  std::uint32_t level;
  PairScratch& memo;  ///< the Manager's pair table: (f, c) -> [f', c']

  IncSpec rebuild(Edge f, Edge c) {
    const std::uint64_t key = pair_key(f, c);
    if (const std::uint64_t* hit = memo.find(key)) return unpack_pair(*hit);
    // A boundary pair without an entry maps to itself or was left out.
    if (mgr.level_of(f) > level && mgr.level_of(c) > level) return {f, c};
    mgr.governor().charge_step();
    const std::uint32_t v = mgr.top_var(f, c);
    const auto [f_t, f_e] = mgr.branches(f, v);
    const auto [c_t, c_e] = mgr.branches(c, v);
    const IncSpec t = rebuild(f_t, c_t);
    const IncSpec e = rebuild(f_e, c_e);
    const IncSpec result{mgr.make_node(v, t.f, e.f), mgr.make_node(v, t.c, e.c)};
    memo.insert(key, pair_key(result.f, result.c));
    return result;
  }
};

IncSpec substitute(Manager& mgr, IncSpec spec, std::uint32_t level,
                   std::span<const BoundaryPair> boundary,
                   std::span<const IncSpec> replacement) {
  const PairScratch::Walk walk = mgr.pair_scratch().begin();
  PairScratch& memo = mgr.pair_scratch();
  for (const BoundaryPair& pair : boundary) {
    const IncSpec to = replacement[pair.vertex];
    const std::uint64_t to_key = pair_key(to.f, to.c);
    if (to_key != pair.key) memo.insert(pair.key, to_key);
  }
  return Substituter{mgr, level, memo}.rebuild(spec.f, spec.c);
}

/// The per-level step's buffers, reused across the levels and chunk
/// rounds of one call.
class LevelStep {
 public:
  LevelStep(Manager& mgr, Criterion crit, const LevelOptions& opts)
      : mgr_(mgr), crit_(crit), opts_(opts) {
    BDDMIN_CHECK(crit == Criterion::kOsm || crit == Criterion::kTsm);
  }

  [[nodiscard]] const CollectedLevel& collected() const noexcept {
    return collected_;
  }

  /// minimize_at_level on \p spec; returns false when its last step was
  /// the identity (then collected() is that step's collection).
  bool minimize(std::uint32_t level, IncSpec& spec, LevelStats& stats) {
    bool changed = step(level, spec, stats);
    if (opts_.max_set_size != 0 && opts_.chunked) {
      // Section 3.3.1: "When the limit is reached, the resulting set is
      // processed.  Then the traversal is continued, building a new set."
      // Matched vertices merge, so the population shrinks each round; the
      // round cap is a safety net against pathological oscillation.
      std::size_t last_matched = stats.matched;
      std::size_t last_vertices = stats.vertices;
      for (int round = 0; round < 64 && last_matched > 0 &&
                          last_vertices >= opts_.max_set_size;
           ++round) {
        LevelStats next;
        changed = step(level, spec, next);
        last_matched = next.matched;
        last_vertices = next.vertices;
        stats.vertices = next.vertices;
        stats.groups = next.groups;
        stats.matched += next.matched;
      }
    }
    return changed;
  }

 private:
  bool step(std::uint32_t level, IncSpec& spec, LevelStats& stats) {
    collect(mgr_, spec, level, opts_.max_set_size, opts_.only_level_plus_one,
            collected_, path_);
    const std::vector<IncSpec>& specs = collected_.specs;
    const std::size_t r = specs.size();
    replacement_.assign(specs.begin(), specs.end());
    std::size_t groups = 0;
    {
      const telemetry::PhaseScope phase(mgr_, telemetry::Phase::kMatching);
      build_match_graph(mgr_, crit_, specs, signatures_, graph_);
      if (crit_ == Criterion::kOsm) {
        find_sinks(graph_, sinks_);
      } else {
        cover_cliques(graph_, collected_.paths, opts_, cliques_, cover_);
      }
    }
    const telemetry::PhaseScope phase(mgr_, telemetry::Phase::kCoverBuild);
    if (crit_ == Criterion::kOsm) {
      for (std::size_t j = 0; j < r; ++j) {
        replacement_[j] = specs[sinks_[j]];
        groups += sinks_[j] == j;
      }
    } else {
      groups = cover_.size();
      for (std::size_t q = 0; q < groups; ++q) {
        // Singleton cliques spend no freedom: they keep the original
        // function rather than its [f·c, c] normal form.
        const std::span<const std::size_t> clique = cover_.clique(q);
        if (clique.size() == 1) continue;
        const IncSpec merged = merge_clique(mgr_, specs, clique);
        for (const std::size_t j : clique) replacement_[j] = merged;
      }
    }
    stats.vertices = r;
    stats.groups = groups;
    stats.matched = r - groups;
    // Every vertex its own group, reached through one pair only: each
    // pair would be replaced by itself.
    if (groups == r && collected_.boundary.size() == r) return false;
    spec = substitute(mgr_, spec, level, collected_.boundary, replacement_);
    return true;
  }

  Manager& mgr_;
  Criterion crit_;
  const LevelOptions& opts_;
  CollectedLevel collected_;
  CubeVec path_;
  std::vector<SpecSignature> signatures_;
  MatchGraph graph_;
  std::vector<std::size_t> sinks_;
  CliqueScratch cliques_;
  CliqueCover cover_;
  std::vector<IncSpec> replacement_;
};

}  // namespace

CollectedLevel collect_at_level(Manager& mgr, IncSpec spec, std::uint32_t level,
                                std::size_t max_set_size,
                                bool only_level_plus_one) {
  CollectedLevel out;
  CubeVec path;
  collect(mgr, spec, level, max_set_size, only_level_plus_one, out, path);
  return out;
}

double path_distance(std::span<const std::uint8_t> a,
                     std::span<const std::uint8_t> b) {
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
  MatchGraph graph;
  std::vector<SpecSignature> sig;
  build_match_graph(mgr, crit, specs, sig, graph);
  return graph;
}

std::vector<std::size_t> osm_sinks(const MatchGraph& dmg) {
  std::vector<std::size_t> rep;
  find_sinks(dmg, rep);
  return rep;
}

std::vector<std::size_t> fmm_osm(Manager& mgr, std::span<const IncSpec> specs) {
  const telemetry::PhaseScope phase(mgr, telemetry::Phase::kMatching);
  return osm_sinks(match_graph(mgr, Criterion::kOsm, specs));
}

CliqueCover clique_cover(const MatchGraph& umg, const PathMatrix& paths,
                         const LevelOptions& opts) {
  CliqueScratch scratch;
  CliqueCover cover;
  cover_cliques(umg, paths, opts, scratch, cover);
  return cover;
}

CliqueCover fmm_tsm(Manager& mgr, std::span<const IncSpec> specs,
                    const PathMatrix& paths, const LevelOptions& opts) {
  const telemetry::PhaseScope phase(mgr, telemetry::Phase::kMatching);
  return clique_cover(match_graph(mgr, Criterion::kTsm, specs), paths, opts);
}

IncSpec merge_clique(Manager& mgr, std::span<const IncSpec> specs,
                     std::span<const std::size_t> members) {
  const telemetry::PhaseScope phase(mgr, telemetry::Phase::kCoverBuild);
  Edge f = kZero;
  Edge c = kZero;
  for (const std::size_t j : members) {
    f = mgr.or_(f, mgr.and_(specs[j].f, specs[j].c));
    c = mgr.or_(c, specs[j].c);
  }
  return IncSpec{f, c};
}

IncSpec substitute_at_level(Manager& mgr, IncSpec spec, std::uint32_t level,
                            const CollectedLevel& collected,
                            std::span<const IncSpec> replacement) {
  BDDMIN_CHECK(replacement.size() == collected.specs.size());
  const telemetry::PhaseScope phase(mgr, telemetry::Phase::kCoverBuild);
  return substitute(mgr, spec, level, collected.boundary, replacement);
}

IncSpec minimize_at_level(Manager& mgr, Criterion crit, std::uint32_t level,
                          const LevelOptions& opts, IncSpec spec,
                          LevelStats* stats) {
  LevelStep step(mgr, crit, opts);
  LevelStats local;
  step.minimize(level, spec, local);
  if (stats) *stats = local;
  return spec;
}

Edge opt_lv(Manager& mgr, Edge f, Edge c, const LevelOptions& opts,
            Criterion crit) {
  if (c == kZero || c == kOne) return f;
  IncSpec spec{f, c};
  LevelStep step(mgr, crit, opts);
  LevelStats stats;
  // Level n-1 would only group constants; stop one short.
  const std::uint32_t n = mgr.num_vars();
  for (std::uint32_t level = 0; level + 1 < n;) {
    const bool changed = step.minimize(level, spec, stats);
    level = changed || opts.only_level_plus_one
                ? level + 1
                : std::min(step.collected().min_boundary_level, n);
  }
  return spec.f;
}

}  // namespace bddmin::minimize
