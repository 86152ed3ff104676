#include "minimize/sibling.hpp"

#include "telemetry/profile.hpp"

namespace bddmin::minimize {
namespace {

/// The one memoized sibling traversal.  Its memo, the Manager's lossless
/// pair table, restarts per call: the paper flushes caches between
/// heuristics so measurements stay independent.
struct Traversal {
  Manager& mgr;
  const MixedOptions& opts;  ///< criterion per level, complement, no-new-vars
  std::uint32_t lo_level;    ///< matching window [lo_level, hi_level]
  std::uint32_t hi_level;
  bool cover;  ///< leaves spend their don't cares: [f, c] becomes [f, 1]
  PairScratch& memo;

  IncSpec leaf(IncSpec spec) const {
    return cover ? IncSpec{spec.f, kOne} : spec;
  }

  /// Figure 2's is_match, attempted only at levels inside the window.
  std::optional<IncSpec> match(std::uint32_t level, bool complement_else,
                               IncSpec t, IncSpec e) {
    if (level < lo_level || (complement_else && !opts.match_complement)) {
      return std::nullopt;
    }
    const Criterion crit = level < opts.switch_level ? opts.upper : opts.lower;
    return sibling_match(mgr, crit, complement_else, t, e);
  }

  IncSpec run(IncSpec spec) {
    if (spec.c == kZero || spec.c == kOne || Manager::is_const(spec.f)) {
      return leaf(spec);
    }
    const std::uint32_t top = mgr.top_var(spec.f, spec.c);
    const std::uint32_t level = mgr.level_of_var(top);
    if (level > hi_level) return leaf(spec);  // entirely below the window
    const std::uint64_t key = pair_key(spec.f, spec.c);
    if (const std::uint64_t* hit = memo.find(key)) return unpack_pair(*hit);
    mgr.governor().charge_step();
    const auto [f_t, f_e] = mgr.branches(spec.f, top);
    const auto [c_t, c_e] = mgr.branches(spec.c, top);
    IncSpec ret;
    if (opts.no_new_vars && mgr.level_of(spec.f) > mgr.level_of(spec.c)) {
      // f is independent of c's top variable (all of f's support lies
      // below it): existentially drop that variable from the care set
      // rather than letting a match introduce it into the result.
      ret = run({spec.f, mgr.or_(c_t, c_e)});
    } else if (const auto m = match(level, false, {f_t, c_t}, {f_e, c_e})) {
      // Both siblings replaced by their common i-cover: parent deleted.
      ret = run(*m);
    } else if (const auto mc = match(level, true, {f_t, c_t}, {f_e, c_e})) {
      // then = g, else = !g for a single recursion g.
      const IncSpec g = run(*mc);
      ret = IncSpec{mgr.make_node(top, g.f, !g.f), g.c};
    } else {
      const IncSpec t = run({f_t, c_t});
      const IncSpec e = run({f_e, c_e});
      ret = IncSpec{mgr.make_node(top, t.f, e.f), mgr.make_node(top, t.c, e.c)};
    }
    memo.insert(key, pair_key(ret.f, ret.c));
    return ret;
  }
};

IncSpec traverse(Manager& mgr, const MixedOptions& opts, std::uint32_t lo_level,
                 std::uint32_t hi_level, bool cover, IncSpec spec) {
  // The traversal itself is result construction; the matching criteria it
  // calls re-scope themselves to kMatching.
  const telemetry::PhaseScope phase(mgr, telemetry::Phase::kCoverBuild);
  const PairScratch::Walk walk = mgr.pair_scratch().begin();
  Traversal ctx{mgr, opts, lo_level, hi_level, cover, mgr.pair_scratch()};
  return ctx.run(spec);
}

}  // namespace

Edge generic_td(Manager& mgr, const SiblingOptions& opts, Edge f, Edge c) {
  const MixedOptions mixed{.upper = opts.criterion, .lower = opts.criterion,
                           .match_complement = opts.match_complement,
                           .no_new_vars = opts.no_new_vars};
  return mixed_td(mgr, mixed, f, c);
}

Edge constrain(Manager& mgr, Edge f, Edge c) {
  return generic_td(mgr, {Criterion::kOsdm, false, false}, f, c);
}
Edge restrict_dc(Manager& mgr, Edge f, Edge c) {
  return generic_td(mgr, {Criterion::kOsdm, false, true}, f, c);
}
Edge osm_td(Manager& mgr, Edge f, Edge c) {
  return generic_td(mgr, {Criterion::kOsm, false, false}, f, c);
}
Edge osm_nv(Manager& mgr, Edge f, Edge c) {
  return generic_td(mgr, {Criterion::kOsm, false, true}, f, c);
}
Edge osm_cp(Manager& mgr, Edge f, Edge c) {
  return generic_td(mgr, {Criterion::kOsm, true, false}, f, c);
}
Edge osm_bt(Manager& mgr, Edge f, Edge c) {
  return generic_td(mgr, {Criterion::kOsm, true, true}, f, c);
}
Edge tsm_td(Manager& mgr, Edge f, Edge c) {
  return generic_td(mgr, {Criterion::kTsm, false, false}, f, c);
}
Edge tsm_cp(Manager& mgr, Edge f, Edge c) {
  return generic_td(mgr, {Criterion::kTsm, true, false}, f, c);
}

Edge mixed_td(Manager& mgr, const MixedOptions& opts, Edge f, Edge c) {
  if (c == kZero || c == kOne) return f;
  return traverse(mgr, opts, 0, kConstVar, /*cover=*/true, {f, c}).f;
}

IncSpec sibling_window_pass(Manager& mgr, Criterion crit, std::uint32_t lo_level,
                            std::uint32_t hi_level, IncSpec spec) {
  const MixedOptions opts{.upper = crit, .lower = crit,
                          .match_complement = false, .no_new_vars = false};
  return traverse(mgr, opts, lo_level, hi_level, /*cover=*/false, spec);
}

}  // namespace bddmin::minimize
