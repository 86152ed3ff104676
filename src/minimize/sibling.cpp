#include "minimize/sibling.hpp"

#include <unordered_map>

#include "analysis/check.hpp"
#include "telemetry/profile.hpp"

namespace bddmin::minimize {
namespace {

/// Memo key for a (f, c) pair within one heuristic invocation.  Per-call
/// maps mirror the paper's methodology of flushing caches between
/// heuristics so measurements stay independent.
using PairMemo = std::unordered_map<std::uint64_t, Edge>;

constexpr std::uint64_t pair_key(Edge f, Edge c) noexcept {
  return (std::uint64_t{f.bits} << 32) | c.bits;
}

struct TopDown {
  Manager& mgr;
  const SiblingOptions& opts;
  PairMemo memo;

  Edge run(Edge f, Edge c) {
    BDDMIN_DCHECK(c != kZero);
    if (c == kOne || Manager::is_const(f)) return f;
    if (const auto it = memo.find(pair_key(f, c)); it != memo.end()) {
      return it->second;
    }
    mgr.governor().charge_step();
    const std::uint32_t top = mgr.top_var(f, c);
    const auto [f_t, f_e] = mgr.branches(f, top);
    const auto [c_t, c_e] = mgr.branches(c, top);

    Edge ret;
    if (opts.no_new_vars && mgr.level_of(f) > mgr.level_of(c)) {
      // f is independent of c's top variable (all of f's support lies
      // below it): existentially drop that variable from the care set
      // rather than letting a match introduce it into the result.
      ret = run(f, mgr.or_(c_t, c_e));
    } else if (const auto m = sibling_match(mgr, opts.criterion, false,
                                            {f_t, c_t}, {f_e, c_e})) {
      // Both siblings replaced by their common i-cover: parent deleted.
      ret = run(m->f, m->c);
    } else if (opts.match_complement) {
      if (const auto mc = sibling_match(mgr, opts.criterion, true, {f_t, c_t},
                                        {f_e, c_e})) {
        // then = g, else = !g for a single recursion g.
        const Edge temp = run(mc->f, mc->c);
        ret = mgr.make_node(top, temp, !temp);
      } else {
        ret = split(top, f_t, c_t, f_e, c_e);
      }
    } else {
      ret = split(top, f_t, c_t, f_e, c_e);
    }
    memo.emplace(pair_key(f, c), ret);
    return ret;
  }

  Edge split(std::uint32_t top, Edge f_t, Edge c_t, Edge f_e, Edge c_e) {
    // No match possible, so neither child's care set is 0 (a 0 care set
    // matches under every criterion).
    const Edge t = run(f_t, c_t);
    const Edge e = run(f_e, c_e);
    return mgr.make_node(top, t, e);
  }
};

}  // namespace

Edge generic_td(Manager& mgr, const SiblingOptions& opts, Edge f, Edge c) {
  if (c == kZero) return f;  // no care points: any function covers; keep f
  // The traversal itself is result construction; the matching criteria it
  // calls re-scope themselves to kMatching.
  const telemetry::PhaseScope phase(telemetry::Phase::kCoverBuild);
  TopDown ctx{mgr, opts, {}};
  return ctx.run(f, c);
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

namespace {

/// Like TopDown, but the matching criterion is a function of the level.
struct MixedTopDown {
  Manager& mgr;
  const MixedOptions& opts;
  PairMemo memo;

  Criterion criterion_at(std::uint32_t level) const {
    return level < opts.switch_level ? opts.upper : opts.lower;
  }

  Edge run(Edge f, Edge c) {
    BDDMIN_DCHECK(c != kZero);
    if (c == kOne || Manager::is_const(f)) return f;
    if (const auto it = memo.find(pair_key(f, c)); it != memo.end()) {
      return it->second;
    }
    mgr.governor().charge_step();
    const std::uint32_t top = mgr.top_var(f, c);
    const Criterion crit = criterion_at(mgr.level_of_var(top));
    const auto [f_t, f_e] = mgr.branches(f, top);
    const auto [c_t, c_e] = mgr.branches(c, top);
    Edge ret;
    if (opts.no_new_vars && mgr.level_of(f) > mgr.level_of(c)) {
      ret = run(f, mgr.or_(c_t, c_e));
    } else if (const auto m =
                   sibling_match(mgr, crit, false, {f_t, c_t}, {f_e, c_e})) {
      ret = run(m->f, m->c);
    } else {
      std::optional<IncSpec> mc;
      if (opts.match_complement) {
        mc = sibling_match(mgr, crit, true, {f_t, c_t}, {f_e, c_e});
      }
      if (mc) {
        const Edge temp = run(mc->f, mc->c);
        ret = mgr.make_node(top, temp, !temp);
      } else {
        const Edge t = run(f_t, c_t);
        const Edge e = run(f_e, c_e);
        ret = mgr.make_node(top, t, e);
      }
    }
    memo.emplace(pair_key(f, c), ret);
    return ret;
  }
};

}  // namespace

Edge mixed_td(Manager& mgr, const MixedOptions& opts, Edge f, Edge c) {
  if (c == kZero || c == kOne) return f;
  const telemetry::PhaseScope phase(telemetry::Phase::kCoverBuild);
  MixedTopDown ctx{mgr, opts, {}};
  return ctx.run(f, c);
}

namespace {

struct WindowPass {
  Manager& mgr;
  Criterion crit;
  std::uint32_t lo_level;
  std::uint32_t hi_level;
  std::unordered_map<std::uint64_t, IncSpec> memo;

  IncSpec run(IncSpec spec) {
    if (spec.c == kZero || spec.c == kOne || Manager::is_const(spec.f)) {
      return spec;
    }
    const std::uint32_t top = mgr.top_var(spec.f, spec.c);
    const std::uint32_t top_level = mgr.level_of_var(top);
    if (top_level > hi_level) return spec;  // entirely below the window
    if (const auto it = memo.find(pair_key(spec.f, spec.c)); it != memo.end()) {
      return it->second;
    }
    mgr.governor().charge_step();
    const auto [f_t, f_e] = mgr.branches(spec.f, top);
    const auto [c_t, c_e] = mgr.branches(spec.c, top);
    IncSpec ret;
    std::optional<IncSpec> m;
    if (top_level >= lo_level) {
      m = sibling_match(mgr, crit, false, {f_t, c_t}, {f_e, c_e});
    }
    if (m) {
      ret = run(*m);  // parent deleted; keep matching inside the window
    } else {
      const IncSpec t = run({f_t, c_t});
      const IncSpec e = run({f_e, c_e});
      ret = IncSpec{mgr.make_node(top, t.f, e.f), mgr.make_node(top, t.c, e.c)};
    }
    memo.emplace(pair_key(spec.f, spec.c), ret);
    return ret;
  }
};

}  // namespace

IncSpec sibling_window_pass(Manager& mgr, Criterion crit, std::uint32_t lo_level,
                            std::uint32_t hi_level, IncSpec spec) {
  const telemetry::PhaseScope phase(telemetry::Phase::kCoverBuild);
  WindowPass ctx{mgr, crit, lo_level, hi_level, {}};
  return ctx.run(spec);
}

}  // namespace bddmin::minimize
