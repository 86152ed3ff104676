#include "minimize/registry.hpp"

#include <stdexcept>

#include "bdd/ops.hpp"

namespace bddmin::minimize {

std::vector<Heuristic> paper_heuristics(const LevelOptions& level_opts) {
  std::vector<Heuristic> set;
  set.push_back({"const", [](Manager& m, Edge f, Edge c) { return constrain(m, f, c); }});
  set.push_back({"restr", [](Manager& m, Edge f, Edge c) { return restrict_dc(m, f, c); }});
  set.push_back({"osm_td", [](Manager& m, Edge f, Edge c) { return osm_td(m, f, c); }});
  set.push_back({"osm_nv", [](Manager& m, Edge f, Edge c) { return osm_nv(m, f, c); }});
  set.push_back({"osm_cp", [](Manager& m, Edge f, Edge c) { return osm_cp(m, f, c); }});
  set.push_back({"osm_bt", [](Manager& m, Edge f, Edge c) { return osm_bt(m, f, c); }});
  set.push_back({"tsm_td", [](Manager& m, Edge f, Edge c) { return tsm_td(m, f, c); }});
  set.push_back({"tsm_cp", [](Manager& m, Edge f, Edge c) { return tsm_cp(m, f, c); }});
  set.push_back({"opt_lv", [level_opts](Manager& m, Edge f, Edge c) {
                   return opt_lv(m, f, c, level_opts);
                 }});
  return set;
}

std::vector<Heuristic> all_heuristics(const LevelOptions& level_opts) {
  std::vector<Heuristic> set = paper_heuristics(level_opts);
  set.push_back({"f_orig", [](Manager&, Edge f, Edge) { return f; }});
  set.push_back({"f_and_c", [](Manager& m, Edge f, Edge c) { return m.and_(f, c); }});
  set.push_back({"f_or_nc", [](Manager& m, Edge f, Edge c) { return m.or_(f, !c); }});
  return set;
}

Heuristic scheduler_heuristic(const ScheduleOptions& opts) {
  return {"sched", [opts](Manager& m, Edge f, Edge c) {
            return scheduled_minimize(m, opts, f, c);
          }};
}

Heuristic mixed_heuristic(const MixedOptions& opts) {
  return {"mixed", [opts](Manager& m, Edge f, Edge c) {
            return mixed_td(m, opts, f, c);
          }};
}

Heuristic with_fallback(Heuristic inner) {
  Heuristic wrapped;
  wrapped.name = inner.name + "+fb";
  wrapped.run = [inner = std::move(inner)](Manager& m, Edge f, Edge c) {
    const Edge g = inner.run(m, f, c);
    // Compare |g| with |f|; keep the smaller.  The comparison makes the
    // combined algorithm sensitive to f's don't-care values, which is
    // exactly how it escapes Proposition 6.
    return count_nodes(m, g) <= count_nodes(m, f) ? g : f;
  };
  return wrapped;
}

Edge run_budgeted(Manager& mgr, const Heuristic& h,
                  const ResourceLimits& limits, Edge f, Edge c) {
  const ResourceLimits saved = mgr.governor().limits();
  mgr.governor().set_limits(limits);
  try {
    const Edge g = h.run(mgr, f, c);
    mgr.governor().set_limits(saved);
    return g;
  } catch (...) {
    mgr.governor().set_limits(saved);
    mgr.garbage_collect();  // partial results are dead nodes; reclaim now
    throw;
  }
}

const Heuristic& heuristic_by_name(const std::vector<Heuristic>& set,
                                   const std::string& name) {
  for (const Heuristic& h : set) {
    if (h.name == name) return h;
  }
  throw std::out_of_range("unknown heuristic: " + name);
}

}  // namespace bddmin::minimize
