#include "harness/intercept.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "analysis/cover_audit.hpp"
#include "bdd/bdd.hpp"
#include "bdd/ops.hpp"
#include "telemetry/counters.hpp"

namespace bddmin::harness {

Interceptor::Interceptor(std::vector<minimize::Heuristic> heuristics,
                         InterceptorOptions opts)
    : heuristics_(std::move(heuristics)), opts_(opts) {}

std::vector<std::string> Interceptor::names() const {
  std::vector<std::string> out;
  out.reserve(heuristics_.size());
  for (const minimize::Heuristic& h : heuristics_) out.push_back(h.name);
  return out;
}

fsm::MinimizeHook Interceptor::hook() {
  return [this](Manager& mgr, Edge f, Edge c) { return process(mgr, f, c); };
}

Edge Interceptor::process(Manager& mgr, Edge f, Edge c) {
  const minimize::IncSpec spec{f, c};
  const minimize::CallFilter filter = minimize::classify_call(mgr, spec);
  if (filter.filtered()) {
    ++filtered_;
    return c == kZero ? f : minimize::constrain(mgr, f, c);
  }
  // The application's f and c must survive the per-heuristic GCs.
  const Bdd f_pin(mgr, f);
  const Bdd c_pin(mgr, c);

  CallRecord record;
  record.f_size = count_nodes(mgr, f);
  record.c_onset = minimize::c_onset_fraction(mgr, spec);
  record.min_size = SIZE_MAX;
  record.outcomes.reserve(heuristics_.size());
  using Clock = std::chrono::steady_clock;
  for (const minimize::Heuristic& h : heuristics_) {
    mgr.garbage_collect();
    const telemetry::CounterSnapshot before = mgr.telemetry();
    const auto start = Clock::now();
    const Edge g = h.run(mgr, f, c);
    const auto stop = Clock::now();
    const telemetry::CounterSnapshot delta = mgr.telemetry() - before;
    if (opts_.audit_level >= analysis::AuditLevel::kCover) {
      // Contract audit with witness diagnostics instead of the bare check.
      analysis::AuditReport cover_report;
      analysis::audit_cover(mgr, f, c, g, h.name, cover_report);
      if (!cover_report.ok()) throw std::logic_error(cover_report.summary());
    } else if (!minimize::is_cover(mgr, g, spec)) {
      throw std::logic_error("heuristic " + h.name + " returned a non-cover");
    }
    if (opts_.audit_level >= analysis::AuditLevel::kStructural) {
      const Bdd g_pin(mgr, g);
      analysis::AuditOptions aopts;
      aopts.level = std::min(opts_.audit_level, analysis::AuditLevel::kCache);
      const analysis::AuditReport report = analysis::audit_manager(mgr, aopts);
      if (!report.ok()) {
        throw std::logic_error("audit after heuristic " + h.name + ":\n" +
                               report.summary());
      }
    }
    HeuristicOutcome outcome;
    outcome.size = count_nodes(mgr, g);
    outcome.seconds = std::chrono::duration<double>(stop - start).count();
    outcome.cache_hits = delta.total_cache_hits();
    outcome.cache_misses = delta.total_cache_misses();
    outcome.and_hits = delta.value(telemetry::Counter::kAndCacheHits);
    outcome.and_misses = delta.value(telemetry::Counter::kAndCacheMisses);
    outcome.xor_hits = delta.value(telemetry::Counter::kXorCacheHits);
    outcome.xor_misses = delta.value(telemetry::Counter::kXorCacheMisses);
    outcome.steps = delta.value(telemetry::Counter::kGovernorSteps);
    record.min_size = std::min(record.min_size, outcome.size);
    record.outcomes.push_back(outcome);
  }
  if (opts_.lower_bound_cubes > 0) {
    mgr.garbage_collect();
    const minimize::LowerBoundResult lb =
        minimize::constrain_lower_bound(mgr, f, c, opts_.lower_bound_cubes);
    record.lower_bound = lb.bound;
    record.lb_cubes = lb.cubes_examined;
  }
  records_.push_back(std::move(record));
  // Hand the application what verify_fsm would use: constrain's cover.
  return minimize::constrain(mgr, f, c);
}

}  // namespace bddmin::harness
