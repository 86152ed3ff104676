#include "harness/intercept.hpp"

#include <algorithm>
#include <stdexcept>

#include "analysis/cover_audit.hpp"
#include "bdd/ops.hpp"

namespace bddmin::harness {
namespace {

using Clock = std::chrono::steady_clock;

/// One heuristic run's budget: the quotas, and whatever remains of the
/// call's deadline.
[[nodiscard]] ResourceLimits run_limits(const CallOptions& opts) {
  ResourceLimits limits;
  limits.hard_node_limit = opts.node_limit;
  limits.step_limit = opts.step_limit;
  if (opts.deadline) {
    const double remaining =
        std::chrono::duration<double>(*opts.deadline - Clock::now()).count();
    limits.deadline_seconds = std::max(remaining, 1e-9);
  }
  return limits;
}

}  // namespace

CallResult evaluate_call(Manager& mgr, const minimize::IncSpec& spec,
                         std::span<const minimize::Heuristic> heuristics,
                         const CallOptions& opts, std::vector<Bdd>* covers) {
  // The call's f and c must survive the per-heuristic flushes.
  const Bdd f_pin(mgr, spec.f);
  const Bdd c_pin(mgr, spec.c);
  if (covers != nullptr) covers->reserve(covers->size() + heuristics.size());

  CallResult out;
  out.f_size = count_nodes(mgr, spec.f);
  out.c_size = count_nodes(mgr, spec.c);
  out.c_onset = minimize::c_onset_fraction(mgr, spec);
  out.results.resize(heuristics.size());
  out.min_size = SIZE_MAX;
  // The degradation target when a heuristic exhausts its budget: the
  // smallest kept cover so far, starting at the trivial cover f
  // (f·c <= f <= f + c̄ by construction).
  Edge best = spec.f;
  std::size_t best_size = out.f_size;
  for (std::size_t h = 0; h < heuristics.size(); ++h) {
    const minimize::Heuristic& heuristic = heuristics[h];
    HeuristicResult& result = out.results[h];
    if (opts.deadline && Clock::now() >= *opts.deadline) {
      // Preserve a resource-limit verdict from an earlier heuristic.
      if (out.status == CallStatus::kOk) out.status = CallStatus::kTimeout;
      break;
    }
    // `best` is only read back on the exception edge; pin it so the abort
    // handler sees the stored value (see pin_for_unwind in governor.hpp).
    pin_for_unwind(best);
    if (opts.flush) mgr.garbage_collect();
    Edge g{};
    {
      // The manager's per-phase work from here through validation goes
      // into the result (cover-build by default; matching and validation
      // scopes switch the phase), also for a run that fails.
      const telemetry::ProfileCollector collect(mgr, &result.phases);
      const auto start = Clock::now();
      try {
        g = minimize::run_budgeted(mgr, heuristic, run_limits(opts), spec.f,
                                   spec.c);
      } catch (const ResourceExhausted& e) {
        out.status = CallStatus::kResourceLimit;
        if (!out.detail.empty()) out.detail += "; ";
        out.detail += heuristic.name + ": " + limit_class_name(e.limit_class());
        g = best;
        if (opts.fallback != nullptr && opts.fallback->name != heuristic.name) {
          try {
            g = minimize::run_budgeted(mgr, *opts.fallback, run_limits(opts),
                                       spec.f, spec.c);
            out.detail += " (retried on " + opts.fallback->name + ")";
          } catch (const ResourceExhausted& e2) {
            out.detail += " (retry on " + opts.fallback->name + ": " +
                          limit_class_name(e2.limit_class()) + ")";
            g = best;
          } catch (const std::exception& e2) {
            out.status = CallStatus::kError;
            out.error = opts.fallback->name + ": " + e2.what();
            break;
          }
        }
      } catch (const std::exception& e) {
        out.status = CallStatus::kError;
        out.error = heuristic.name + ": " + e.what();
        break;
      }
      result.seconds = std::chrono::duration<double>(Clock::now() - start).count();
      if (covers != nullptr) covers->emplace_back(mgr, g);
      const telemetry::PhaseScope validating(mgr, telemetry::Phase::kValidation);
      if (opts.audit_level >= analysis::AuditLevel::kCover) {
        // Contract audit with witness diagnostics instead of the bare check.
        analysis::AuditReport report;
        analysis::audit_cover(mgr, spec.f, spec.c, g, heuristic.name, report);
        if (!report.ok()) {
          out.status = CallStatus::kError;
          out.error = report.findings.front().message;
          out.audit_findings += report.findings.size();
          break;
        }
      } else if (!minimize::is_cover(mgr, g, spec)) {
        out.status = CallStatus::kError;
        out.error = heuristic.name + " returned a non-cover";
        break;
      }
    }
    if (opts.audit_level >= analysis::AuditLevel::kStructural) {
      analysis::AuditOptions aopts;
      aopts.level = std::min(opts.audit_level, analysis::AuditLevel::kCache);
      const analysis::AuditReport report = analysis::audit_manager(mgr, aopts);
      if (!report.ok()) {
        out.status = CallStatus::kError;
        out.audit_findings += report.findings.size() + report.suppressed;
        out.error = "audit after " + heuristic.name + ": " +
                    report.findings.front().message;
        break;
      }
    }
    result.size = count_nodes(mgr, g);
    out.min_size = std::min(out.min_size, result.size);
    if (covers != nullptr && result.size < best_size) {
      best = g;
      best_size = result.size;
    }
  }
  if (out.min_size == SIZE_MAX) out.min_size = 0;
  if (out.status == CallStatus::kOk && opts.lower_bound_cubes > 0) {
    // Unkept covers are garbage by now; reclaim them, so the bound starts
    // from the same table a next heuristic would.
    if (covers == nullptr && opts.flush) mgr.garbage_collect();
    out.lower_bound = minimize::constrain_lower_bound(mgr, spec.f, spec.c,
                                                      opts.lower_bound_cubes)
                          .bound;
  }
  return out;
}

Interceptor::Interceptor(std::vector<minimize::Heuristic> heuristics,
                         InterceptorOptions opts)
    : heuristics_(std::move(heuristics)) {
  call_.audit_level = opts.audit_level;
  call_.lower_bound_cubes = opts.lower_bound_cubes;
}

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
  CallResult result = evaluate_call(mgr, spec, heuristics_, call_);
  if (result.status != CallStatus::kOk) throw std::logic_error(result.error);
  CallRecord& record = records_.emplace_back();
  record.f_size = result.f_size;
  record.c_onset = result.c_onset;
  record.outcomes = std::move(result.results);
  record.min_size = result.min_size;
  record.lower_bound = result.lower_bound;
  // Hand the application what verify_fsm would use: constrain's cover.
  return minimize::constrain(mgr, f, c);
}

}  // namespace bddmin::harness
