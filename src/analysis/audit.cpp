#include "analysis/audit.hpp"

#include "harness/env.hpp"

namespace bddmin::analysis {

AuditLevel audit_level_from_env() {
  // Malformed values are a hard error (harness::EnvError): a fleet run
  // with a typo'd audit level must not silently audit nothing.
  const std::uint64_t value = harness::env_u64("BDDMIN_AUDIT_LEVEL", 0);
  if (value == 0) return AuditLevel::kOff;
  if (value >= 4) return AuditLevel::kCover;
  return static_cast<AuditLevel>(value);
}

const char* category_name(Category c) noexcept {
  switch (c) {
    case Category::kStructure: return "structure";
    case Category::kUniqueness: return "uniqueness";
    case Category::kChain: return "chain";
    case Category::kFreeList: return "free-list";
    case Category::kAccounting: return "accounting";
    case Category::kRefCount: return "ref-count";
    case Category::kReachability: return "reachability";
    case Category::kCache: return "cache";
    case Category::kCover: return "cover";
  }
  return "unknown";
}

bool AuditReport::has(Category c) const noexcept {
  for (const Finding& f : findings) {
    if (f.category == c) return true;
  }
  return false;
}

void AuditReport::add(Category c, std::string message) {
  if (findings.size() >= max_findings) {
    ++suppressed;
    return;
  }
  findings.push_back({c, std::move(message)});
}

std::string AuditReport::summary() const {
  std::string out;
  if (ok()) {
    out += "audit: clean\n";
  } else {
    out += "audit: " + std::to_string(findings.size() + suppressed) +
           " finding(s)\n";
    for (const Finding& f : findings) {
      out += "  [";
      out += category_name(f.category);
      out += "] ";
      out += f.message;
      out += "\n";
    }
    if (suppressed > 0) {
      out += "  ... " + std::to_string(suppressed) + " more suppressed\n";
    }
  }
  out += "  coverage: " + std::to_string(nodes_checked) + " nodes, " +
         std::to_string(chain_entries) + " chain entries, " +
         std::to_string(refs_recomputed) + " refs recomputed, " +
         std::to_string(cache_entries_checked) + " cache entries (" +
         std::to_string(cache_replays) + " replayed), " +
         std::to_string(covers_checked) + " covers\n";
  return out;
}

AuditReport audit_manager(Manager& mgr, const AuditOptions& opts) {
  AuditReport report;
  report.max_findings = opts.max_findings;
  if (opts.level >= AuditLevel::kStructural) audit_structure(mgr, report);
  if (opts.level >= AuditLevel::kRefcount) {
    audit_refcounts(mgr, opts.roots, opts.exact_roots, report);
  }
  if (opts.level >= AuditLevel::kCache) {
    audit_cache(mgr, report);
  }
  return report;
}

AuditReport audit_manager(const Manager& mgr, const AuditOptions& opts) {
  AuditReport report;
  report.max_findings = opts.max_findings;
  if (opts.level >= AuditLevel::kStructural) audit_structure(mgr, report);
  if (opts.level >= AuditLevel::kRefcount) {
    audit_refcounts(mgr, opts.roots, opts.exact_roots, report);
  }
  return report;
}

}  // namespace bddmin::analysis
