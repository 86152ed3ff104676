// Lint fixture (never compiled): seeds R3 (raw assert) and R4 (edge used
// across a collection without pinning).  Expected findings are asserted
// line-exactly by tests/test_lint.cpp.  A discarded PhaseScope temporary
// is a compiler error instead (tests/compile_fail/discarded_phase_scope.cpp).
#include <cassert>

namespace bddmin {

struct Edge {};

struct Mgr {
  Edge and_(Edge a, Edge b);
  void garbage_collect();
  void ref(Edge e);
  Edge var_edge(unsigned v);
};

void use(Edge e);

void raw_assert(int x) {
  // VIOLATION R3 (line 22): raw assert instead of BDDMIN_CHECK/DCHECK.
  assert(x > 0);
  static_assert(sizeof(int) >= 4);  // compliant: static_assert is fine
}

void unpinned_edge(Mgr& mgr) {
  Edge f = mgr.and_(mgr.var_edge(0), mgr.var_edge(1));
  mgr.garbage_collect();
  // VIOLATION R4 (line 30): f may dangle — it was never pinned.
  use(f);
}

void pinned_edge(Mgr& mgr) {
  Edge f = mgr.and_(mgr.var_edge(0), mgr.var_edge(1));
  mgr.ref(f);  // compliant: explicit reference survives the collection
  mgr.garbage_collect();
  use(f);
}

void unpinned_variable(Mgr& mgr) {
  Edge x = mgr.var_edge(2);
  mgr.garbage_collect();
  // VIOLATION R4 (line 44): a variable node is not immortal; x may dangle.
  use(x);
}

}  // namespace bddmin
