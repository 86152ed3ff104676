/// Negative compile test: a discarded PhaseScope temporary switches the
/// phase and switches straight back, attributing nothing.  PhaseScope's
/// constructor is [[nodiscard]], so under -Werror the compiler must reject
/// the statement below.  This file is built on demand by the
/// `compile_fail_discarded_phase_scope` ctest entry and must NOT compile.
#include "bdd/manager.hpp"
#include "telemetry/profile.hpp"

int main() {
  bddmin::Manager mgr(2);
  // VIOLATION: the temporary destructs before the next statement.
  bddmin::telemetry::PhaseScope(mgr, bddmin::telemetry::Phase::kMatching);
  // Compliant: a named local holds the phase until the end of the scope.
  const bddmin::telemetry::PhaseScope named(
      mgr, bddmin::telemetry::Phase::kValidation);
  (void)named;
  return 0;
}
