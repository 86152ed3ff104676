// Lint fixture (never compiled): seeds R6 — a PhaseScope or mutex lock
// held across a cross-thread wait inside stress-harness code.  The path
// contains "src/stress/" so the rule applies here and nowhere else in the
// fixture corpus.  Expected findings are asserted line-exactly by
// tests/test_lint.cpp.
#include <mutex>
#include <thread>

namespace bddmin::stress {

void lock_across_join(std::thread& helper, std::mutex& mu) {
  std::lock_guard<std::mutex> guard(mu);
  // VIOLATION R6 (line 14): the lock is still held while joining.
  helper.join();
}

void scope_across_wait(std::thread& helper) {
  telemetry::PhaseScope phase(telemetry::Phase::kValidation);
  // VIOLATION R6 (line 20): the phase scope outlives the join.
  helper.join();
}

void nested_lock_released(std::thread& helper, std::mutex& mu) {
  {
    std::lock_guard<std::mutex> guard(mu);  // compliant: block closes first
    (void)guard;
  }
  helper.join();
}

void explicit_unlock(std::thread& helper, std::mutex& mu) {
  std::unique_lock<std::mutex> lk(mu);
  lk.unlock();  // compliant: released before the wait
  helper.join();
}

void no_wait_at_all(std::mutex& mu) {
  std::lock_guard<std::mutex> guard(mu);  // compliant: nothing blocks
  (void)guard;
}

}  // namespace bddmin::stress
