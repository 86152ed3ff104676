/// \file thread_annotations.hpp
/// \brief Clang `-Wthread-safety` capability annotations for bddmin.
///
/// Thin macro wrappers over Clang's thread-safety attributes
/// (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html), expanding to
/// nothing on compilers without the capability analysis (GCC, MSVC).  The
/// annotated contracts are the ones the upcoming shared concurrent manager
/// refactor depends on:
///
///  * every mutex-guarded field declares its mutex with
///    `BDDMIN_GUARDED_BY(mu)` — the work-stealing deques and the engine's
///    result sink;
///  * functions that must (or must not) hold a mutex say so with
///    `BDDMIN_REQUIRES` / `BDDMIN_EXCLUDES`;
///  * `bdd::Manager` is declared a `BDDMIN_CAPABILITY` — a single-owner
///    resource.  Nothing ever locks it: the annotation exists so future
///    cross-thread sharing of one Manager has to be written as an explicit
///    capability transfer instead of compiling silently.
///
/// Build integration: Clang builds add `-Wthread-safety` (and
/// `-Werror=thread-safety` under BDDMIN_WERROR); see the top-level
/// CMakeLists.txt.  The repo-specific rules the generic analysis cannot
/// express are enforced by tools/bddmin_lint.py (see docs/CONCURRENCY.md).
#pragma once

#if defined(__clang__) && (!defined(SWIG))
#define BDDMIN_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define BDDMIN_THREAD_ANNOTATION(x)  // no-op on non-Clang compilers
#endif

/// A type whose instances can be held/owned: mutexes, and single-owner
/// resources like Manager.  \p x names the capability in diagnostics.
#define BDDMIN_CAPABILITY(x) BDDMIN_THREAD_ANNOTATION(capability(x))

/// RAII types that acquire a capability in their constructor and release
/// it in their destructor (std::lock_guard-alikes).
#define BDDMIN_SCOPED_CAPABILITY BDDMIN_THREAD_ANNOTATION(scoped_lockable)

/// Data member readable/writable only while holding \p x.
#define BDDMIN_GUARDED_BY(x) BDDMIN_THREAD_ANNOTATION(guarded_by(x))

/// Pointer member whose *pointee* is guarded by \p x.
#define BDDMIN_PT_GUARDED_BY(x) BDDMIN_THREAD_ANNOTATION(pt_guarded_by(x))

/// Lock-ordering edges: this capability must be acquired before/after the
/// listed ones.
#define BDDMIN_ACQUIRED_BEFORE(...) \
  BDDMIN_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define BDDMIN_ACQUIRED_AFTER(...) \
  BDDMIN_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

/// The caller must hold the listed capabilities (exclusively / shared).
#define BDDMIN_REQUIRES(...) \
  BDDMIN_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define BDDMIN_REQUIRES_SHARED(...) \
  BDDMIN_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))

/// The function acquires/releases the listed capabilities itself.
#define BDDMIN_ACQUIRE(...) \
  BDDMIN_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define BDDMIN_ACQUIRE_SHARED(...) \
  BDDMIN_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define BDDMIN_RELEASE(...) \
  BDDMIN_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define BDDMIN_RELEASE_SHARED(...) \
  BDDMIN_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))

/// The function tries to acquire the capability; \p ... is the success
/// return value followed by the capability.
#define BDDMIN_TRY_ACQUIRE(...) \
  BDDMIN_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/// The caller must NOT hold the listed capabilities (deadlock guard for
/// functions that acquire them internally).
#define BDDMIN_EXCLUDES(...) BDDMIN_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Runtime assertion that the capability is held (trusted by the analysis).
#define BDDMIN_ASSERT_CAPABILITY(x) \
  BDDMIN_THREAD_ANNOTATION(assert_capability(x))

/// The function returns a reference to the named capability.
#define BDDMIN_RETURN_CAPABILITY(x) BDDMIN_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch for functions whose synchronization the analysis cannot
/// follow (e.g. publication via release/acquire atomics).  Every use must
/// carry a comment explaining the actual protocol.
#define BDDMIN_NO_THREAD_SAFETY_ANALYSIS \
  BDDMIN_THREAD_ANNOTATION(no_thread_safety_analysis)
