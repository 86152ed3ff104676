/// \file workloads.hpp
/// \brief Built-in stress workload graphs over the public API surface.
///
/// Seven graphs ship with the harness (docs/STRESS.md describes each):
///
///   core      — single-manager operation soup: build-ops, GC,
///               clear-caches, sifting, pooled reset/reuse, deep audits
///   engine    — batch engine surface: submit-batch, CSV byte-determinism
///               probes, dedup replay, shard-budget invariance sweeps,
///               mid-shard cancellation, timeout storms
///   governor  — effort limits: quota-exhaust aborts, sifting under a node
///               quota, degraded batches, abort -> reset -> reuse cycles
///   telemetry — exact per-manager counter deltas (deterministic) and
///               the audit's counter/unique-table cross-check
///   mixed     — the union of the above, uniform transitions
///   failpoints — fault-injection registry armed and disarmed mid-walk;
///               ops, audits and batches must survive injected OOMs
///   faults    — the PR-1 5-class fault injector wired to an audit hook:
///               running it is EXPECTED to fail (the failure proves the
///               auditors catch the corruption and the triple replays)
///
/// Every state keeps its observations thread-deterministic (see
/// runner.hpp) so the final digest is comparable across runs.
#pragma once

#include <string>
#include <vector>

#include "stress/fsm.hpp"

namespace bddmin::stress {

/// Freshly constructed copies of all built-in workload graphs.
[[nodiscard]] std::vector<StressFsm> builtin_workloads();

/// Names of the built-in graphs, in listing order.
[[nodiscard]] std::vector<std::string> workload_names();

/// The named built-in graph; throws std::out_of_range for unknown names.
[[nodiscard]] StressFsm workload_by_name(const std::string& name);

}  // namespace bddmin::stress
