/// \file equiv.hpp
/// \brief Product-machine equivalence checking — our re-implementation of
/// SIS's `verify_fsm -m product` (Coudert/Berthet/Madre; Touati et al.).
///
/// The product of two machines over shared inputs is traversed breadth
/// first; at each step the frontier set is minimized through the
/// MinimizeHook (where the experiment harness intercepts EBM instances),
/// and the newly reached product states are checked to produce equal
/// outputs under every input.
#pragma once

#include <optional>

#include "fsm/reach.hpp"

namespace bddmin::fsm {

struct EquivOptions {
  /// Frontier minimizer; defaults to constrain as in SIS.
  MinimizeHook minimize;
  /// See ReachOptions::image_method.
  ImageMethod image_method = ImageMethod::kRelational;
  std::size_t max_iterations = 100000;
  /// log2 of the computed-cache size of the internally created manager.
  /// Kept moderate because the experiment harness flushes it between
  /// heuristics on every intercepted call.
  unsigned cache_log2 = 15;
};

/// A distinguishing experiment for two inequivalent machines: feed
/// inputs[0..n-2] from reset (both machines step in lock step), then apply
/// inputs[n-1]; the machines' outputs differ on that final input.
struct Counterexample {
  std::vector<std::vector<bool>> inputs;  ///< one valuation per step
};

struct EquivResult {
  bool equivalent = false;
  unsigned iterations = 0;
  /// Number of reached product states (sat count over product state bits).
  double product_states = 0.0;
  /// Present exactly when !equivalent.
  std::optional<Counterexample> counterexample;
};

/// Check equivalence of two machines with the same input/output counts.
/// A fresh manager is created with the layout: inputs on top, then
/// present/next state variables interleaved (A's bits, then B's).
[[nodiscard]] EquivResult check_equivalence(const MachineSpec& a,
                                            const MachineSpec& b,
                                            const EquivOptions& opts = {});

/// The paper's experimental setup: compare a machine against itself.
[[nodiscard]] EquivResult check_self_equivalence(const MachineSpec& a,
                                                 const EquivOptions& opts = {});

/// Replay a counterexample by concrete simulation of both machines from
/// reset; true iff their outputs differ on the final input (i.e. the
/// counterexample is genuine).
[[nodiscard]] bool validate_counterexample(const MachineSpec& a,
                                           const MachineSpec& b,
                                           const Counterexample& cex);

}  // namespace bddmin::fsm
