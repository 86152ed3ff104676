/// \file reach.hpp
/// \brief Breadth-first symbolic reachability with frontier minimization.
///
/// This is the application in which Coudert et al. posed the BDD
/// minimization problem: at each BFS step, any state set S with
/// frontier U <= S <= reached R may be used for the next image, so the
/// traversal hands the incompletely specified function [U, U + R̄] to a
/// minimization hook and uses whatever cover comes back.  The experiment
/// harness plugs in an interceptor here to collect EBM instances.
#pragma once

#include <functional>

#include "bdd/bdd.hpp"
#include "fsm/image.hpp"

namespace bddmin::fsm {

/// Frontier minimizer: given [f, c], return a cover to use as the next
/// image argument.  The hook may trigger garbage collection.
using MinimizeHook = std::function<Edge(Manager&, Edge f, Edge c)>;

struct ReachOptions {
  /// Defaults to constrain, as in SIS's verify_fsm.
  MinimizeHook minimize;
  /// With the functional method, the image computation's top-level
  /// constrain(delta_k, S) calls are also reported to a set `minimize`
  /// hook (their return value is ignored; see ImageConstrainObserver).
  /// This mirrors verify_fsm, where those calls go through the same
  /// constrain entry point the experiments intercept.
  ImageMethod image_method = ImageMethod::kRelational;
  std::size_t max_iterations = 100000;
};

struct ReachResult {
  Bdd reached;          ///< fixed point over the machine's state_vars
  unsigned iterations = 0;
};

/// BFS fixed point from the machine's initial states.  \p next_vars must
/// provide one fresh variable per state bit.
[[nodiscard]] ReachResult reachable_states(Manager& mgr, const SymbolicFsm& machine,
                                           std::span<const std::uint32_t> next_vars,
                                           const ReachOptions& opts = {});

/// Backward BFS fixed point: all states from which \p targets can be
/// reached.  Frontier minimization applies symmetrically; the image
/// method option is ignored (pre-images always use the monolithic
/// relation).
[[nodiscard]] ReachResult backward_reachable_states(
    Manager& mgr, const SymbolicFsm& machine,
    std::span<const std::uint32_t> next_vars, Edge targets,
    const ReachOptions& opts = {});

}  // namespace bddmin::fsm
