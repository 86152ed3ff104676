#include "fsm/reach.hpp"

#include <stdexcept>

#include "minimize/sibling.hpp"

namespace bddmin::fsm {

ReachResult reachable_states(Manager& mgr, const SymbolicFsm& machine,
                             std::span<const std::uint32_t> next_vars,
                             const ReachOptions& opts) {
  const MinimizeHook minimize =
      opts.minimize ? opts.minimize : [](Manager& m, Edge f, Edge c) {
        return minimize::constrain(m, f, c);
      };
  ImageConstrainObserver observer;
  if (opts.minimize && opts.image_method == ImageMethod::kFunctional) {
    observer = [&opts](Manager& m, Edge f, Edge c) {
      (void)opts.minimize(m, f, c);
    };
  }
  ImageComputer imager(mgr, machine, next_vars, opts.image_method, observer);
  Bdd reached(mgr, machine.initial);
  Bdd frontier = reached;
  ReachResult result;
  while (!frontier.is_zero()) {
    if (++result.iterations > opts.max_iterations) {
      throw std::runtime_error("reachability: iteration limit exceeded");
    }
    // Coudert's choice: f = U (frontier), c = U + R̄ — re-exploring
    // already-reached states is harmless, exploring unreached ones is not.
    const Bdd care = frontier | !reached;
    const Bdd state_set(
        mgr, minimize(mgr, frontier.edge(), care.edge()));
    const Bdd img(mgr, imager.image(state_set.edge()));
    frontier = img - reached;
    reached |= img;
  }
  result.reached = std::move(reached);
  return result;
}

ReachResult backward_reachable_states(Manager& mgr, const SymbolicFsm& machine,
                                      std::span<const std::uint32_t> next_vars,
                                      Edge targets, const ReachOptions& opts) {
  const MinimizeHook minimize =
      opts.minimize ? opts.minimize : [](Manager& m, Edge f, Edge c) {
        return minimize::constrain(m, f, c);
      };
  ImageComputer imager(mgr, machine, next_vars, ImageMethod::kRelational);
  Bdd reached(mgr, targets);
  Bdd frontier = reached;
  ReachResult result;
  while (!frontier.is_zero()) {
    if (++result.iterations > opts.max_iterations) {
      throw std::runtime_error("backward reachability: iteration limit");
    }
    const Bdd care = frontier | !reached;
    const Bdd state_set(mgr, minimize(mgr, frontier.edge(), care.edge()));
    const Bdd pre(mgr, imager.preimage(state_set.edge()));
    frontier = pre - reached;
    reached |= pre;
  }
  result.reached = std::move(reached);
  return result;
}

}  // namespace bddmin::fsm
