#include "fsm/equiv.hpp"

#include <algorithm>
#include <stdexcept>

#include "analysis/check.hpp"
#include "bdd/cube.hpp"
#include "bdd/ops.hpp"
#include "minimize/sibling.hpp"

namespace bddmin::fsm {
namespace {

/// Values of \p vars in some satisfying assignment of f (f != 0); vars
/// absent from the chosen cube read as false.
std::vector<bool> pick_assignment(Manager& mgr, Edge f,
                                  std::span<const std::uint32_t> vars) {
  BDDMIN_CHECK(f != kZero);
  CubeVec chosen;
  for_each_cube(mgr, f, mgr.num_vars(), 1, [&](const CubeVec& cube) {
    chosen = cube;
    return false;
  });
  std::vector<bool> out(vars.size(), false);
  for (std::size_t i = 0; i < vars.size(); ++i) out[i] = chosen[vars[i]] == 1;
  return out;
}

Edge assignment_cube(Manager& mgr, std::span<const std::uint32_t> vars,
                     const std::vector<bool>& bits) {
  Edge cube = kOne;
  for (std::size_t i = vars.size(); i-- > 0;) {
    cube = mgr.and_(cube,
                    bits[i] ? mgr.var_edge(vars[i]) : mgr.nvar_edge(vars[i]));
  }
  return cube;
}

/// Inputs (as a function over the input variables) that drive the machine
/// from the concrete state `from` into exactly the concrete state `to`.
Edge driving_inputs(Manager& mgr, const SymbolicFsm& machine,
                    const std::vector<bool>& from, const std::vector<bool>& to) {
  const Edge from_cube = assignment_cube(mgr, machine.state_vars, from);
  Edge ok = kOne;
  for (std::size_t k = 0; k < machine.next_state.size(); ++k) {
    const Edge bit = cofactor_cube(mgr, machine.next_state[k], from_cube);
    ok = mgr.and_(ok, to[k] ? bit : !bit);
  }
  return ok;
}

/// Reconstruct a distinguishing input sequence from the BFS onion rings.
Counterexample extract_counterexample(Manager& mgr, const SymbolicFsm& product,
                                      const std::vector<Bdd>& rings,
                                      Edge bad_states, Edge outputs_equal) {
  Counterexample cex;
  std::vector<bool> current =
      pick_assignment(mgr, bad_states, product.state_vars);
  // The observing input: outputs differ at `current` under it.
  const Edge current_cube = assignment_cube(mgr, product.state_vars, current);
  const Edge diff_inputs = cofactor_cube(mgr, !outputs_equal, current_cube);
  cex.inputs.push_back(pick_assignment(mgr, diff_inputs, product.input_vars));

  const Edge input_cube = positive_cube(mgr, product.input_vars);
  std::size_t ring = rings.size() - 1;
  while (ring > 0) {
    // Predecessors of `current`: states with some input mapping onto it.
    Edge pred = kOne;
    for (std::size_t k = 0; k < product.next_state.size(); ++k) {
      pred = mgr.and_(pred, current[k] ? product.next_state[k]
                                       : !product.next_state[k]);
    }
    pred = exists(mgr, pred, input_cube);
    // The frontier cover may skip rings; search backward for the nearest
    // ring containing a predecessor (ring 0 holds the initial states).
    bool found = false;
    for (std::size_t j = ring; j-- > 0;) {
      const Edge candidates = mgr.and_(rings[j].edge(), pred);
      if (candidates == kZero) continue;
      const std::vector<bool> previous =
          pick_assignment(mgr, candidates, product.state_vars);
      cex.inputs.push_back(pick_assignment(
          mgr, driving_inputs(mgr, product, previous, current),
          product.input_vars));
      current = previous;
      ring = j;
      found = true;
      break;
    }
    // Every frontier state has a predecessor in an earlier ring; this is
    // pure defence against a broken ring record.
    if (!found) break;
  }
  std::reverse(cex.inputs.begin(), cex.inputs.end());
  return cex;
}

}  // namespace

EquivResult check_equivalence(const MachineSpec& a, const MachineSpec& b,
                              const EquivOptions& opts) {
  if (a.num_inputs != b.num_inputs || a.num_outputs != b.num_outputs) {
    throw std::invalid_argument("machines have incompatible interfaces");
  }
  const unsigned ni = a.num_inputs;
  const unsigned bits = a.num_state_bits + b.num_state_bits;
  Manager mgr(ni + 2 * bits, opts.cache_log2);

  // Layout: inputs on top; below them present/next state bits interleaved
  // (the usual good order for transition relations).
  std::vector<std::uint32_t> input_vars(ni);
  for (unsigned i = 0; i < ni; ++i) input_vars[i] = i;
  std::vector<std::uint32_t> state_vars(bits);
  std::vector<std::uint32_t> next_vars(bits);
  for (unsigned k = 0; k < bits; ++k) {
    state_vars[k] = ni + 2 * k;
    next_vars[k] = ni + 2 * k + 1;
  }
  const std::span<const std::uint32_t> sv(state_vars);
  const SymbolicFsm sym_a =
      a.build(mgr, input_vars, sv.subspan(0, a.num_state_bits));
  const SymbolicFsm sym_b =
      b.build(mgr, input_vars, sv.subspan(a.num_state_bits));

  // The product machine: state = (state_a, state_b), shared inputs.
  SymbolicFsm product;
  product.input_vars = input_vars;
  product.state_vars = state_vars;
  product.next_state = sym_a.next_state;
  product.next_state.insert(product.next_state.end(), sym_b.next_state.begin(),
                            sym_b.next_state.end());
  product.initial = mgr.and_(sym_a.initial, sym_b.initial);

  // Product states whose outputs agree for every input.
  Edge outputs_equal_raw = kOne;
  for (unsigned j = 0; j < a.num_outputs; ++j) {
    outputs_equal_raw = mgr.and_(
        outputs_equal_raw, mgr.xnor_(sym_a.outputs[j], sym_b.outputs[j]));
  }
  const Bdd outputs_equal(mgr, outputs_equal_raw);
  const Bdd ok_states(
      mgr, forall(mgr, outputs_equal.edge(), positive_cube(mgr, input_vars)));

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
  ImageComputer imager(mgr, product, next_vars, opts.image_method, observer);

  EquivResult result;
  Bdd reached(mgr, product.initial);
  Bdd frontier = reached;
  std::vector<Bdd> rings{frontier};  // onion rings for counterexamples
  result.equivalent = true;
  while (!frontier.is_zero()) {
    if (++result.iterations > opts.max_iterations) {
      throw std::runtime_error("equivalence: iteration limit exceeded");
    }
    if (!frontier.leq(ok_states)) {
      result.equivalent = false;
      result.counterexample = extract_counterexample(
          mgr, product, rings, mgr.and_(frontier.edge(), !ok_states.edge()),
          outputs_equal.edge());
      break;
    }
    const Bdd care = frontier | !reached;
    const Bdd state_set(mgr, minimize(mgr, frontier.edge(), care.edge()));
    const Bdd img(mgr, imager.image(state_set.edge()));
    frontier = img - reached;
    reached |= img;
    if (!frontier.is_zero()) rings.push_back(frontier);
  }
  result.product_states = sat_count(mgr, reached.edge(), bits);
  return result;
}

EquivResult check_self_equivalence(const MachineSpec& a,
                                   const EquivOptions& opts) {
  return check_equivalence(a, a, opts);
}

bool validate_counterexample(const MachineSpec& a, const MachineSpec& b,
                             const Counterexample& cex) {
  if (cex.inputs.empty()) return false;
  Manager mgr(a.num_inputs + a.num_state_bits + b.num_state_bits, 14);
  std::vector<std::uint32_t> input_vars(a.num_inputs);
  for (unsigned i = 0; i < a.num_inputs; ++i) input_vars[i] = i;
  std::vector<std::uint32_t> st_a(a.num_state_bits);
  std::vector<std::uint32_t> st_b(b.num_state_bits);
  for (unsigned k = 0; k < a.num_state_bits; ++k) st_a[k] = a.num_inputs + k;
  for (unsigned k = 0; k < b.num_state_bits; ++k) {
    st_b[k] = a.num_inputs + a.num_state_bits + k;
  }
  const SymbolicFsm sym_a = a.build(mgr, input_vars, st_a);
  const SymbolicFsm sym_b = b.build(mgr, input_vars, st_b);
  // Initial states are singletons for explicit machines and generators;
  // pick one concrete representative from each initial set.
  std::vector<bool> state_a(a.num_state_bits, false);
  std::vector<bool> state_b(b.num_state_bits, false);
  {
    CubeVec cube;
    for_each_cube(mgr, sym_a.initial, mgr.num_vars(), 1,
                  [&](const CubeVec& c) { cube = c; return false; });
    for (unsigned k = 0; k < a.num_state_bits; ++k) state_a[k] = cube[st_a[k]] == 1;
    for_each_cube(mgr, sym_b.initial, mgr.num_vars(), 1,
                  [&](const CubeVec& c) { cube = c; return false; });
    for (unsigned k = 0; k < b.num_state_bits; ++k) state_b[k] = cube[st_b[k]] == 1;
  }
  for (std::size_t step = 0; step < cex.inputs.size(); ++step) {
    const StepResult ra = simulate_step(mgr, sym_a, state_a, cex.inputs[step]);
    const StepResult rb = simulate_step(mgr, sym_b, state_b, cex.inputs[step]);
    if (step + 1 == cex.inputs.size()) return ra.outputs != rb.outputs;
    state_a = ra.next_state;
    state_b = rb.next_state;
  }
  return false;
}

}  // namespace bddmin::fsm
