#include "workloads.hpp"

#include <algorithm>
#include <random>
#include <utility>

#include "bdd/manager.hpp"
#include "bdd/truth_table.hpp"
#include "fsm/equiv.hpp"
#include "workload/builtin_fsms.hpp"
#include "workload/generators.hpp"

namespace perfbench {

namespace fsm = bddmin::fsm;
namespace wl = bddmin::workload;

namespace {

/// Re-encode a machine by shuffling its state order: same behaviour,
/// different binary codes, so the reached product set is a state
/// correspondence instead of the diagonal.
fsm::MachineSpec reencoded(fsm::Fsm machine, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::shuffle(machine.states.begin(), machine.states.end(), rng);
  machine.name += "_shuffled";
  return fsm::spec_from_fsm(std::move(machine));
}

}  // namespace

std::vector<Traversal> table3_traversals() {
  std::vector<Traversal> list;
  const auto pair = [&](fsm::MachineSpec a, fsm::MachineSpec b) {
    list.push_back({std::move(a), std::move(b), false});
  };
  const auto self = [&](const fsm::MachineSpec& spec) { pair(spec, spec); };
  // The re-encoding seeds depend on the position in this order.
  for (const fsm::Fsm& m : wl::builtin_fsms()) {
    self(fsm::spec_from_fsm(m));
    pair(fsm::spec_from_fsm(m), reencoded(m, 9000 + list.size()));
  }
  self(wl::make_counter(6));
  self(wl::make_mod_counter(10));
  self(wl::make_gray_counter(5));
  self(wl::make_lfsr(6, 0b000011));
  self(wl::make_shift_register(5));
  self(wl::make_random_mealy(24, 2, 2, 1001));
  self(wl::make_random_mealy(32, 2, 1, 1002));
  self(wl::make_counter(8));
  self(wl::make_accumulator(7, 4));
  self(wl::make_mult_register(7, 4));
  self(wl::make_minmax(3));
  self(wl::make_random_mealy(48, 3, 2, 1003));
  self(wl::make_random_mealy(40, 2, 3, 1004));
  self(wl::make_random_mealy(64, 2, 2, 1005));
  self(wl::make_random_mealy(96, 4, 2, 1006));
  for (const std::uint64_t s : {2001ull, 2002ull, 2003ull}) {
    const fsm::Fsm m = wl::make_random_mealy_fsm(
        static_cast<unsigned>(24 + 8 * (s % 10)), 3, 2, s);
    pair(fsm::spec_from_fsm(m), reencoded(m, s + 50));
  }
  // Single-machine reachability: dense reached sets, so late frontier
  // calls carry large don't-care freedom.
  for (fsm::MachineSpec spec :
       {wl::make_bit_setter(8), wl::make_accumulator(8, 4),
        wl::make_gray_counter(6), wl::make_mod_counter(100),
        wl::make_bit_setter(11), wl::make_accumulator(10, 3),
        wl::make_mult_register(9, 4), wl::make_minmax(4)}) {
    list.push_back({std::move(spec), {}, true});
  }
  return list;
}

void run_traversal(const Traversal& t, const fsm::MinimizeHook& hook) {
  if (!t.reach) {
    fsm::EquivOptions opts;
    opts.image_method = fsm::ImageMethod::kFunctional;
    opts.minimize = hook;
    (void)fsm::check_equivalence(t.left, t.right, opts);
    return;
  }
  const fsm::MachineSpec& spec = t.left;
  bddmin::Manager mgr(spec.num_inputs + 2 * spec.num_state_bits, 15);
  std::vector<std::uint32_t> in(spec.num_inputs);
  for (unsigned i = 0; i < spec.num_inputs; ++i) in[i] = i;
  std::vector<std::uint32_t> st;
  std::vector<std::uint32_t> nx;
  for (unsigned k = 0; k < spec.num_state_bits; ++k) {
    st.push_back(spec.num_inputs + 2 * k);
    nx.push_back(spec.num_inputs + 2 * k + 1);
  }
  const fsm::SymbolicFsm sym = spec.build(mgr, in, st);
  fsm::ReachOptions opts;
  opts.image_method = fsm::ImageMethod::kFunctional;
  opts.minimize = hook;
  (void)fsm::reachable_states(mgr, sym, nx, opts);
}

std::vector<bddmin::engine::Job> tiny_jobs(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<bddmin::engine::Job> jobs;
  jobs.reserve(kTinyJobs);
  for (std::size_t k = 0; k < kTinyJobs; ++k) {
    const unsigned n = 4 + static_cast<unsigned>(rng() % 3);
    const std::uint64_t mask = bddmin::tt_mask(n);
    const std::uint64_t f = rng() & mask;
    const std::uint64_t c = (rng() | rng()) & mask;
    jobs.push_back(bddmin::engine::make_tt_job("tt" + std::to_string(k), f,
                                               c, n));
  }
  return jobs;
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char ch : text) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace perfbench
