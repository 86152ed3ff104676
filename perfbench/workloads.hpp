/// \file workloads.hpp
/// \brief The benchmark's inputs and their references: the Table-3 FSM
/// traversal list, the seeded tiny truth-table job generator, and the
/// totals every pass is checked against.
///
/// The machine list is kept here rather than shared with bench/, so that
/// edits to the experiment drivers or the engine's harvest passes cannot
/// change what the benchmark measures.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/job.hpp"
#include "fsm/encoding.hpp"
#include "fsm/reach.hpp"

namespace perfbench {

/// One traversal of the Table-3 experiment: either a product-machine
/// equivalence check (left, right) or a single-machine reachability run
/// (left only, `reach` set).
struct Traversal {
  bddmin::fsm::MachineSpec left;
  bddmin::fsm::MachineSpec right;
  bool reach = false;
};

/// The full verify_fsm machine list: self and re-encoded product pairs,
/// then the reach machines.  It is fixed, not drawn from the seed, because
/// EXPERIMENTS.md Table 3 is the reference for exactly this list.
[[nodiscard]] std::vector<Traversal> table3_traversals();

/// Run one traversal with the functional image method, sending every
/// frontier-minimization call to \p hook.
void run_traversal(const Traversal& t, const bddmin::fsm::MinimizeHook& hook);

struct HeuristicTotal {
  const char* name;
  std::size_t total;
};

/// EXPERIMENTS.md Table 3, "all" column: cumulative cover sizes over the
/// kept calls, per heuristic (registry order) and for `min`.
struct Table3Reference {
  std::size_t total_calls = 10981;
  std::size_t kept_calls = 2777;
  std::size_t min_total = 40828;
  std::array<HeuristicTotal, 12> totals = {{{"const", 48629},
                                            {"restr", 45626},
                                            {"osm_td", 44509},
                                            {"osm_nv", 43773},
                                            {"osm_cp", 44324},
                                            {"osm_bt", 43738},
                                            {"tsm_td", 41753},
                                            {"tsm_cp", 41909},
                                            {"opt_lv", 53326},
                                            {"f_orig", 72200},
                                            {"f_and_c", 121253},
                                            {"f_or_nc", 254382}}};
};
inline constexpr Table3Reference kTable3{};

/// Jobs in one tiny_jobs pass.
inline constexpr std::size_t kTinyJobs = 30000;
/// run_batch calls a tiny_jobs pass is split into.  Each is timed on its
/// own, so a run can keep every slice's fastest pass.
inline constexpr std::size_t kTinySlices = 10;
/// Seed whose deterministic report_csv digest is pinned.
inline constexpr std::uint64_t kDefaultSeed = 1;
/// FNV-1a 64 of engine::report_csv for kDefaultSeed.
inline constexpr std::uint64_t kTinyCsvDigest = 0x8708d78b64efa31full;

/// kTinyJobs truth-table jobs over 4-6 variables drawn from \p seed.  Each
/// care set is the OR of two uniform draws, so about 3/4 of the minterms
/// are care.
[[nodiscard]] std::vector<bddmin::engine::Job> tiny_jobs(std::uint64_t seed);

/// FNV-1a 64-bit digest.
[[nodiscard]] std::uint64_t fnv1a(const std::string& text);

}  // namespace perfbench
