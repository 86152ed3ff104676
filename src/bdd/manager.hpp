/// \file manager.hpp
/// \brief ROBDD manager: node storage, unique table, computed cache, ITE,
/// and dynamic variable reordering.
///
/// A single Manager owns all nodes for one variable order, mirroring the
/// package of Brace/Rudell/Bryant used in the DAC'94 paper.  Reduction is
/// implicit: make_node() applies the deletion rule (equal children) and
/// the merging rule (per-variable unique subtables), and keeps the
/// canonical complement-edge invariant (stored `hi` edges are never
/// complemented).
///
/// Variables vs levels: a variable index is a stable *name*; its position
/// in the order is its *level* (level 0 topmost).  Initially variable v
/// sits at level v.  Rudell-style sifting (reorder_sift) and set_order()
/// permute levels in place: every existing edge keeps denoting the same
/// function over the same variable names.
///
/// Memory discipline: plain Edge values are unprotected.  Operations never
/// trigger garbage collection on their own; dead intermediate nodes
/// accumulate until garbage_collect() is called explicitly (the experiment
/// harness does so between heuristics, exactly as the paper flushes caches
/// for fair timing).  Hold roots across a GC with ref()/deref() or the
/// RAII bddmin::Bdd handle.  Reordering additionally requires that all
/// *live* functions are reachable from referenced roots.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "analysis/thread_annotations.hpp"
#include "bdd/cache_tags.hpp"
#include "bdd/edge.hpp"
#include "bdd/governor.hpp"
#include "bdd/node.hpp"
#include "bdd/pair_scratch.hpp"
#include "telemetry/counters.hpp"

namespace bddmin {

namespace analysis {
struct ManagerAccess;  // read/write introspection shim for BddAudit
}  // namespace analysis

/// Epoch-stamped visited scratch for the read-only traversals in
/// bdd/ops.cpp (support, count_nodes, depends_on, sat_fraction, ...).
/// Marking a node visited is one store into a per-manager vector indexed
/// by node slot — no hashing, no per-traversal allocation once the vector
/// has grown to the table size.  begin() starts a new traversal in O(1) by
/// bumping the epoch; the rare epoch wrap clears the stamps.
///
/// One traversal at a time per manager: begin() invalidates every stamp of
/// the previous traversal.  The ops.cpp users never nest, and a Manager is
/// single-threaded by contract, so this is not a restriction in practice.
class VisitScratch {
 public:
  /// Start a new traversal over a node table of \p num_nodes slots.
  /// \p with_values also sizes the numeric side-car (sat_fraction memo).
  void begin(std::size_t num_nodes, bool with_values = false) {
    if (stamp_.size() < num_nodes) stamp_.resize(num_nodes, 0);
    if (with_values && value_.size() < num_nodes) value_.resize(num_nodes);
    if (++epoch_ == 0) {  // wrapped: all stamps are ambiguous, clear them
      std::fill(stamp_.begin(), stamp_.end(), 0u);
      epoch_ = 1;
    }
  }
  /// True if \p index was already visited this traversal; marks it either way.
  [[nodiscard]] bool test_and_set(std::uint32_t index) noexcept {
    if (stamp_[index] == epoch_) return true;
    stamp_[index] = epoch_;
    return false;
  }
  /// True if \p index carries a value stored this traversal.
  [[nodiscard]] bool has(std::uint32_t index) const noexcept {
    return stamp_[index] == epoch_;
  }
  [[nodiscard]] double value(std::uint32_t index) const noexcept {
    return value_[index];
  }
  /// Store a memoized value for \p index (marks it visited).
  void set_value(std::uint32_t index, double v) noexcept {
    stamp_[index] = epoch_;
    value_[index] = v;
  }

 private:
  std::vector<std::uint32_t> stamp_;
  std::vector<double> value_;  // sized lazily, only for value traversals
  std::uint32_t epoch_ = 0;
};

/// Concurrency contract: a Manager is a *single-owner* resource — exactly
/// one thread may touch a given instance (and everything reachable from
/// it: Edges, the governor, the counter bank) at any time.  The batch
/// engine honors this by giving each worker a private pooled Manager and
/// exchanging only manager-independent Job snapshots.  The class is
/// declared a Clang capability so that when the shared concurrent manager
/// lands, cross-thread use has to be expressed as an explicit capability
/// transfer (REQUIRES/ACQUIRE at the call sites) instead of compiling
/// silently; until then no code locks a Manager and the annotation is
/// purely declarative.  See docs/CONCURRENCY.md.
class BDDMIN_CAPABILITY("Manager") Manager {
 public:
  /// Largest accepted cache_log2; beyond it the constructor throws
  /// bddmin::OutOfMemory instead of attempting (or silently overcommitting)
  /// a multi-gigabyte cache allocation.
  static constexpr unsigned kMaxCacheLog2 = 26;
  /// Adaptive growth headroom: by default the cache may double until it
  /// reaches `min(cache_log2 + kCacheGrowthHeadroom, kMaxCacheLog2)`;
  /// override with set_cache_growth_limit().
  static constexpr unsigned kCacheGrowthHeadroom = 4;

  /// Create a manager over \p num_vars variables.
  /// \param cache_log2 log2 of the computed-cache slot count; must be at
  /// most kMaxCacheLog2 (throws bddmin::OutOfMemory otherwise).  Values
  /// below 2 are clamped to 2 (one set of the 2-way cache is 2 slots).
  explicit Manager(unsigned num_vars, unsigned cache_log2 = 18);

  Manager(const Manager&) = delete;
  Manager& operator=(const Manager&) = delete;

  /// Tear the manager down to the terminal-only state — as if freshly
  /// constructed over \p num_vars variables — without reallocating the
  /// node arena or the computed cache.  The node vector keeps its
  /// capacity, subtable bucket arrays keep their size, the cache is
  /// invalidated in O(1) by an epoch bump and, if adaptive growth had
  /// enlarged it, trimmed back to its construction-time size so behaviour
  /// after reset() is bit-for-bit that of a fresh manager (the batch
  /// engine's determinism contract relies on this).  Telemetry counters
  /// (every phase row), the governor's step/peak-live trackers and
  /// gc_runs() restart at zero, and the phase returns to kCoverBuild.
  /// The traversal scratch tables keep their capacity.  All previously
  /// issued Edges are invalidated.
  void reset(unsigned num_vars);

  // ---- Variables and levels --------------------------------------------
  [[nodiscard]] unsigned num_vars() const noexcept { return num_vars_; }
  /// Append a fresh variable at the bottom of the order; returns its index.
  unsigned add_var();
  /// Level currently occupied by variable \p var (0 = topmost).
  [[nodiscard]] std::uint32_t level_of_var(std::uint32_t var) const noexcept {
    return var_to_level_[var];
  }
  /// Variable sitting at \p level.
  [[nodiscard]] std::uint32_t var_at_level(std::uint32_t level) const noexcept {
    return level_to_var_[level];
  }
  /// Level of an edge's top variable; constants sit below everything
  /// (kConstVar, which compares greater than every real level).
  [[nodiscard]] std::uint32_t level_of(Edge e) const noexcept {
    const std::uint32_t v = var_of(e);
    return v == kConstVar ? kConstVar : var_to_level_[v];
  }
  /// The topmost (smallest-level) variable among the two edges' top
  /// variables; kConstVar if both are constants.
  [[nodiscard]] std::uint32_t top_var(Edge a, Edge b) const noexcept {
    return level_of(a) <= level_of(b) ? var_of(a) : var_of(b);
  }
  [[nodiscard]] std::uint32_t top_var(Edge a, Edge b, Edge c) const noexcept {
    const Edge ab = level_of(a) <= level_of(b) ? a : b;
    return top_var(ab, c);
  }

  // ---- Structural access ---------------------------------------------
  [[nodiscard]] static Edge one() noexcept { return kOne; }
  [[nodiscard]] static Edge zero() noexcept { return kZero; }
  /// The single-variable function x_v.
  [[nodiscard]] Edge var_edge(std::uint32_t v);
  /// The complemented literal !x_v.
  [[nodiscard]] Edge nvar_edge(std::uint32_t v);

  [[nodiscard]] std::uint32_t var_of(Edge e) const noexcept { return nodes_[e.index()].var; }
  [[nodiscard]] static bool is_const(Edge e) noexcept { return e.index() == 0; }
  /// Cofactor at this edge's own top variable set to 1 (complement pushed).
  [[nodiscard]] Edge hi_of(Edge e) const noexcept {
    return nodes_[e.index()].hi.complement_if(e.complemented());
  }
  /// Cofactor at this edge's own top variable set to 0 (complement pushed).
  [[nodiscard]] Edge lo_of(Edge e) const noexcept {
    return nodes_[e.index()].lo.complement_if(e.complemented());
  }
  /// {hi, lo} cofactors of \p f with respect to variable \p v: if f's top
  /// variable is v the children are returned, otherwise {f, f}.  This is
  /// the paper's `bdd_get_branches` keeping lock-step traversals aligned.
  [[nodiscard]] std::pair<Edge, Edge> branches(Edge f, std::uint32_t v) const noexcept {
    if (var_of(f) == v) return {hi_of(f), lo_of(f)};
    return {f, f};
  }
  /// Find-or-create the reduced node (var, hi, lo).  Applies the deletion
  /// rule and canonicalizes complement edges; the result may be an edge to
  /// an existing node.  Precondition: var's level is above both children.
  [[nodiscard]] Edge make_node(std::uint32_t var, Edge hi, Edge lo);

  // ---- Boolean operations ---------------------------------------------
  [[nodiscard]] Edge ite(Edge f, Edge g, Edge h);
  /// Specialized conjunction apply: two-operand recursion with commutative
  /// key canonicalization and its own cache tag, bypassing the ITE
  /// standard-triple normalizer.  Semantically identical to
  /// `ite(f, g, zero())`.
  [[nodiscard]] Edge and_kernel(Edge f, Edge g);
  /// Specialized symmetric-difference apply; semantically identical to
  /// `ite(f, !g, g)`.  Output complements are canonicalized so (f, g),
  /// (!f, g), (f, !g), (!f, !g) all share one cache entry.
  [[nodiscard]] Edge xor_kernel(Edge f, Edge g);
  /// The two-operand connectives route onto the kernels via De Morgan /
  /// complement identities; `ite` remains for genuine three-operand calls.
  [[nodiscard]] Edge and_(Edge f, Edge g) { return and_kernel(f, g); }
  [[nodiscard]] Edge or_(Edge f, Edge g) { return !and_kernel(!f, !g); }
  [[nodiscard]] Edge xor_(Edge f, Edge g) { return xor_kernel(f, g); }
  [[nodiscard]] Edge xnor_(Edge f, Edge g) { return !xor_kernel(f, g); }
  [[nodiscard]] Edge diff(Edge f, Edge g) { return and_kernel(f, !g); }
  [[nodiscard]] Edge implies(Edge f, Edge g) { return !and_kernel(f, !g); }
  /// f <= g as functions (f implies g everywhere).  Early-terminating:
  /// walks f & !g and stops at the first path reaching 1 instead of
  /// materializing the difference BDD.
  [[nodiscard]] bool leq(Edge f, Edge g) { return disjoint(f, !g); }
  /// f and g have no common minterm.  Early-terminating like leq(); shares
  /// cache entries with and_kernel (a disjoint subproof is an AND->0
  /// result and vice versa).
  [[nodiscard]] bool disjoint(Edge f, Edge g);
  /// f and g agree wherever c holds: (f XOR g)·c == 0.  Early-terminating
  /// like disjoint(): walks the three operands in lock step, stops at the
  /// first point of c where f and g differ, and builds no nodes.  Both
  /// verdicts are memoized under cache_tag::kAgree.
  [[nodiscard]] bool agree(Edge f, Edge g, Edge c);

  // ---- Simulation signatures --------------------------------------------
  /// Value of \p e under 64 fixed input patterns: bit i is e evaluated at
  /// pattern i, in which variable v takes bit i of a constant splitmix64
  /// word of v.  Two functions with different signatures differ on a
  /// concrete point; equal signatures prove nothing.  Memoized per node
  /// slot and stamped with the computed-cache epoch, so an entry dies
  /// exactly when cache entries do (every path that frees a slot bumps the
  /// epoch); reordering keeps each node's function and keeps the memo.
  [[nodiscard]] std::uint64_t signature(Edge e) const;

  // ---- Reference counting & garbage collection -------------------------
  void ref(Edge e) noexcept;
  void deref(Edge e) noexcept;
  /// Sweep all nodes with a zero reference count (cascading to children),
  /// clear the computed cache, and recycle indices.  Returns nodes freed.
  /// Costs O(candidates + reclaimed), not O(slots): only the slots that
  /// reached ref 0 since the last collection are examined, and the sweep
  /// frees them in the same order a scan of every slot would.
  std::size_t garbage_collect();
  /// Drop all memoized operation results (the paper's "flush the caches").
  void clear_caches() noexcept;

  [[nodiscard]] std::size_t live_nodes() const noexcept { return live_count_; }
  [[nodiscard]] std::size_t dead_nodes() const noexcept { return dead_count_; }
  [[nodiscard]] std::size_t allocated_nodes() const noexcept { return nodes_.size(); }
  [[nodiscard]] std::uint64_t gc_runs() const noexcept { return gc_runs_; }
  /// Nodes currently labelled with \p var (live or dead).
  [[nodiscard]] std::size_t nodes_at_var(std::uint32_t var) const noexcept {
    return subtables_[var].count;
  }
  /// Total nodes in the unique tables (live or dead, excl. terminal).
  /// O(1): a running total maintained at subtable link/unlink (the tier-1
  /// audit cross-checks it against the per-variable counts).
  [[nodiscard]] std::size_t unique_size() const noexcept { return unique_total_; }

  // ---- Dynamic reordering ----------------------------------------------
  /// Swap the variables at \p level and level+1 in place: every existing
  /// edge keeps its function.  Returns the table-size delta.
  std::ptrdiff_t swap_adjacent_levels(std::uint32_t level);
  /// Sift a single variable to its locally optimal level (Rudell).
  void sift_var(std::uint32_t var, double max_growth = 1.2);
  /// Sift all variables once, largest subtable first.  Dead nodes are
  /// collected first.  Returns the resulting unique table size.
  std::size_t reorder_sift(double max_growth = 1.2);
  /// Establish an explicit order: \p order lists variables top to bottom.
  void set_order(std::span<const std::uint32_t> order);
  /// Current order, top to bottom.
  [[nodiscard]] std::vector<std::uint32_t> current_order() const {
    return level_to_var_;
  }

  // ---- Resource governance ---------------------------------------------
  /// Effort limits and peak-live telemetry (see bdd/governor.hpp).  Install
  /// a budget with `mgr.governor().set_limits({...})`; operations then abort
  /// by throwing bddmin::ResourceExhausted when a limit trips, leaving the
  /// manager structurally consistent and reusable (partial results are dead
  /// nodes, reclaimed by the next garbage_collect()).
  [[nodiscard]] ResourceGovernor& governor() noexcept { return governor_; }
  [[nodiscard]] const ResourceGovernor& governor() const noexcept {
    return governor_;
  }

  // ---- Telemetry --------------------------------------------------------
  /// Snapshot of this manager's event counters (unique-table traffic,
  /// computed-cache hits/misses per op class, GC, sifting, governor
  /// steps).  Deterministic: counts structural events, never time.
  /// Measure an operation as `after - before`.  See
  /// telemetry/counters.hpp.
  [[nodiscard]] telemetry::CounterSnapshot telemetry() const noexcept {
    return counters_.snapshot();
  }
  /// The events attributed to phase \p p; the three rows sum to
  /// telemetry().
  [[nodiscard]] telemetry::CounterSnapshot telemetry(
      telemetry::Phase p) const noexcept {
    return counters_.snapshot(p);
  }
  /// The phase later events are attributed to (telemetry::PhaseScope
  /// switches it; reset() returns it to kCoverBuild).
  [[nodiscard]] telemetry::Phase phase() const noexcept {
    return counters_.phase();
  }
  /// Attribute later events, governor steps included, to \p p; returns
  /// the previous phase.
  telemetry::Phase set_phase(telemetry::Phase p) noexcept {
    const telemetry::Phase prev = counters_.set_phase(p);
    governor_.attach_step_counter(counters_.step_slot());
    return prev;
  }

  // ---- Computed cache (shared with client algorithms) ------------------
  /// Operation tags below this value are reserved for the manager itself;
  /// client algorithms (the minimization heuristics) use tags >= this.
  /// Every tag value lives in bdd/cache_tags.hpp — the single registry —
  /// never as a local constant (lint rule R2).
  static constexpr std::uint32_t kUserOpBase = cache_tag::kUserBase;
  [[nodiscard]] bool cache_lookup(std::uint32_t op, Edge a, Edge b, Edge c,
                                  Edge* out) const noexcept;
  void cache_insert(std::uint32_t op, Edge a, Edge b, Edge c, Edge result) noexcept;
  /// log2 of the current computed-cache slot count.  Starts at the
  /// constructor's cache_log2 and may rise via adaptive growth: every 4096
  /// inserts the manager checks whether the recent miss rate is >= 50% and
  /// at least one insert per slot has happened since the last resize, and
  /// if so doubles the cache (rehashing live entries, so memoized results
  /// survive a resize mid-recursion).  Growth is deterministic — it depends
  /// only on the operation sequence — and allocation failure quietly
  /// disables it (cache_insert stays noexcept).
  [[nodiscard]] unsigned cache_log2() const noexcept { return cache_log2_; }
  /// Cap adaptive growth at `1 << max_log2` slots; clamped to
  /// [cache_log2(), kMaxCacheLog2].  Pass the current cache_log2() to
  /// freeze the cache at its present size.
  void set_cache_growth_limit(unsigned max_log2) noexcept;

  // ---- Traversal scratch -------------------------------------------------
  /// Epoch-stamped visited scratch shared by the read-only traversals in
  /// bdd/ops.cpp.  Mutable through a const Manager: scratch state is not
  /// logical state.  One traversal at a time (begin() invalidates the
  /// previous one).
  [[nodiscard]] VisitScratch& visit_scratch() const noexcept {
    return visit_scratch_;
  }
  /// Epoch-stamped pair memo shared by the minimization walks (the sibling
  /// traversal, opt_lv's collect and substitute, the Theorem 7 bound).
  /// Mutable like visit_scratch(); one walk at a time (PairScratch::Walk
  /// guards it).  reset() keeps its capacity, so a pooled manager reuses it.
  [[nodiscard]] PairScratch& pair_scratch() const noexcept {
    return pair_scratch_;
  }

  // ---- Introspection for debugging --------------------------------------
  [[nodiscard]] const Node& node_at(std::uint32_t index) const { return nodes_[index]; }
  /// Structural invariant check (canonical hi edges, ordered levels,
  /// consistent subtable membership, ref-count and live/dead accounting);
  /// throws std::logic_error on the first failure.  Thin wrapper over the
  /// BddAudit structural and ref-count passes (analysis/audit.hpp); run
  /// `analysis::audit_manager` directly for a full report instead of a
  /// first-failure throw.
  void check_invariants() const;

 private:
  friend struct analysis::ManagerAccess;

  struct CacheEntry {
    std::uint64_t k1 = ~0ull;   // (op << 32) | a.bits; ~0 marks an empty slot
    std::uint64_t k2 = 0;       // (b.bits << 32) | c.bits
    std::uint64_t epoch = 0;    // entries from older epochs are invalid
    Edge result{};
  };

  /// One 2-way set, padded and aligned to a single 64-byte cache line so a
  /// lookup or insert never touches more memory than the old direct-mapped
  /// cache did, no matter which way it lands on.
  struct alignas(64) CacheSet {
    CacheEntry way[2];
  };
  static_assert(sizeof(CacheSet) == 64);

  /// Per-variable unique subtable (open hashing, chained via Node::next).
  struct SubTable {
    std::vector<std::uint32_t> buckets;
    std::size_t count = 0;
  };

  [[nodiscard]] std::uint32_t unique_insert(std::uint32_t var, Edge hi, Edge lo);
  /// Grow every per-slot array to \p slots entries, so claiming a slot (and
  /// listing it as a GC candidate, and freeing it) below that never
  /// allocates.  May throw std::bad_alloc.
  void reserve_slots(std::size_t slots);
  /// Put slot \p index, whose ref count is 0, on the GC candidate list
  /// unless it is already there.  Never allocates (see reserve_slots).
  void list_candidate(std::uint32_t index) noexcept {
    if (gc_listed_[index] != 0) return;
    gc_listed_[index] = 1;
    gc_candidates_.push_back(index);
  }
  void subtable_unlink(std::uint32_t index);
  void subtable_link(std::uint32_t index);
  void grow_buckets(SubTable& table);
  [[nodiscard]] static std::size_t node_hash(Edge hi, Edge lo) noexcept;
  [[nodiscard]] bool disjoint_rec(Edge f, Edge g);
  [[nodiscard]] std::uint64_t signature_rec(Edge e) const noexcept;
  void maybe_grow_cache() noexcept;
  void grow_cache() noexcept;

  /// Precomputed cache key: the recursions hash once, look up, recurse and
  /// insert under the same key without rehashing.  Only the full 64-bit
  /// hash is carried — never a set index — because a nested call can grow
  /// the cache between the lookup and the insert, changing the mask.
  struct CacheKey {
    std::uint64_t k1, k2, hash;
  };
  [[nodiscard]] static CacheKey cache_key(std::uint32_t op, Edge a, Edge b,
                                          Edge c) noexcept;
  [[nodiscard]] bool cache_lookup(const CacheKey& key, Edge* out) const noexcept;
  void cache_insert(const CacheKey& key, Edge result) noexcept;

  unsigned num_vars_;
  std::vector<Node> nodes_;
  std::vector<SubTable> subtables_;          // one per variable
  std::vector<std::uint32_t> var_to_level_;
  std::vector<std::uint32_t> level_to_var_;
  std::vector<std::uint32_t> free_list_;     // recycled node indices
  // GC candidates: every slot that reached ref 0 (created by unique_insert
  // or dropped by deref) since the last collection, each listed once, as
  // gc_listed_ marks.  Entries may have been revived or freed since;
  // garbage_collect() filters them, then reuses the vector as its work
  // stack.  Capacity tracks the table (reserve_slots), so a push never
  // allocates.
  std::vector<std::uint32_t> gc_candidates_;
  std::vector<std::uint8_t> gc_listed_;      // per slot: on gc_candidates_
  // Mutable: a lookup that hits way 1 of a set promotes the entry to way 0
  // (move-to-front aging).  Like the counters, this is observation state.
  mutable std::vector<CacheSet> cache_;
  std::size_t cache_set_mask_ = 0;  // (#sets - 1); one CacheSet per set
  unsigned cache_log2_ = 0;         // log2 of the current slot count
  unsigned base_cache_log2_ = 0;    // construction-time size; reset() target
  unsigned max_cache_log2_ = 0;     // adaptive-growth ceiling
  bool cache_growth_enabled_ = true;
  // Sliding miss-rate window driving adaptive growth (reset every check).
  mutable std::uint64_t cache_window_lookups_ = 0;
  mutable std::uint64_t cache_window_misses_ = 0;
  std::uint64_t cache_inserts_since_resize_ = 0;
  std::uint64_t cache_inserts_since_check_ = 0;
  // Mutable: cache_lookup is const yet counts its hit/miss.  Counting is
  // observation, not logical state — a const Manager still meters.
  mutable telemetry::CounterBank counters_;
  mutable VisitScratch visit_scratch_;
  mutable PairScratch pair_scratch_;
  /// signature() memo, indexed by node slot: live iff its epoch matches
  /// cache_epoch_.  Mutable like the cache: memoization is not logical state.
  struct SignatureSlot {
    std::uint64_t epoch = ~0ull;  // never a live epoch
    std::uint64_t sig = 0;        // signature of the regular edge to the slot
  };
  mutable std::vector<SignatureSlot> signatures_;
  ResourceGovernor governor_;
  std::size_t live_count_ = 0;  // nodes with ref > 0
  std::size_t dead_count_ = 0;  // allocated nodes with ref == 0
  std::size_t unique_total_ = 0;  // running sum of subtable counts
  std::uint64_t gc_runs_ = 0;
  std::uint64_t cache_epoch_ = 0;  // bumped to invalidate the whole cache
};

}  // namespace bddmin
