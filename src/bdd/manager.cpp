#include "bdd/manager.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "analysis/access.hpp"
#include "analysis/audit.hpp"
#include "analysis/check.hpp"
#include "analysis/failpoint.hpp"
#include "bdd/ops.hpp"

namespace bddmin {
namespace {

/// Computed-cache hash: one multiply per key word (they issue in
/// parallel) plus a fold pulling the products' well-mixed high halves
/// into the low bits the set mask consumes.  Roughly 4x shorter dependency
/// chain than the nested splitmix64 it replaced — this runs on every
/// ite/kernel recursion, where the hash latency was a measurable slice of
/// the whole operation.
constexpr std::uint64_t cache_hash(std::uint64_t k1, std::uint64_t k2) noexcept {
  const std::uint64_t h =
      (k1 * 0x9E3779B97F4A7C15ull) ^ (k2 * 0xC2B2AE3D27D4EB4Full);
  return h ^ (h >> 32);
}

/// Counter pair (hit = returned value, miss = value + 1) for a cache op
/// tag.  The disjoint marker and agree tags belong to the "and" class:
/// those probes are the early-exit walks of the AND family.  Remaining
/// reserved manager tags and the client tags (>= kUserOpBase) fall into
/// the "user" class.
constexpr telemetry::Counter cache_hit_counter_of(std::uint32_t op) noexcept {
  using telemetry::CacheOpClass;
  CacheOpClass cls = CacheOpClass::kUser;
  if (op == analysis::ManagerAccess::op_ite()) {
    cls = CacheOpClass::kIte;
  } else if (op == analysis::ManagerAccess::op_and() ||
             op == analysis::ManagerAccess::op_disjoint() ||
             op == analysis::ManagerAccess::op_agree()) {
    cls = CacheOpClass::kAnd;
  } else if (op == analysis::ManagerAccess::op_xor()) {
    cls = CacheOpClass::kXor;
  } else if (op == cache_tag::kCofactor) {
    cls = CacheOpClass::kCofactor;
  } else if (op == cache_tag::kExists || op == cache_tag::kAndExists) {
    cls = CacheOpClass::kQuantify;
  } else if (op == cache_tag::kCompose) {
    cls = CacheOpClass::kCompose;
  }
  return telemetry::cache_hit_counter(cls);
}

/// How often cache_insert re-evaluates the adaptive-growth condition.
constexpr std::uint64_t kGrowthCheckInterval = 4096;

/// Input pattern word of variable \p var for signature(): bit i is the
/// variable's value in pattern i.  One splitmix64 output per variable, a
/// constant of the variable's name, so signatures agree across managers
/// and survive reordering.
constexpr std::uint64_t pattern_word(std::uint32_t var) noexcept {
  std::uint64_t z = std::uint64_t{var} + 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

Manager::Manager(unsigned num_vars, unsigned cache_log2)
    : num_vars_(num_vars),
      subtables_(num_vars),
      var_to_level_(num_vars),
      level_to_var_(num_vars) {
  // Validate before allocating: a bogus cache_log2 would either fail with a
  // raw bad_alloc or silently overcommit address space the first touch
  // cannot back.  Either way the caller gets the requested size.
  if (cache_log2 > kMaxCacheLog2) {
    throw OutOfMemory("computed cache",
                      (std::size_t{1} << cache_log2) * sizeof(CacheEntry));
  }
  if (cache_log2 < 2) cache_log2 = 2;  // a 2-way set is 2 slots; keep >= 2 sets
  const std::size_t sets = std::size_t{1} << (cache_log2 - 1);
  try {
    cache_.resize(sets);
  } catch (const std::bad_alloc&) {
    throw OutOfMemory("computed cache", sets * sizeof(CacheSet));
  }
  cache_log2_ = cache_log2;
  base_cache_log2_ = cache_log2;
  max_cache_log2_ = std::min(cache_log2 + kCacheGrowthHeadroom, kMaxCacheLog2);
  cache_set_mask_ = sets - 1;
  reserve_slots(std::size_t{1} << 12);
  for (SubTable& table : subtables_) table.buckets.assign(4, kNilIndex);
  std::iota(var_to_level_.begin(), var_to_level_.end(), 0u);
  std::iota(level_to_var_.begin(), level_to_var_.end(), 0u);
  // Terminal node at index 0; its ref count is saturated so it never dies.
  Node terminal;
  terminal.var = kConstVar;
  terminal.ref = 0xFFFF'FFFFu;
  nodes_.push_back(terminal);
  live_count_ = 1;
  governor_.note_live(live_count_);
  // Steps are charged inside the governor; route them into this manager's
  // counter bank so telemetry sees them even on unlimited runs.
  governor_.attach_step_counter(counters_.step_slot());
}

unsigned Manager::add_var() {
  const unsigned var = num_vars_++;
  SubTable table;
  table.buckets.assign(4, kNilIndex);
  subtables_.push_back(std::move(table));
  level_to_var_.push_back(var);  // new variable enters at the bottom
  var_to_level_.push_back(static_cast<std::uint32_t>(level_to_var_.size() - 1));
  return var;
}

std::size_t Manager::node_hash(Edge hi, Edge lo) noexcept {
  // Single multiply + fold: the buckets mask low bits, the fold feeds them
  // the product's high half.  Cheaper than a full splitmix64 finalizer and
  // the unique table only needs short chains, not avalanche.
  const std::uint64_t h =
      ((std::uint64_t{hi.bits} << 32) ^ lo.bits) * 0x9E3779B97F4A7C15ull;
  return static_cast<std::size_t>(h ^ (h >> 32));
}

void Manager::reset(unsigned num_vars) {
  num_vars_ = num_vars;
  nodes_.clear();  // trivial elements: keeps capacity, frees nothing
  free_list_.clear();
  for (const std::uint32_t i : gc_candidates_) gc_listed_[i] = 0;
  gc_candidates_.clear();
  subtables_.resize(num_vars);  // grows only when a job needs more variables
  for (SubTable& table : subtables_) {
    table.buckets.assign(4, kNilIndex);  // fresh-manager bucket count
    table.count = 0;
  }
  unique_total_ = 0;
  var_to_level_.resize(num_vars);
  level_to_var_.resize(num_vars);
  std::iota(var_to_level_.begin(), var_to_level_.end(), 0u);
  std::iota(level_to_var_.begin(), level_to_var_.end(), 0u);
  // Cache: O(1) epoch invalidation; if adaptive growth had enlarged it,
  // trim back to the construction-time size (vector::resize downward keeps
  // the allocation) so a reused manager grows at exactly the same points a
  // fresh one would — the engine's byte-determinism depends on it.
  ++cache_epoch_;
  if (cache_log2_ != base_cache_log2_) {
    cache_.resize(std::size_t{1} << (base_cache_log2_ - 1));
    cache_log2_ = base_cache_log2_;
    cache_set_mask_ = cache_.size() - 1;
  }
  cache_growth_enabled_ = true;
  max_cache_log2_ =
      std::min(base_cache_log2_ + kCacheGrowthHeadroom, kMaxCacheLog2);
  cache_window_lookups_ = 0;
  cache_window_misses_ = 0;
  cache_inserts_since_resize_ = 0;
  cache_inserts_since_check_ = 0;
  counters_.reset();
  governor_.attach_step_counter(counters_.step_slot());
  gc_runs_ = 0;
  governor_.reset_job();  // drops limits and the steps/peak-live telemetry
  Node terminal;
  terminal.var = kConstVar;
  terminal.ref = 0xFFFF'FFFFu;
  nodes_.push_back(terminal);
  live_count_ = 1;
  dead_count_ = 0;
  governor_.note_live(live_count_);
}

Edge Manager::var_edge(std::uint32_t v) {
  BDDMIN_CHECK(v < num_vars_);
  return make_node(v, kOne, kZero);
}

Edge Manager::nvar_edge(std::uint32_t v) { return !var_edge(v); }

Edge Manager::make_node(std::uint32_t var, Edge hi, Edge lo) {
  if (hi == lo) return hi;  // deletion rule
  BDDMIN_DCHECK(var < num_vars_);
  BDDMIN_DCHECK(level_of_var(var) < level_of(hi) && level_of_var(var) < level_of(lo));
  // Canonical complement form: stored hi edge is regular.
  const bool out_complement = hi.complemented();
  if (out_complement) {
    hi = !hi;
    lo = !lo;
  }
  const std::uint32_t index = unique_insert(var, hi, lo);
  return Edge{index << 1}.complement_if(out_complement);
}

std::uint32_t Manager::unique_insert(std::uint32_t var, Edge hi, Edge lo) {
  SubTable& table = subtables_[var];
  const std::size_t h = node_hash(hi, lo) & (table.buckets.size() - 1);
  for (std::uint32_t i = table.buckets[h]; i != kNilIndex; i = nodes_[i].next) {
    const Node& n = nodes_[i];
    if (n.hi == hi && n.lo == lo) {  // merging rule
      counters_.bump(telemetry::Counter::kUniqueHits);
      return i;
    }
  }
  // Quotas are enforced before a slot is claimed, so looking up an existing
  // node never throws and an abort leaves the table untouched.  The same
  // safe point hosts the injected allocation failure — suppressed inside
  // reorder critical sections, where a throw would tear the table.
  if (!governor_.in_critical_section() &&
      BDDMIN_FAILPOINT("unique_insert_oom")) {
    throw OutOfMemory("failpoint: node table", sizeof(Node));
  }
  if (governor_.node_limited()) {
    governor_.check_nodes(live_count_ + dead_count_);
  }
  std::uint32_t index;
  if (!free_list_.empty()) {
    index = free_list_.back();
    free_list_.pop_back();
  } else {
    if (nodes_.size() >= (kNilIndex >> 1)) throw std::length_error("BDD node table full");
    if (nodes_.size() == nodes_.capacity()) {
      try {
        reserve_slots(2 * nodes_.size());  // the vector's own doubling
      } catch (const std::bad_alloc&) {
        throw OutOfMemory("node table", 2 * nodes_.capacity() * sizeof(Node));
      }
    }
    nodes_.emplace_back();
    index = static_cast<std::uint32_t>(nodes_.size() - 1);
  }
  counters_.bump(telemetry::Counter::kUniqueInserts);
  Node& n = nodes_[index];
  n.var = var;
  n.hi = hi;
  n.lo = lo;
  n.ref = 0;
  n.next = table.buckets[h];
  table.buckets[h] = index;
  ++table.count;
  ++unique_total_;
  ++dead_count_;
  list_candidate(index);
  ref(hi);  // a stored node holds a reference on each child
  ref(lo);
  if (table.count > table.buckets.size()) grow_buckets(table);
  return index;
}

void Manager::reserve_slots(std::size_t slots) {
  nodes_.reserve(slots);
  free_list_.reserve(slots);
  gc_candidates_.reserve(slots);
  if (gc_listed_.size() < slots) gc_listed_.resize(slots, 0);
}

void Manager::subtable_unlink(std::uint32_t index) {
  Node& n = nodes_[index];
  SubTable& table = subtables_[n.var];
  const std::size_t h = node_hash(n.hi, n.lo) & (table.buckets.size() - 1);
  std::uint32_t* link = &table.buckets[h];
  while (*link != index) link = &nodes_[*link].next;
  *link = n.next;
  --table.count;
  --unique_total_;
}

void Manager::subtable_link(std::uint32_t index) {
  Node& n = nodes_[index];
  SubTable& table = subtables_[n.var];
  const std::size_t h = node_hash(n.hi, n.lo) & (table.buckets.size() - 1);
  n.next = table.buckets[h];
  table.buckets[h] = index;
  ++table.count;
  ++unique_total_;
  if (table.count > table.buckets.size()) grow_buckets(table);
}

void Manager::grow_buckets(SubTable& table) {
  // Injected before the reallocation: like a real bad_alloc here, the
  // triggering node is already linked and the table stays consistent.
  if (!governor_.in_critical_section() && BDDMIN_FAILPOINT("bucket_grow_oom")) {
    throw OutOfMemory("failpoint: subtable buckets",
                      2 * table.buckets.size() * sizeof(std::uint32_t));
  }
  std::vector<std::uint32_t> fresh;
  try {
    fresh.assign(table.buckets.size() * 2, kNilIndex);
  } catch (const std::bad_alloc&) {
    // The node that triggered the growth is already linked; the table stays
    // consistent (just denser than ideal), so rethrowing here still honors
    // the strong guarantee.
    throw OutOfMemory("subtable buckets",
                      2 * table.buckets.size() * sizeof(std::uint32_t));
  }
  for (std::uint32_t head : table.buckets) {
    for (std::uint32_t i = head; i != kNilIndex;) {
      const std::uint32_t next = nodes_[i].next;
      const std::size_t h = node_hash(nodes_[i].hi, nodes_[i].lo) & (fresh.size() - 1);
      nodes_[i].next = fresh[h];
      fresh[h] = i;
      i = next;
    }
  }
  table.buckets = std::move(fresh);
}

void Manager::ref(Edge e) noexcept {
  Node& n = nodes_[e.index()];
  if (n.ref == 0xFFFF'FFFFu) return;  // saturated (terminal)
  if (n.ref++ == 0) {
    --dead_count_;
    ++live_count_;
    governor_.note_live(live_count_);
  }
}

void Manager::deref(Edge e) noexcept {
  Node& n = nodes_[e.index()];
  if (n.ref == 0xFFFF'FFFFu) return;
  BDDMIN_DCHECK(n.ref > 0);  // a failure here terminates: deref underflow
  if (--n.ref == 0) {
    --live_count_;
    ++dead_count_;
    list_candidate(e.index());
  }
}

std::size_t Manager::garbage_collect() {
  // Injected before any mutation, so an abort here leaves the manager
  // untouched.  (The sweep itself allocates nothing: its work list is the
  // candidate list, reserved with the node table.)
  if (BDDMIN_FAILPOINT("gc_oom")) {
    throw OutOfMemory("failpoint: gc work list",
                      nodes_.size() * sizeof(std::uint32_t));
  }
  ++gc_runs_;
  counters_.bump(telemetry::Counter::kGcRuns);
  // Every allocated ref-0 slot is a candidate, so the candidates still
  // allocated with ref 0, in ascending order, are exactly the work list a
  // scan of every slot builds: the same nodes are freed in the same order
  // at O(candidates + reclaimed) cost.  The list is the work stack; its
  // capacity covers every slot, so the sweep allocates nothing.
  std::vector<std::uint32_t>& work = gc_candidates_;
  std::sort(work.begin(), work.end());
  for (const std::uint32_t i : work) gc_listed_[i] = 0;
  std::erase_if(work, [this](std::uint32_t i) {
    return nodes_[i].var == kFreeVar || nodes_[i].ref != 0;
  });
  std::size_t freed = 0;
  while (!work.empty()) {
    const std::uint32_t i = work.back();
    work.pop_back();
    Node& n = nodes_[i];
    if (n.var == kFreeVar) continue;  // already swept via another path
    subtable_unlink(i);
    // Cascade: release this node's references on its children.
    for (const Edge child : {n.hi, n.lo}) {
      Node& cn = nodes_[child.index()];
      if (cn.ref == 0xFFFF'FFFFu) continue;
      BDDMIN_DCHECK(cn.ref > 0);
      if (--cn.ref == 0) {
        --live_count_;
        ++dead_count_;
        work.push_back(child.index());
      }
    }
    n.var = kFreeVar;
    free_list_.push_back(i);
    --dead_count_;
    ++freed;
  }
  counters_.add(telemetry::Counter::kGcNodesReclaimed, freed);
  clear_caches();  // cached results may reference freed nodes
  return freed;
}

void Manager::clear_caches() noexcept {
  ++cache_epoch_;  // O(1): stale-epoch entries are ignored on lookup
  // Restart the adaptive-growth window: every lookup after a flush misses
  // no matter how big the cache is (compulsory, not capacity, misses), so
  // carrying the window across the epoch would read repeated flushes as
  // sustained pressure and grow the cache without improving its hit rate.
  cache_window_lookups_ = 0;
  cache_window_misses_ = 0;
  cache_inserts_since_resize_ = 0;
  cache_inserts_since_check_ = 0;
}

Manager::CacheKey Manager::cache_key(std::uint32_t op, Edge a, Edge b,
                                     Edge c) noexcept {
  const std::uint64_t k1 = (std::uint64_t{op} << 32) | a.bits;
  const std::uint64_t k2 = (std::uint64_t{b.bits} << 32) | c.bits;
  return {k1, k2, cache_hash(k1, k2)};
}

bool Manager::cache_lookup(const CacheKey& key, Edge* out) const noexcept {
  // 2-way set-associative: one CacheSet (one cache line), way 0 most recent.
  CacheEntry* const way =
      cache_[static_cast<std::size_t>(key.hash) & cache_set_mask_].way;
  ++cache_window_lookups_;
  const auto op = static_cast<std::uint32_t>(key.k1 >> 32);
  if (way[0].k1 == key.k1 && way[0].k2 == key.k2 &&
      way[0].epoch == cache_epoch_) {
    counters_.bump(cache_hit_counter_of(op));
    *out = way[0].result;
    return true;
  }
  if (way[1].k1 == key.k1 && way[1].k2 == key.k2 &&
      way[1].epoch == cache_epoch_) {
    counters_.bump(cache_hit_counter_of(op));
    *out = way[1].result;
    std::swap(way[0], way[1]);  // promote: the hit entry outlived way 0
    return true;
  }
  // Miss counters sit one slot after their hit counter (see counters.hpp).
  counters_.bump(static_cast<telemetry::Counter>(
      static_cast<unsigned>(cache_hit_counter_of(op)) + 1));
  ++cache_window_misses_;
  return false;
}

void Manager::cache_insert(const CacheKey& key, Edge result) noexcept {
  CacheEntry* const way =
      cache_[static_cast<std::size_t>(key.hash) & cache_set_mask_].way;
  // Cheap aging: the new entry takes way 0; the previous way-0 occupant is
  // demoted to way 1 (evicting the set's oldest) — unless it holds this
  // very key or is stale anyway, when the copy would preserve nothing.
  if ((way[0].k1 != key.k1 || way[0].k2 != key.k2) &&
      way[0].epoch == cache_epoch_) {
    way[1] = way[0];
  }
  way[0].k1 = key.k1;
  way[0].k2 = key.k2;
  way[0].epoch = cache_epoch_;
  way[0].result = result;
  ++cache_inserts_since_resize_;
  if (++cache_inserts_since_check_ >= kGrowthCheckInterval) maybe_grow_cache();
}

bool Manager::cache_lookup(std::uint32_t op, Edge a, Edge b, Edge c,
                           Edge* out) const noexcept {
  // bddmin-lint: allow(R2) -- forwarding API; the tag is validated at the call site
  return cache_lookup(cache_key(op, a, b, c), out);
}

void Manager::cache_insert(std::uint32_t op, Edge a, Edge b, Edge c,
                           Edge result) noexcept {
  // bddmin-lint: allow(R2) -- forwarding API; the tag is validated at the call site
  cache_insert(cache_key(op, a, b, c), result);
}

void Manager::maybe_grow_cache() noexcept {
  cache_inserts_since_check_ = 0;
  const std::uint64_t lookups = cache_window_lookups_;
  const std::uint64_t misses = cache_window_misses_;
  cache_window_lookups_ = 0;
  cache_window_misses_ = 0;
  if (!cache_growth_enabled_ || cache_log2_ >= max_cache_log2_) return;
  // Grow only under sustained pressure: the recent window missed at least
  // half its lookups AND the cache has absorbed one insert per slot since
  // the last resize (so a short miss burst on a huge cold cache does not
  // double it).  Both inputs are operation-sequence-determined, so growth
  // points are reproducible run to run.
  if (misses * 2 < lookups) return;
  if (cache_inserts_since_resize_ < (std::uint64_t{1} << cache_log2_)) return;
  grow_cache();
}

void Manager::grow_cache() noexcept {
  // Injected growth failure takes the real bad_alloc branch: growth is
  // quietly disabled and the current cache keeps working.  This function
  // is noexcept, so the failpoint must not throw here.
  if (BDDMIN_FAILPOINT("cache_grow_oom")) {
    cache_growth_enabled_ = false;
    return;
  }
  std::vector<CacheSet> fresh;
  try {
    fresh.resize(std::size_t{1} << cache_log2_);  // double the set count
  } catch (const std::bad_alloc&) {
    cache_growth_enabled_ = false;  // degrade quietly: keep the current cache
    return;
  }
  // Rehash the live entries so memoized results survive a resize that
  // happens mid-recursion; stale-epoch and empty slots are dropped.  Way 1
  // is replayed before way 0 so the recency order inside each target set
  // is preserved.
  const std::size_t set_mask = fresh.size() - 1;
  const auto place = [&](const CacheEntry& e) {
    if (e.k1 == ~0ull || e.epoch != cache_epoch_) return;
    const std::size_t set =
        static_cast<std::size_t>(cache_hash(e.k1, e.k2)) & set_mask;
    CacheEntry* const way = fresh[set].way;
    way[1] = way[0];
    way[0] = e;
  };
  for (const CacheSet& s : cache_) {
    place(s.way[1]);
    place(s.way[0]);
  }
  cache_ = std::move(fresh);
  ++cache_log2_;
  cache_set_mask_ = set_mask;
  cache_inserts_since_resize_ = 0;
  counters_.bump(telemetry::Counter::kCacheGrowths);
}

void Manager::set_cache_growth_limit(unsigned max_log2) noexcept {
  max_cache_log2_ = std::clamp(max_log2, cache_log2_, kMaxCacheLog2);
}

Edge Manager::ite(Edge f, Edge g, Edge h) {
  // Terminal cases.
  if (f == kOne) return g;
  if (f == kZero) return h;
  if (g == h) return g;
  if (g == kOne && h == kZero) return f;
  if (g == kZero && h == kOne) return !f;
  // Replace g/h when they repeat f: ite(f, f, h) = ite(f, 1, h), etc.
  if (f == g) g = kOne;
  else if (f == !g) g = kZero;
  if (f == h) h = kZero;
  else if (f == !h) h = kOne;
  if (g == h) return g;
  if (g == kOne && h == kZero) return f;
  if (g == kZero && h == kOne) return !f;

  // Canonical triple: among equivalent argument forms pick the one whose
  // first argument has the topmost variable (Brace/Rudell/Bryant).
  const std::uint32_t lf = level_of(f);
  if (g == kOne) {
    if (level_of(h) < lf) std::swap(f, h);  // ite(f,1,h) == ite(h,1,f)
  } else if (h == kZero) {
    if (level_of(g) < lf) std::swap(f, g);  // ite(f,g,0) == ite(g,f,0)
  } else if (h == kOne) {
    if (level_of(g) < lf) {                 // ite(f,g,1) == ite(!g,!f,1)
      const Edge nf = !g;
      g = !f;
      f = nf;
    }
  } else if (g == kZero) {
    if (level_of(h) < lf) {                 // ite(f,0,h) == ite(!h,0,!f)
      const Edge nf = !h;
      h = !f;
      f = nf;
    }
  } else if (g == !h) {
    if (level_of(g) < lf) {                 // ite(f,g,!g) == ite(g,f,!f)
      const Edge nf = g;
      g = f;
      f = nf;
      h = !g;
    }
  }
  // First argument regular.
  if (f.complemented()) {
    std::swap(g, h);
    f = !f;
  }
  // Output complement: cache only results with a regular g.
  const bool out_complement = g.complemented();
  if (out_complement) {
    g = !g;
    h = !h;
  }

  Edge result;
  const CacheKey key = cache_key(cache_tag::kIte, f, g, h);
  if (cache_lookup(key, &result)) {
    return result.complement_if(out_complement);
  }
  // One budgeted step per cache miss.  An abort mid-recursion is safe: every
  // node built so far is dead (ref == 0) and the next GC reclaims it.
  governor_.charge_step();

  const std::uint32_t v = top_var(f, g, h);
  const auto [f1, f0] = branches(f, v);
  const auto [g1, g0] = branches(g, v);
  const auto [h1, h0] = branches(h, v);
  const Edge t = ite(f1, g1, h1);
  const Edge e = ite(f0, g0, h0);
  result = make_node(v, t, e);
  cache_insert(key, result);
  return result.complement_if(out_complement);
}

// ---------------------------------------------------------------------
// Specialized two-operand apply kernels.  These skip the ITE
// standard-triple normalizer: the terminal tests and the commutative
// canonicalization below are the whole preamble, and the dedicated cache
// tags keep AND/XOR results out of the (busier) ITE key space.
// ---------------------------------------------------------------------

Edge Manager::and_kernel(Edge f, Edge g) {
  // Terminal cases.
  if (f == g) return f;
  if (f == !g || f == kZero || g == kZero) return kZero;
  if (f == kOne) return g;
  if (g == kOne) return f;
  // Commutative canonicalization: order the operands by raw edge bits so
  // (f, g) and (g, f) share one cache entry.  disjoint_rec() canonicalizes
  // identically, which is what lets the two share AND->0 results.
  if (f.bits > g.bits) std::swap(f, g);
  Edge result;
  const CacheKey key = cache_key(cache_tag::kAnd, f, g, kZero);
  if (cache_lookup(key, &result)) return result;
  // One budgeted step per cache miss, exactly like ite(); an abort leaves
  // only dead nodes behind.
  governor_.charge_step();
  const std::uint32_t v = top_var(f, g);
  const auto [f1, f0] = branches(f, v);
  const auto [g1, g0] = branches(g, v);
  const Edge t = and_kernel(f1, g1);
  const Edge e = and_kernel(f0, g0);
  result = make_node(v, t, e);
  cache_insert(key, result);
  return result;
}

Edge Manager::xor_kernel(Edge f, Edge g) {
  // Terminal cases.
  if (f == g) return kZero;
  if (f == !g) return kOne;
  if (f == kZero) return g;
  if (f == kOne) return !g;
  if (g == kZero) return f;
  if (g == kOne) return !f;
  // XOR ignores operand complements up to output complement:
  // f ^ g == !( !f ^ g ) == !( f ^ !g ) == !f ^ !g.  Strip both to regular
  // edges so all four combinations share one cache entry, then order
  // commutatively.
  bool out_complement = false;
  if (f.complemented()) {
    f = !f;
    out_complement = !out_complement;
  }
  if (g.complemented()) {
    g = !g;
    out_complement = !out_complement;
  }
  if (f.bits > g.bits) std::swap(f, g);
  Edge result;
  const CacheKey key = cache_key(cache_tag::kXor, f, g, kZero);
  if (cache_lookup(key, &result)) {
    return result.complement_if(out_complement);
  }
  governor_.charge_step();
  const std::uint32_t v = top_var(f, g);
  const auto [f1, f0] = branches(f, v);
  const auto [g1, g0] = branches(g, v);
  const Edge t = xor_kernel(f1, g1);
  const Edge e = xor_kernel(f0, g0);
  result = make_node(v, t, e);
  cache_insert(key, result);
  return result.complement_if(out_complement);
}

bool Manager::disjoint(Edge f, Edge g) { return disjoint_rec(f, g); }

bool Manager::disjoint_rec(Edge f, Edge g) {
  // Terminal cases: with neither operand zero, a constant or an equal
  // pair intersects; complementary operands never do.
  if (f == kZero || g == kZero) return true;
  if (f == !g) return true;
  if (f == kOne || g == kOne || f == g) return false;
  if (f.bits > g.bits) std::swap(f, g);  // match and_kernel's canonical key
  Edge cached;
  // A memoized AND answers exactly; an AND->0 subproof doubles as a
  // disjointness certificate and vice versa (inserted below).
  const CacheKey and_key = cache_key(cache_tag::kAnd, f, g, kZero);
  if (cache_lookup(and_key, &cached)) return cached == kZero;
  // Intersection markers from earlier early-exit walks: stored under their
  // own tag because "f & g != 0" does not say what f & g *is*.
  const CacheKey marker_key = cache_key(cache_tag::kDisjoint, f, g, kZero);
  if (cache_lookup(marker_key, &cached)) return false;
  governor_.charge_step();
  const std::uint32_t v = top_var(f, g);
  const auto [f1, f0] = branches(f, v);
  const auto [g1, g0] = branches(g, v);
  // Early exit: the first intersecting path answers the whole query; the
  // remaining cofactor pair is never visited and no nodes are built.
  if (!disjoint_rec(f1, g1) || !disjoint_rec(f0, g0)) {
    cache_insert(marker_key, kOne);
    return false;
  }
  cache_insert(and_key, kZero);  // genuine AND result: f & g == 0
  return true;
}

bool Manager::agree(Edge f, Edge g, Edge c) {
  // Terminal cases: nothing to compare off the care set or between equal
  // functions; distinct functions differ somewhere, so on c == 1 they
  // disagree, and complementary ones disagree everywhere (c != 0 here).
  if (c == kZero || f == g) return true;
  if (f == !g || c == kOne) return false;
  // XOR is symmetric and invariant under complementing both operands:
  // order by bits, then make f regular, so the up-to-eight spellings of
  // one query share one cache entry.
  if (f.bits > g.bits) std::swap(f, g);
  if (f.complemented()) {
    f = !f;
    g = !g;
  }
  Edge cached;
  const CacheKey key = cache_key(cache_tag::kAgree, f, g, c);
  if (cache_lookup(key, &cached)) return cached == kOne;
  governor_.charge_step();
  const std::uint32_t v = top_var(f, g, c);
  const auto [f1, f0] = branches(f, v);
  const auto [g1, g0] = branches(g, v);
  const auto [c1, c0] = branches(c, v);
  // Early exit: the first disagreeing cofactor triple answers the query.
  const bool result = agree(f1, g1, c1) && agree(f0, g0, c0);
  cache_insert(key, result ? kOne : kZero);
  return result;
}

std::uint64_t Manager::signature(Edge e) const {
  // Sized once up front: the recursion allocates nothing, so the slot
  // references it holds stay valid.
  if (signatures_.size() < nodes_.size()) signatures_.resize(nodes_.size());
  return signature_rec(e);
}

std::uint64_t Manager::signature_rec(Edge e) const noexcept {
  std::uint64_t sig = ~0ull;  // the terminal is 1 under every pattern
  if (!is_const(e)) {
    SignatureSlot& slot = signatures_[e.index()];
    if (slot.epoch != cache_epoch_) {
      const Node& n = nodes_[e.index()];
      const std::uint64_t x = pattern_word(n.var);
      slot.sig = (x & signature_rec(n.hi)) | (~x & signature_rec(n.lo));
      slot.epoch = cache_epoch_;
    }
    sig = slot.sig;
  }
  return e.complemented() ? ~sig : sig;
}

// ---------------------------------------------------------------------
// Dynamic reordering (Rudell's sifting over in-place level swaps).
// ---------------------------------------------------------------------

std::ptrdiff_t Manager::swap_adjacent_levels(std::uint32_t level) {
  BDDMIN_CHECK(level + 1 < num_vars_);
  // Injected before any mutation: an abort *between* swaps, exactly where
  // the up-front reserve below would also throw.
  if (BDDMIN_FAILPOINT("reorder_swap_oom")) {
    throw OutOfMemory("failpoint: reorder swap", 0);
  }
  counters_.bump(telemetry::Counter::kSiftSwaps);
  const std::uint32_t x = level_to_var_[level];
  const std::uint32_t y = level_to_var_[level + 1];
  const std::ptrdiff_t before = static_cast<std::ptrdiff_t>(unique_size());

  // Nodes labelled x that depend on y must be restructured; the rest keep
  // their label and simply end up one level lower.
  std::vector<std::uint32_t> interacting;
  for (const std::uint32_t head : subtables_[x].buckets) {
    for (std::uint32_t i = head; i != kNilIndex; i = nodes_[i].next) {
      const Node& n = nodes_[i];
      if (nodes_[n.hi.index()].var == y || nodes_[n.lo.index()].var == y) {
        interacting.push_back(i);
      }
    }
  }
  // Once the order maps are flipped and the rewrite below starts, a throw
  // would tear the table (maps flipped, nodes half rewritten, the current
  // node unlinked) — exactly the abort the strong guarantee forbids.  So
  // the whole mutation runs with the node quota suspended, and the
  // worst-case slot growth (2 fresh nodes per interacting node, plus their
  // free-list slots when they die again) is reserved up front, where a
  // failed allocation still leaves the table untouched.  The quota is
  // re-enforced at the safe point after the swap completes, so a budgeted
  // reorder still aborts — between swaps, never inside one.  (grow_buckets
  // keeps the table consistent on its own OOM path, see its handler.)
  std::vector<std::uint32_t> dead;
  NodeQuotaSuspension quota_pause(governor_);
  try {
    reserve_slots(nodes_.size() + 2 * interacting.size());
    dead.reserve(2 * interacting.size());
  } catch (const std::bad_alloc&) {
    throw OutOfMemory("node table",
                      2 * interacting.size() * sizeof(Node));
  }
  // Flip the order maps first so make_node's level assertions see the new
  // world while the x-children of the rewritten nodes are created.
  level_to_var_[level] = y;
  level_to_var_[level + 1] = x;
  var_to_level_[x] = level + 1;
  var_to_level_[y] = level;

  for (const std::uint32_t index : interacting) {
    subtable_unlink(index);
    const Edge f1 = nodes_[index].hi;  // regular by invariant
    const Edge f0 = nodes_[index].lo;
    const auto [f11, f10] = branches(f1, y);
    const auto [f01, f00] = branches(f0, y);
    // (x,(y,f11,f10),(y,f01,f00))  ==  (y,(x,f11,f01),(x,f10,f00))
    const Edge g1 = make_node(x, f11, f01);
    const Edge g0 = make_node(x, f10, f00);
    BDDMIN_DCHECK(!g1.complemented());
    ref(g1);
    ref(g0);
    Node& n = nodes_[index];  // re-fetch: make_node may have reallocated
    n.var = y;
    n.hi = g1;
    n.lo = g0;
    subtable_link(index);
    deref(f1);
    deref(f0);
    if (nodes_[f1.index()].ref == 0) dead.push_back(f1.index());
    if (nodes_[f0.index()].ref == 0) dead.push_back(f0.index());
  }
  // Free the ex-children that died, so repeated swaps (sifting) see an
  // undistorted size signal and swap∘swap is the structural identity.
  bool freed_any = false;
  while (!dead.empty()) {
    const std::uint32_t i = dead.back();
    dead.pop_back();
    Node& n = nodes_[i];
    if (n.var == kFreeVar || n.ref != 0) continue;
    subtable_unlink(i);
    for (const Edge child : {n.hi, n.lo}) {
      Node& cn = nodes_[child.index()];
      if (cn.ref == 0xFFFF'FFFFu) continue;
      if (--cn.ref == 0) {
        --live_count_;
        ++dead_count_;
        dead.push_back(child.index());
      }
    }
    n.var = kFreeVar;
    free_list_.push_back(i);
    --dead_count_;
    // Swap frees bypass garbage_collect(); count them separately so the
    // audit's insert/reclaim cross-check still balances.
    counters_.bump(telemetry::Counter::kReorderNodesFreed);
    freed_any = true;
  }
  // Freed slots may be referenced by memoized results; drop them (O(1)).
  if (freed_any) clear_caches();
  return static_cast<std::ptrdiff_t>(unique_size()) - before;
}

void Manager::sift_var(std::uint32_t var, double max_growth) {
  if (num_vars_ < 2) return;
  std::ptrdiff_t size = static_cast<std::ptrdiff_t>(unique_size());
  std::ptrdiff_t best = size;
  std::uint32_t best_level = level_of_var(var);
  const std::ptrdiff_t limit =
      static_cast<std::ptrdiff_t>(static_cast<double>(size) * max_growth) + 2;
  // Each swap runs with the node quota suspended (it must not abort
  // mid-mutation, see swap_adjacent_levels); re-enforce the quota at the
  // swap boundaries, where the table is consistent — a budgeted reorder
  // then aborts between swaps with the strong guarantee intact.
  const auto quota_safe_point = [this] {
    if (governor_.node_limited()) {
      governor_.check_nodes(live_count_ + dead_count_);
    }
  };
  // Downward pass.
  while (level_of_var(var) + 1 < num_vars_ && size <= limit) {
    size += swap_adjacent_levels(level_of_var(var));
    quota_safe_point();
    if (size < best) {
      best = size;
      best_level = level_of_var(var);
    }
  }
  // Upward pass (through the start position to the top).
  while (level_of_var(var) > 0 && size <= limit) {
    size += swap_adjacent_levels(level_of_var(var) - 1);
    quota_safe_point();
    if (size <= best) {
      best = size;
      best_level = level_of_var(var);
    }
  }
  // Settle at the best position seen.
  while (level_of_var(var) < best_level) {
    size += swap_adjacent_levels(level_of_var(var));
    quota_safe_point();
  }
  while (level_of_var(var) > best_level) {
    size += swap_adjacent_levels(level_of_var(var) - 1);
    quota_safe_point();
  }
}

std::size_t Manager::reorder_sift(double max_growth) {
  garbage_collect();  // dead nodes would distort the size signal
  std::vector<std::uint32_t> vars(num_vars_);
  std::iota(vars.begin(), vars.end(), 0u);
  std::stable_sort(vars.begin(), vars.end(), [&](std::uint32_t a, std::uint32_t b) {
    return subtables_[a].count > subtables_[b].count;
  });
  for (const std::uint32_t var : vars) sift_var(var, max_growth);
  clear_caches();
  return unique_size();
}

void Manager::set_order(std::span<const std::uint32_t> order) {
  if (order.size() != num_vars_) {
    throw std::invalid_argument("set_order: wrong permutation size");
  }
  std::vector<bool> seen(num_vars_, false);
  for (const std::uint32_t v : order) {
    if (v >= num_vars_ || seen[v]) {
      throw std::invalid_argument("set_order: not a permutation");
    }
    seen[v] = true;
  }
  // Selection sort by adjacent swaps: bubble each target variable up.
  // As in sift_var, the node quota is enforced between swaps (never
  // inside one); an abort leaves a consistent, partially permuted table.
  for (std::uint32_t target = 0; target < num_vars_; ++target) {
    const std::uint32_t var = order[target];
    while (level_of_var(var) > target) {
      (void)swap_adjacent_levels(level_of_var(var) - 1);
      if (governor_.node_limited()) {
        governor_.check_nodes(live_count_ + dead_count_);
      }
    }
  }
  clear_caches();
}

void Manager::check_invariants() const {
  // Thin wrapper over BddAudit (analysis/audit.hpp): the structural pass
  // covers everything the historical inline checks did, and the ref-count
  // pass closes their gap — live_count_/dead_count_ are validated against
  // the actual per-node reference counts, not just the chain totals.
  analysis::AuditReport report;
  analysis::audit_structure(*this, report);
  analysis::audit_refcounts(*this, {}, /*exact_roots=*/false, report);
  if (!report.ok()) throw std::logic_error(report.summary());
}

}  // namespace bddmin
