/// \file access.hpp
/// \brief ManagerAccess: the one friend of Manager, giving the BddAudit
/// passes and the fault-injection harness read (and, for the harness,
/// write) access to the node table, subtables, free list and computed
/// cache without widening the public Manager API.
///
/// The private nested types (SubTable, CacheEntry) cannot be *named*
/// outside Manager, but objects of those types can be used through `auto`;
/// the deduced-return-type accessors below exploit exactly that.  Keep
/// every internals-touching helper in this struct so the audit subsystem
/// has a single, auditable doorway into the manager.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "bdd/manager.hpp"

namespace bddmin::analysis {

struct ManagerAccess {
  static const std::vector<Node>& nodes(const Manager& m) noexcept {
    return m.nodes_;
  }
  static std::vector<Node>& nodes(Manager& m) noexcept { return m.nodes_; }

  /// Per-variable unique subtables; element type is Manager's private
  /// SubTable (`.buckets`, `.count`) — bind with `const auto&`.
  static const auto& subtables(const Manager& m) noexcept {
    return m.subtables_;
  }
  static auto& subtables(Manager& m) noexcept { return m.subtables_; }

  static const std::vector<std::uint32_t>& free_list(const Manager& m) noexcept {
    return m.free_list_;
  }

  static const std::vector<std::uint32_t>& var_to_level(const Manager& m) noexcept {
    return m.var_to_level_;
  }
  static const std::vector<std::uint32_t>& level_to_var(const Manager& m) noexcept {
    return m.level_to_var_;
  }

  /// Computed-cache sets; element type is Manager's private CacheSet, a
  /// 2-entry `.way` array of CacheEntry (`.k1`, `.k2`, `.epoch`,
  /// `.result`) — bind with `auto&`.
  static const auto& cache(const Manager& m) noexcept { return m.cache_; }
  static auto& cache(Manager& m) noexcept { return m.cache_; }
  static std::uint64_t cache_epoch(const Manager& m) noexcept {
    return m.cache_epoch_;
  }

  static std::size_t live_count(const Manager& m) noexcept { return m.live_count_; }
  static std::size_t dead_count(const Manager& m) noexcept { return m.dead_count_; }
  static std::size_t& live_count(Manager& m) noexcept { return m.live_count_; }
  static std::size_t& dead_count(Manager& m) noexcept { return m.dead_count_; }

  /// The manager's internal operation tags.  Thin forwarders into the
  /// bdd/cache_tags.hpp registry, kept so audit code reads
  /// `ManagerAccess::op_ite()` — "the tag the manager files ITE results
  /// under" — rather than naming the registry constant directly.
  static constexpr std::uint32_t op_ite() noexcept { return cache_tag::kIte; }
  static constexpr std::uint32_t op_and() noexcept { return cache_tag::kAnd; }
  static constexpr std::uint32_t op_xor() noexcept { return cache_tag::kXor; }
  static constexpr std::uint32_t op_disjoint() noexcept {
    return cache_tag::kDisjoint;
  }
  static constexpr std::uint32_t op_agree() noexcept {
    return cache_tag::kAgree;
  }

  /// Bucket a (hi, lo) pair hashes to within a table of \p bucket_count
  /// (power-of-two) buckets.
  static std::size_t bucket_of(Edge hi, Edge lo, std::size_t bucket_count) noexcept {
    return Manager::node_hash(hi, lo) & (bucket_count - 1);
  }
};

}  // namespace bddmin::analysis
