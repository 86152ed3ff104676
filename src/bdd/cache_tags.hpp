/// \file cache_tags.hpp
/// \brief The single registry of computed-cache operation tags.
///
/// Every `Manager::cache_insert` / `cache_lookup` key carries a 32-bit
/// operation tag.  Tags partition the one shared cache between operations:
/// two ops sharing a tag silently poison each other's memoized results, so
/// ad-hoc tag constants scattered over the tree are a correctness hazard.
/// This header is therefore the *only* place a tag value may be defined —
/// rule R2 of tools/bddmin_lint.py rejects cache_insert/cache_lookup call
/// sites whose tag does not resolve here, and rejects duplicate values
/// inside this file.
///
/// Layout of the tag space:
///   1..7    manager-internal recursions (ite, the apply kernels and the
///           early-exit predicates);
///   8..63   budgeted free-function recursions (bdd/ops.cpp);
///   >= 64   (`kUserBase`, aka Manager::kUserOpBase) client algorithms —
///           carve new client tags as `kUserBase + n` HERE, not locally.
///
/// Telemetry classifies cache traffic per tag (see cache_hit_counter_of in
/// bdd/manager.cpp) and the cache audit validates that every cached entry
/// carries a registered tag (analysis/cache_audit.cpp).
#pragma once

#include <cstdint>

namespace bddmin::cache_tag {

// ---- Manager-internal recursions (reserved range 1..7) -----------------
inline constexpr std::uint32_t kIte = 1;       ///< Manager::ite
inline constexpr std::uint32_t kAnd = 2;       ///< and_kernel (+ leq/disjoint subproofs)
inline constexpr std::uint32_t kXor = 3;       ///< xor_kernel
inline constexpr std::uint32_t kDisjoint = 4;  ///< disjoint_rec intersection markers
inline constexpr std::uint32_t kAgree = 5;     ///< Manager::agree verdicts (kOne/kZero)

// ---- Budgeted free-function recursions, bdd/ops.cpp (range 8..63) ------
inline constexpr std::uint32_t kCofactor = 8;
inline constexpr std::uint32_t kExists = 9;
inline constexpr std::uint32_t kAndExists = 10;
inline constexpr std::uint32_t kCompose = 11;

// ---- Client algorithms (>= kUserBase) ----------------------------------
/// First tag available to client algorithms; Manager::kUserOpBase aliases
/// this.  Telemetry buckets everything from here up as the "user" class.
inline constexpr std::uint32_t kUserBase = 64;

}  // namespace bddmin::cache_tag
