/// \file pair_scratch.hpp
/// \brief Epoch-stamped open-addressing map from 64-bit keys to 64-bit
/// values: the memo of the minimization walks, owned by the Manager.
///
/// The sibling traversal, opt_lv's per-level collect and substitute walks
/// and the Theorem 7 bound each memoize on an (f, c) edge pair (or a node
/// index); the collect walk also files each boundary pair's vertex there.
/// One table per Manager serves them all: begin() starts a walk by
/// bumping the epoch in O(1), so a walk allocates nothing once the table
/// has grown to the largest walk the manager has seen.  The table is
/// lossless — it never evicts, and grows by doubling — so a memoized walk
/// does exactly the work of one with a private hash map.  The 3/4 load
/// cap is a memory choice: at 1/2 the Table-3 call stream's peak RSS rose
/// 5 % for no measurable speed.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "analysis/check.hpp"

namespace bddmin {

namespace analysis {
struct ManagerAccess;
}  // namespace analysis

/// One walk at a time per table: begin() hands out a Walk guard, and a
/// second begin() while that guard lives trips a BDDMIN_DCHECK (the walks
/// never nest, and a Manager is single-threaded by contract).  The guard
/// ends the walk on scope exit, including a ResourceExhausted unwind.
class PairScratch {
 public:
  class [[nodiscard]] Walk {
   public:
    explicit Walk(PairScratch& table) noexcept : table_(table) {}
    Walk(const Walk&) = delete;
    Walk& operator=(const Walk&) = delete;
    ~Walk() { table_.active_ = false; }

   private:
    PairScratch& table_;
  };

  /// Start a walk: every entry of earlier walks becomes invisible.
  Walk begin() {
    BDDMIN_DCHECK(!active_);
    active_ = true;
    size_ = 0;
    if (++epoch_ == 0) {  // wrapped: all stamps are ambiguous, clear them
      for (Slot& s : slots_) s.stamp = 0;
      epoch_ = 1;
    }
    return Walk(*this);
  }

  /// The value stored under \p key this walk, or nullptr; valid until the
  /// next insert.
  [[nodiscard]] const std::uint64_t* find(std::uint64_t key) const noexcept {
    BDDMIN_DCHECK(active_);
    if (slots_.empty()) return nullptr;
    for (std::size_t i = home(key);; i = (i + 1) & mask()) {
      const Slot& s = slots_[i];
      if (s.stamp != epoch_) return nullptr;
      if (s.key == key) return &s.value;
    }
  }

  /// Store \p value under \p key unless the key is already present this
  /// walk; returns true if it was stored.
  bool insert(std::uint64_t key, std::uint64_t value) {
    return try_emplace(key, value).second;
  }

  /// insert() that also hands out the key's value slot, the stored or the
  /// present one, for the caller to rewrite; valid until the next insert.
  std::pair<std::uint64_t*, bool> try_emplace(std::uint64_t key,
                                              std::uint64_t value) {
    BDDMIN_DCHECK(active_);
    if (4 * (size_ + 1) > 3 * slots_.size()) grow();  // load <= 3/4
    for (std::size_t i = home(key);; i = (i + 1) & mask()) {
      Slot& s = slots_[i];
      if (s.stamp != epoch_) {
        s = Slot{key, value, epoch_};
        ++size_;
        return {&s.value, true};
      }
      if (s.key == key) return {&s.value, false};
    }
  }

  /// Entries stored this walk.
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// Slot count; kept across walks and across Manager::reset().
  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }

 private:
  friend struct analysis::ManagerAccess;

  struct Slot {
    std::uint64_t key = 0;
    std::uint64_t value = 0;
    std::uint32_t stamp = 0;  // live iff equal to epoch_
  };
  static constexpr std::size_t kMinSlots = 64;

  [[nodiscard]] std::size_t mask() const noexcept { return slots_.size() - 1; }
  /// Fibonacci hashing: the product's top bits depend on every key bit,
  /// so (f, c) and (!f, !c) do not share a home.
  [[nodiscard]] std::size_t home(std::uint64_t key) const noexcept {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  /// Double the slot count (or allocate the first kMinSlots), re-placing
  /// this walk's entries; stale entries are dropped.
  void grow() {
    std::vector<Slot> old(std::max(kMinSlots, 2 * slots_.size()));
    old.swap(slots_);
    shift_ = static_cast<unsigned>(std::countl_zero(mask()));
    const std::uint32_t epoch = epoch_;
    epoch_ = 1;
    size_ = 0;
    for (const Slot& s : old) {
      if (s.stamp == epoch) insert(s.key, s.value);
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  unsigned shift_ = 64;  // 64 - log2(slot count)
  std::uint32_t epoch_ = 0;
  bool active_ = false;
};

}  // namespace bddmin
