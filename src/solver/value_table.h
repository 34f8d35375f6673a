// W(p)[L] value tables — the paper's optimal guaranteed work, computed
// exactly on the integer tick grid.
//
// Game semantics (§2.2, sequentialized): with residual lifespan L and p
// potential interrupts, A picks the next period length t; the adversary
// either lets it complete (A banks t ⊖ c, continues with (p, L−t)) or kills
// it at its last instant (A banks nothing, continues with (p−1, L−t)).
// Committing a whole episode-schedule is equivalent: the tail of an episode
// is exactly A's continuation in the no-interrupt branch, and no other
// information arrives at period boundaries.
//
//   V_0(L) = L ⊖ c                                   (Prop 4.1(d))
//   V_p(L) = max_{1<=t<=L} min( (t ⊖ c) + V_p(L−t),  V_{p−1}(L−t) )
//
// Values are exact integers; `solve_reference` is the O(P·N²) oracle and
// `solve_fast` the O(P·N) production solver (they agree bit-for-bit;
// see tests/solver_cross_check_test.cpp).
//
// Storage is one contiguous slab of (max_p+1) × (max_lifespan+1) Ticks in
// level-major order, so level(p) / mutable_level(p) are zero-copy spans into
// adjacent memory — the wavefront solver walks level p and level p−1
// together and wants both streams prefetch-friendly.
//
// Two storage modes share one read interface:
//   * OWNING  — the constructor allocates the slab; the solvers fill it via
//     mutable_level. This is every freshly solved table.
//   * VIEW    — ValueTable::view wraps an externally owned, already-final
//     slab (in practice: the payload of a memory-mapped store file, see
//     solver/table_store.h) without copying a byte. The view holds a
//     type-erased keepalive so the backing storage outlives every reader;
//     mutable_level on a view throws std::logic_error — a mapped table is
//     immutable BY CONSTRUCTION, which is what makes "mapped and solved
//     tables are bit-identical" a provable property rather than a
//     convention.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "core/types.h"

namespace nowsched::solver {

class ValueTable {
 public:
  /// A zero-initialized owning table; filled by the solvers.
  ValueTable(int max_p, Ticks max_lifespan, const Params& params);

  /// A non-owning, read-only table over an externally owned slab. `slab`
  /// must hold exactly (max_p+1) × (max_lifespan+1) entries in level-major
  /// order and must stay valid for as long as `keepalive` is held (the view
  /// and every copy of it hold `keepalive` for their whole lifetime).
  /// Throws std::invalid_argument on a dimension/size mismatch.
  static ValueTable view(int max_p, Ticks max_lifespan, const Params& params,
                         std::span<const Ticks> slab,
                         std::shared_ptr<const void> keepalive);

  /// W(p)[L]; requires 0 <= p <= max_p and 0 <= L <= max_lifespan.
  Ticks value(int p, Ticks lifespan) const;

  /// The whole level p as a span over L = 0..max_lifespan.
  std::span<const Ticks> level(int p) const;

  int max_interrupts() const noexcept { return max_p_; }
  Ticks max_lifespan() const noexcept { return max_l_; }
  const Params& params() const noexcept { return params_; }

  /// True when this table owns its slab (and mutable_level is usable);
  /// false for views over external storage.
  bool owns_storage() const noexcept { return view_data_ == nullptr; }

  /// The full level-major slab — what the table store serializes and what
  /// the bit-identity tests compare. Valid for owning tables and views.
  std::span<const Ticks> slab() const noexcept { return {data(), entries()}; }

  /// Slab size in bytes — what a resident table costs a cache (the
  /// (max_p+1) × (max_lifespan+1) value storage; the struct header is
  /// negligible against any real table). Identical for an owning table and
  /// a view of it: byte budgets meter logical table size, not which tier's
  /// memory currently backs it.
  std::size_t bytes() const noexcept { return entries() * sizeof(Ticks); }

  /// Mutable level access for the solvers. Owning tables only: a view is
  /// immutable by construction and throws std::logic_error.
  ///
  /// Concurrency contract (what the wavefront solver relies on): distinct
  /// levels are disjoint element ranges of one slab, so two threads may
  /// write different levels — or write level p while a third reads level
  /// p−1 at indices already final — without a data race, provided the
  /// writer/reader ordering is established externally (the thread pool's
  /// run_dag dependency edges do this; see util/thread_pool.h). The spans
  /// themselves are stable: no member function invalidates them after
  /// construction.
  std::span<Ticks> mutable_level(int p);

 private:
  /// Validates the dimensions and allocates nothing (the view path).
  struct NoStorage {};
  ValueTable(int max_p, Ticks max_lifespan, const Params& params, NoStorage);

  std::size_t stride() const noexcept { return static_cast<std::size_t>(max_l_) + 1; }
  std::size_t entries() const noexcept {
    return (static_cast<std::size_t>(max_p_) + 1) * stride();
  }
  /// The slab base, whichever storage mode backs it. Owning tables resolve
  /// through owned_ on every call (not a cached pointer), so copies and
  /// moves need no special member functions to stay correct.
  const Ticks* data() const noexcept {
    return view_data_ != nullptr ? view_data_ : owned_.data();
  }

  int max_p_;
  Ticks max_l_;
  Params params_;
  std::vector<Ticks> owned_;         // level-major: data()[p * stride() + L]
  const Ticks* view_data_ = nullptr; // non-null IFF this is a view
  std::shared_ptr<const void> keepalive_;  // pins a view's backing storage
};

}  // namespace nowsched::solver
