// Crossover solver for W(p)[L] — O(P·N) two-pointer level-fill kernel.
//
// For t in [c, L] write
//   A(t) = (t − c) + V_p(L − t)   — non-decreasing in t (V_p is 1-Lipschitz),
//   B(t) = V_{p−1}(L − t)         — non-increasing in t.
// max_t min(A, B) is attained adjacent to the A/B crossover. Period lengths
// t < c contribute exactly V_p(L − t) <= V_p(L − 1) and t = 1 attains
// V_p(L − 1) (the adversary never spends an interrupt on an unproductive
// period), so
//   V_p(L) = max( V_p(L − 1),  max_{t in [c, L]} min(A, B) ).
//
// The kernel exploits that the crossover index is monotone in L, replacing
// a per-lifespan binary search with an amortized O(1) advance inside a
// blocked two-phase scan (crossover pass + prefix-max carry merge) — the
// derivation and exactness argument live beside the kernel in
// fast_solver.cpp. tests/solver_fill_kernel_test.cpp diffs it against a
// binary-search oracle; the conformance fuzzer diffs whole solves against
// solve_reference.
//
// Parallel structure: cut every level into blocks of c consecutive
// lifespans. Within a block the crossover scans read V_p only at indices
// l − t <= l − c, i.e. strictly below the block start, and V_{p−1} at the
// same indices — so cell (p, b) of the (level, block) grid depends on
// exactly two cells: (p, b−1) for the carry and its own level's earlier
// values, and (p−1, b−1) for the previous level's values. solve_fast can run
// the whole grid as one task-graph wavefront on util::ThreadPool::run_dag —
// no barrier anywhere; after a one-block pipeline fill, all max_p levels
// advance concurrently. DESIGN.md "Parallel solver architecture" has the
// diagram and the measured numbers.
#pragma once

#include <cstddef>
#include <span>
#include <string>

#include "solver/value_table.h"
#include "util/thread_pool.h"

namespace nowsched::solver {

/// Runs one level-fill over lifespans [lo, hi):
///   cur[l] = max( crossover_best(l), cur[l − 1] )   for l in [lo, hi).
/// Requires 1 <= lo <= hi <= max index + 1 and cur/prev final below lo (the
/// same contract the wavefront cells rely on). Exposed for the differential
/// battery and E10's fill-only timing; solve_fast runs every level (or
/// every wavefront cell) through it.
void run_fill_kernel(std::span<Ticks> cur, std::span<const Ticks> prev,
                     Ticks lo, Ticks hi, Ticks c);

/// How solve_fast decides between the sequential and the wavefront path.
enum class ParallelMode {
  kAuto,            ///< engage the wavefront iff plan_wavefront() says so
  kForceWavefront,  ///< always take the wavefront path (tests/benches); falls
                    ///< back to sequential only when `pool` is null
  kForceSequential, ///< never parallelize, even with a pool
};

/// Smallest setup cost c for which the auto mode engages the wavefront: a
/// block is c lifespans wide, so c sets the work per task. 512 is the
/// `wavefront_crossover_c` E10 measured on a 4-thread AVX2 host.
inline constexpr Ticks kWavefrontMinC = 512;

/// The engagement decision for a prospective wavefront run.
struct WavefrontPlan {
  bool engage = false;
  std::size_t num_blocks = 0;  ///< ceil(max_lifespan / c) blocks per level
  int width = 0;               ///< max concurrent cells:
                               ///< min(max_p, pool size, hardware threads)
  std::string reason;          ///< one-line why (engaged or declined)
};

/// The static engagement rule: engage iff `pool` is non-null, width >= 2,
/// num_blocks >= 3 and c >= kWavefrontMinC. Pure — no timing, so the same
/// grid and pool size always get the same answer. On a 1-core machine the
/// width is 1 and the plan never engages.
WavefrontPlan plan_wavefront(int max_p, Ticks max_lifespan, const Params& params,
                             util::ThreadPool* pool);

/// Fills W(p)[L] for all p in [0, max_p], L in [0, max_lifespan].
///
/// `pool` enables the wavefront-parallel path (subject to `mode`); pass
/// nullptr for strictly serial. The pool is only used through blocking
/// run_dag calls — solve_fast returns with the table complete and all
/// worker writes visible to the caller (see util/thread_pool.h for the
/// happens-before contract). Do not call from inside a task running on the
/// same pool. Both paths yield a bit-identical table.
ValueTable solve_fast(int max_p, Ticks max_lifespan, const Params& params,
                      util::ThreadPool* pool = nullptr,
                      ParallelMode mode = ParallelMode::kAuto);

}  // namespace nowsched::solver
