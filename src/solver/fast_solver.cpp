#include "solver/fast_solver.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <thread>

namespace nowsched::solver {

// ## Derivation of the two-pointer kernel
//
// Per lifespan l the crossover of
//   A(t) = (t − c) + cur[l − t]   (non-decreasing in t)
//   B(t) = prev[l − t]            (non-increasing in t)
// over t ∈ [c, l] can be found by binary search. Substitute j = l − t and
// m = l − c (so j ∈ [0, m]):
//
//   crossover_best(l) = max_{0<=j<=m} min( (m − j) + cur[j], prev[j] )
//
// Define w[j] = j + prev[j] − cur[j]. Under the table invariants (cur and
// prev non-decreasing and 1-Lipschitz, cur <= prev pointwise) w is
// non-decreasing, and "B(t) <= A(t)" at position j is exactly "w[j] <= m".
// So the crossover index
//
//   k(m) = max{ j ∈ [0, m] : w[j] <= m }      (or −1 when w[0] > m)
//
// is MONOTONE NON-DECREASING in m — and m increases by exactly 1 per
// lifespan. That turns the per-lifespan O(log) binary search into an
// amortized O(1) two-pointer advance, and
//
//   x(m) = max( k >= 0 ? prev[k] : −inf,  (m − (k+1)) + cur[k+1] )
//
// reproduces the binary-search result bit-for-bit in every branch:
//   * k = −1  ("never crosses"):      x = m + cur[0]            = A(l)
//   * k = m   ("crossed at/before c"): w[m] <= m forces
//     prev[m] <= cur[m], which with the invariant cur <= prev means
//     prev[m] = cur[m] = min(A(c), B(c)); the a-term reads cur[m+1] — one
//     index past the scan range — but cur[m+1] − 1 <= cur[m] <= prev[m]
//     (1-Lipschitz), so that term NEVER wins. The read itself is benign
//     even mid-solve: m+1 <= hi − c <= lo stays inside this cell's own
//     rows, i.e. same-task memory (zero-init or an earlier tile's final
//     value), never another wavefront cell's — no data race, and either
//     value the read can observe is provably below prev[m].
//   * otherwise:                       x = max(B(l − k), A(l − k − 1)),
//     the max(A, B) pair straddling the crossover.
//
// ## Two-phase tile structure
//
// [lo, hi) is processed in tiles of min(256, c) lifespans:
//   phase 1  computes x(m) for the whole tile into a stack buffer, walking
//            k forward (never backward);
//   phase 2  merges the carry:  cur[l] = max(x(m), cur[l − 1]),  a
//            prefix-max over x seeded with cur[t0 − 1].
// A tile's phase 1 runs wholly before its phase 2 writes, so every phase-1
// read must land below the tile start; tile height <= c guarantees it.
//
// Read bounds (the wavefront contract): a tile starting at t0 >= lo probes
// prev/cur only at indices <= m <= t1 − 1 − c < t0, except the benign
// cur[m+1] read argued above, which reaches at most t1 − c <= t0 —
// same-cell memory either way; phase 2 writes [t0, t1) and reads
// cur[t0 − 1]. So a (p, b) cell depends on exactly (p, b−1) and
// (p−1, b−1).
void run_fill_kernel(std::span<Ticks> cur, std::span<const Ticks> prev,
                     Ticks lo, Ticks hi, Ticks c) {
  constexpr Ticks kTileCap = 256;
  const Ticks tile = std::min(kTileCap, c);
  constexpr Ticks kLow = std::numeric_limits<Ticks>::min();
  Ticks x[static_cast<std::size_t>(kTileCap)];

  auto w = [&](Ticks j) {
    return j + prev[static_cast<std::size_t>(j)] -
           cur[static_cast<std::size_t>(j)];
  };

  // Seed k = k(m0) for the block's first lifespan with one binary search
  // (every probe index <= m0 = lo − c < lo, i.e. final memory); afterwards
  // k only advances.
  Ticks k = -1;
  {
    const Ticks m0 = lo - c;
    if (m0 >= 0 && w(0) <= m0) {
      if (w(m0) <= m0) {
        k = m0;
      } else {
        Ticks a = 0, b = m0;  // w(a) <= m0 < w(b)
        while (a + 1 < b) {
          const Ticks mid = a + (b - a) / 2;
          (w(mid) <= m0 ? a : b) = mid;
        }
        k = a;
      }
    }
  }

  for (Ticks t0 = lo; t0 < hi; t0 += tile) {
    const Ticks t1 = std::min(hi, t0 + tile);
    const int len = static_cast<int>(t1 - t0);

    // Phase 1: crossover pass into x[0..len).
    for (int i = 0; i < len; ++i) {
      const Ticks m = (t0 + i) - c;
      if (m < 0) {  // l < c: no completable period, the carry alone decides.
        x[i] = 0;
        continue;
      }
      while (k < m && w(k + 1) <= m) ++k;
      const Ticks a = (m - (k + 1)) + cur[static_cast<std::size_t>(k + 1)];
      x[i] = std::max(k >= 0 ? prev[static_cast<std::size_t>(k)] : kLow, a);
    }

    // Phase 2: prefix-max carry merge x → cur[t0, t1).
    Ticks carry = cur[static_cast<std::size_t>(t0 - 1)];
    for (int j = 0; j < len; ++j) {
      carry = std::max(carry, x[j]);
      cur[static_cast<std::size_t>(t0 + j)] = carry;
    }
  }
}

WavefrontPlan plan_wavefront(int max_p, Ticks max_lifespan, const Params& params,
                             util::ThreadPool* pool) {
  WavefrontPlan plan;
  const Ticks c = params.c;
  plan.num_blocks =
      max_lifespan > 0
          ? static_cast<std::size_t>((max_lifespan + c - 1) / c)
          : 0;
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t pool_threads = pool != nullptr ? pool->size() : 1;
  plan.width = static_cast<int>(std::min<std::size_t>(
      {static_cast<std::size_t>(std::max(max_p, 0)), pool_threads, hw}));

  if (pool == nullptr) {
    plan.reason = "no pool";
  } else if (plan.width < 2) {
    // Fewer than two cells can ever run concurrently (single level, single
    // pool thread, or a 1-core machine) — the wavefront can only lose.
    plan.reason = "DAG width < 2";
  } else if (plan.num_blocks < 3) {
    plan.reason = "too few blocks to fill the pipeline";
  } else if (c < kWavefrontMinC) {
    plan.reason = "c below the measured wavefront crossover (" +
                  std::to_string(kWavefrontMinC) + ")";
  } else {
    plan.engage = true;
    plan.reason = "engaged";
  }
  return plan;
}

ValueTable solve_fast(int max_p, Ticks max_lifespan, const Params& params,
                      util::ThreadPool* pool, ParallelMode mode) {
  ValueTable table(max_p, max_lifespan, params);
  const Ticks c = params.c;

  auto level0 = table.mutable_level(0);
  for (Ticks l = 0; l <= max_lifespan; ++l) {
    level0[static_cast<std::size_t>(l)] = positive_sub(l, c);
  }

  bool wavefront = false;
  switch (mode) {
    case ParallelMode::kForceSequential:
      break;
    case ParallelMode::kForceWavefront:
      wavefront = pool != nullptr && max_p >= 1 && max_lifespan >= 1;
      break;
    case ParallelMode::kAuto:
      wavefront = plan_wavefront(max_p, max_lifespan, params, pool).engage;
      break;
  }

  if (!wavefront) {
    for (int p = 1; p <= max_p; ++p) {
      run_fill_kernel(table.mutable_level(p), table.level(p - 1), 1,
                      max_lifespan + 1, c);
    }
    return table;
  }

  // Wavefront over the (level, block) grid: block b of level p covers
  // lifespans [1 + b·c, 1 + (b+1)·c) ∩ [1, max_lifespan]. Cell (p, b) reads
  //   * cur  = level p   at indices <= l − c < block start  → cells (p, <b),
  //   * prev = level p−1 at the same indices                → cells (p−1, <b),
  // so its only direct dependencies are (p, b−1) and (p−1, b−1); everything
  // earlier follows transitively along those chains. (The two-phase kernel
  // keeps this contract — see "Read bounds" above.) Level 0 and every
  // level's l = 0 entry are final before the graph starts (filled above /
  // zero-initialized). One task per cell, zero barriers.
  const std::size_t num_blocks =
      static_cast<std::size_t>((max_lifespan + c - 1) / c);
  util::TaskGraph graph;
  auto cell_id = [num_blocks](int p, std::size_t b) {
    return static_cast<std::size_t>(p - 1) * num_blocks + b;
  };
  for (int p = 1; p <= max_p; ++p) {
    const std::span<Ticks> cur = table.mutable_level(p);
    const std::span<const Ticks> prev = table.level(p - 1);
    for (std::size_t b = 0; b < num_blocks; ++b) {
      const Ticks lo = 1 + static_cast<Ticks>(b) * c;
      const Ticks hi = std::min(max_lifespan + 1, lo + c);
      const util::TaskGraph::TaskId id = graph.add_task([cur, prev, lo, hi, c] {
        run_fill_kernel(cur, prev, lo, hi, c);
      });
      assert(id == cell_id(p, b));
      (void)id;
      if (b > 0) {
        graph.add_edge(cell_id(p, b - 1), cell_id(p, b));
        if (p > 1) graph.add_edge(cell_id(p - 1, b - 1), cell_id(p, b));
      }
    }
  }
  pool->run_dag(graph);
  return table;
}

}  // namespace nowsched::solver
