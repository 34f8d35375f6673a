// Level-fill kernel battery: the two-pointer kernel behind solve_fast must
// be bit-identical to a per-lifespan binary-search crossover scan (a
// test-only oracle, below) on generated scenarios, adversarial partial
// ranges, odd tails and degenerate grids — and whole solves, sequential and
// wavefront, must match the O(P·N²) reference solver.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <vector>

#include "sim/scenario_gen.h"
#include "solver/fast_solver.h"
#include "solver/reference_solver.h"
#include "util/parse.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace nowsched::solver {
namespace {

int fuzz_cases(int fallback) {
  const char* env = std::getenv("NOWSCHED_FUZZ_CASES");
  if (env == nullptr || *env == '\0') return fallback;
  const auto v = util::parse_int64(env);
  if (!v || *v < 1 || *v > std::numeric_limits<int>::max()) {
    throw std::runtime_error(
        "NOWSCHED_FUZZ_CASES must be a positive int-range integer, got '" +
        std::string(env) + "'");
  }
  return static_cast<int>(*v);
}

/// Oracle: max_{t in [c, l]} min((t−c) + cur[l−t], prev[l−t]) by binary
/// search for the A/B crossover, independently per lifespan. Returns 0 when
/// l < c.
Ticks crossover_best_oracle(const std::vector<Ticks>& cur,
                            const std::vector<Ticks>& prev, Ticks l, Ticks c) {
  if (l < c) return 0;
  auto a = [&](Ticks t) {
    return (t - c) + cur[static_cast<std::size_t>(l - t)];
  };
  auto b = [&](Ticks t) { return prev[static_cast<std::size_t>(l - t)]; };

  // A is non-decreasing and B non-increasing, so the predicate A<B is
  // monotone (true then false); find its last true t in [c, l].
  Ticks lo = c, hi = l;
  if (!(a(lo) < b(lo))) return std::min(a(lo), b(lo));  // crosses at c
  if (a(hi) < b(hi)) return a(hi);                       // never crosses
  while (lo + 1 < hi) {
    const Ticks mid = lo + (hi - lo) / 2;
    if (a(mid) < b(mid)) lo = mid;
    else hi = mid;
  }
  // lo: last t with A<B (min = A there); hi = lo+1: first t with A>=B.
  return std::max(a(lo), b(hi));
}

/// The oracle's level fill over [1, n]: cur[l] = max(crossover, cur[l − 1]).
std::vector<Ticks> fill_oracle(const std::vector<Ticks>& prev, Ticks c) {
  std::vector<Ticks> cur(prev.size(), 0);
  for (Ticks l = 1; l < static_cast<Ticks>(prev.size()); ++l) {
    cur[static_cast<std::size_t>(l)] =
        std::max(crossover_best_oracle(cur, prev, l, c),
                 cur[static_cast<std::size_t>(l - 1)]);
  }
  return cur;
}

/// The kernel's level fill over [1, n] in one call.
std::vector<Ticks> fill_kernel(const std::vector<Ticks>& prev, Ticks c) {
  std::vector<Ticks> cur(prev.size(), 0);
  run_fill_kernel(cur, prev, 1, static_cast<Ticks>(prev.size()), c);
  return cur;
}

std::vector<Ticks> level_zero(Ticks n, Ticks c) {
  std::vector<Ticks> prev(static_cast<std::size_t>(n) + 1);
  for (Ticks l = 0; l <= n; ++l) {
    prev[static_cast<std::size_t>(l)] = positive_sub(l, c);
  }
  return prev;
}

TEST(KernelDifferential, GeneratedScenariosMatchOracle) {
  // NOWSCHED_FUZZ_CASES generated scenarios; per scenario, the kernel and
  // the oracle build every level over the same inputs and must match
  // entry-for-entry. The domain spans small and odd c values and lifespans
  // with odd tails.
  sim::ScenarioDomain domain;
  domain.min_c = 1;
  domain.max_c = 49;
  domain.min_lifespan = 3;
  domain.max_lifespan = 301;
  domain.max_interrupts = 3;
  sim::ScenarioGenerator gen(domain, 0x51D3);

  const int cases = fuzz_cases(200);
  for (int i = 0; i < cases; ++i) {
    const sim::ScenarioSpec spec = gen.next();
    const Ticks c = spec.params.c;
    std::vector<Ticks> prev = level_zero(spec.lifespan, c);
    const int max_q = std::max(1, spec.max_interrupts);
    for (int q = 1; q <= max_q; ++q) {
      const auto kernel = fill_kernel(prev, c);
      ASSERT_EQ(kernel, fill_oracle(prev, c))
          << "case " << i << " q=" << q << " c=" << c;
      prev = kernel;
    }
  }
}

TEST(KernelDifferential, SyntheticMonotoneTablesAndPartialRanges) {
  // Random non-decreasing prev tables (arbitrary step sizes — prev need not
  // be Lipschitz) filled through wavefront-shaped partial [lo, hi) ranges,
  // including single-lifespan ranges and ragged tails: the kernel's blockwise
  // fill must agree with the oracle's whole-level fill.
  util::Rng rng(0xB10C);
  for (int iter = 0; iter < 60; ++iter) {
    const Ticks n = rng.uniform_int(2, 400);
    const Ticks c = rng.uniform_int(1, 60);
    std::vector<Ticks> prev(static_cast<std::size_t>(n) + 1, 0);
    for (Ticks l = 1; l <= n; ++l) {
      prev[static_cast<std::size_t>(l)] =
          prev[static_cast<std::size_t>(l - 1)] + rng.uniform_int(0, 3);
    }
    std::vector<Ticks> cur(static_cast<std::size_t>(n) + 1, 0);
    Ticks lo = 1;
    while (lo <= n) {
      const Ticks hi = std::min<Ticks>(n + 1, lo + rng.uniform_int(1, c));
      run_fill_kernel(cur, prev, lo, hi, c);
      lo = hi;
    }
    ASSERT_EQ(fill_oracle(prev, c), cur)
        << "iter " << iter << " c=" << c << " n=" << n;
  }
}

TEST(KernelDifferential, WholeSolvesMatchReference) {
  // Whole-solve path, sequential AND forced-wavefront on an oversubscribed
  // pool, bit-identical with the O(P·N²) oracle.
  util::ThreadPool pool(4);
  const Params params{13};
  const int max_p = 3;
  const Ticks n = 400;
  const auto ref = solve_reference(max_p, n, params);
  const auto seq = solve_fast(max_p, n, params, nullptr,
                              ParallelMode::kForceSequential);
  const auto wave = solve_fast(max_p, n, params, &pool,
                               ParallelMode::kForceWavefront);
  ASSERT_TRUE(std::equal(seq.slab().begin(), seq.slab().end(),
                         ref.slab().begin()));
  ASSERT_TRUE(std::equal(wave.slab().begin(), wave.slab().end(),
                         ref.slab().begin()));
}

TEST(KernelDifferential, FilledLevelsAreMonotoneAndBoundedByPreviousLevel) {
  // Structural properties of W(q)[L], independent of the oracle: each
  // filled level is zero through L = c, non-decreasing in L, and never
  // exceeds the level below it (one more interrupt cannot raise the
  // guaranteed output).
  for (const Ticks c : {Ticks{1}, Ticks{3}, Ticks{17}, Ticks{64}}) {
    const Ticks n = 5 * c + 11;
    std::vector<Ticks> prev = level_zero(n, c);
    for (int q = 1; q <= 4; ++q) {
      const std::vector<Ticks> cur = fill_kernel(prev, c);
      for (Ticks l = 0; l <= n; ++l) {
        const auto i = static_cast<std::size_t>(l);
        if (l <= c) {
          ASSERT_EQ(cur[i], 0) << "c=" << c << " q=" << q << " l=" << l;
        }
        if (l > 0) {
          ASSERT_LE(cur[i - 1], cur[i]) << "c=" << c << " q=" << q << " l=" << l;
        }
        ASSERT_LE(cur[i], prev[i]) << "c=" << c << " q=" << q << " l=" << l;
      }
      prev = cur;
    }
  }
}

TEST(KernelDifferential, DegenerateGrids) {
  // c = 1, c >= n, n = 1 — the boundary geometries where blocked scans
  // historically break.
  for (const auto& [n, c] : std::vector<std::pair<Ticks, Ticks>>{
           {1, 1}, {1, 5}, {2, 1}, {3, 7}, {7, 7}, {8, 7}, {9, 2}, {257, 1},
           {300, 299}, {300, 300}, {300, 301}}) {
    const std::vector<Ticks> prev = level_zero(n, c);
    ASSERT_EQ(fill_oracle(prev, c), fill_kernel(prev, c))
        << "n=" << n << " c=" << c;
  }
}

}  // namespace
}  // namespace nowsched::solver
