// The fast crossover solver must agree bit-for-bit with the O(N²) oracle,
// serial or parallel.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "solver/fast_solver.h"
#include "solver/reference_solver.h"
#include "util/thread_pool.h"

namespace nowsched::solver {
namespace {

struct GridCase {
  int max_p;
  Ticks max_l;
  Ticks c;
};

class CrossCheck : public ::testing::TestWithParam<GridCase> {};

TEST_P(CrossCheck, FastMatchesReferenceExactly) {
  const auto [max_p, max_l, c] = GetParam();
  const auto ref = solve_reference(max_p, max_l, Params{c});
  const auto fast = solve_fast(max_p, max_l, Params{c});
  for (int p = 0; p <= max_p; ++p) {
    for (Ticks l = 0; l <= max_l; ++l) {
      ASSERT_EQ(fast.value(p, l), ref.value(p, l)) << "p=" << p << " l=" << l;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Grids, CrossCheck,
                         ::testing::Values(GridCase{1, 400, 8}, GridCase{2, 400, 16},
                                           GridCase{3, 300, 4}, GridCase{4, 250, 2},
                                           GridCase{2, 600, 1}, GridCase{1, 1000, 64},
                                           GridCase{5, 200, 8}, GridCase{0, 100, 8},
                                           GridCase{3, 512, 100}));

TEST(CrossCheckParallel, ForcedWavefrontMatchesSerial) {
  // Force the wavefront path regardless of what plan_wavefront decides
  // and compare against the serial fast solver (itself validated against the
  // oracle above).
  util::ThreadPool pool(4);
  const Params params{300};
  const Ticks max_l = 300 * 24;
  const auto serial = solve_fast(3, max_l, params, nullptr);
  const auto parallel =
      solve_fast(3, max_l, params, &pool, ParallelMode::kForceWavefront);
  for (int p = 0; p <= 3; ++p) {
    for (Ticks l = 0; l <= max_l; ++l) {
      ASSERT_EQ(parallel.value(p, l), serial.value(p, l)) << "p=" << p << " l=" << l;
    }
  }
}

TEST(CrossCheckParallel, ForcedWavefrontMatchesReferenceOracle) {
  // Force the wavefront path and compare against the O(N²) oracle directly,
  // not just the serial fast solver — this is where the parallel path meets
  // ground truth.
  util::ThreadPool pool(4);
  const Params params{256};
  const Ticks max_l = 256 * 9;  // 9 full blocks per level, plus pipeline slack
  const auto ref = solve_reference(3, max_l, params);
  const auto parallel =
      solve_fast(3, max_l, params, &pool, ParallelMode::kForceWavefront);
  for (int p = 0; p <= 3; ++p) {
    for (Ticks l = 0; l <= max_l; ++l) {
      ASSERT_EQ(parallel.value(p, l), ref.value(p, l)) << "p=" << p << " l=" << l;
    }
  }
}

TEST(CrossCheckParallel, ForcedWavefrontSmallCManyCellsMatchesReference) {
  // Small c makes narrow blocks and a tall, skinny DAG (many cells, little
  // work each) — the regime the auto mode would refuse; forcing it exercises
  // heavy inter-cell traffic on the dependency counters.
  util::ThreadPool pool(4);
  const Params params{8};
  const Ticks max_l = 500;  // 63 blocks x 2 levels
  const auto ref = solve_reference(2, max_l, params);
  const auto parallel =
      solve_fast(2, max_l, params, &pool, ParallelMode::kForceWavefront);
  for (int p = 0; p <= 2; ++p) {
    for (Ticks l = 0; l <= max_l; ++l) {
      ASSERT_EQ(parallel.value(p, l), ref.value(p, l)) << "p=" << p << " l=" << l;
    }
  }
}

TEST(CrossCheckParallel, ForcedWavefrontPartialFinalBlockMatchesReference) {
  // max_l one tick past a block boundary: the last block of every level is a
  // single lifespan, so the final cells are nearly empty.
  util::ThreadPool pool(2);
  const Params params{256};
  const Ticks max_l = 4 * 256 + 1;
  const auto ref = solve_reference(2, max_l, params);
  const auto parallel =
      solve_fast(2, max_l, params, &pool, ParallelMode::kForceWavefront);
  for (int p = 0; p <= 2; ++p) {
    for (Ticks l = 0; l <= max_l; ++l) {
      ASSERT_EQ(parallel.value(p, l), ref.value(p, l)) << "p=" << p << " l=" << l;
    }
  }
}

TEST(CrossCheckParallel, SingleThreadWavefrontIsDeterministicallySequential) {
  // ThreadPool(1): run_dag runs the cells inline in a fixed topological
  // order, so the forced wavefront must reproduce the sequential solve
  // bit-for-bit, twice in a row.
  util::ThreadPool pool(1);
  const Params params{32};
  const Ticks max_l = 32 * 20;
  const auto sequential =
      solve_fast(3, max_l, params, nullptr, ParallelMode::kForceSequential);
  for (int round = 0; round < 2; ++round) {
    const auto wavefront =
        solve_fast(3, max_l, params, &pool, ParallelMode::kForceWavefront);
    for (int p = 0; p <= 3; ++p) {
      for (Ticks l = 0; l <= max_l; ++l) {
        ASSERT_EQ(wavefront.value(p, l), sequential.value(p, l))
            << "round=" << round << " p=" << p << " l=" << l;
      }
    }
  }
}

TEST(CrossCheckParallel, AutoModeWithPoolMatchesReference) {
  // Whatever plan_wavefront decides on this machine, auto mode must be
  // exact: c = 8 declines (below the crossover), c = 512 engages on any
  // multicore host. (On a 1-core host both run sequentially — still the
  // right answer.)
  util::ThreadPool pool(4);
  for (const Ticks c : {Ticks{8}, Ticks{512}}) {
    const Params params{c};
    const Ticks n = 4 * c + 3;
    const auto with_pool = solve_fast(2, n, params, &pool);
    const auto ref = solve_reference(2, n, params);
    ASSERT_TRUE(std::equal(with_pool.slab().begin(), with_pool.slab().end(),
                           ref.slab().begin()))
        << "c=" << c;
  }
}

// The engagement rule is pure: pool given, width = min(max_p, pool, hardware)
// >= 2, >= 3 blocks, and c >= kWavefrontMinC. Expected widths are computed
// from hardware_concurrency, so these tests hold on 1-core and multicore
// hosts alike.
int expected_width(int max_p, const util::ThreadPool& pool) {
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  return static_cast<int>(std::min<std::size_t>(
      {static_cast<std::size_t>(max_p), pool.size(), hw}));
}

TEST(WavefrontPlan, StaticEngagementRule) {
  util::ThreadPool pool(4);
  const Ticks n = Ticks{1} << 14;
  const bool wide = expected_width(3, pool) >= 2;
  ASSERT_EQ(kWavefrontMinC, 512);

  // c = 511 vs 512 on an otherwise engaging grid.
  const WavefrontPlan below = plan_wavefront(3, n, Params{511}, &pool);
  const WavefrontPlan at = plan_wavefront(3, n, Params{512}, &pool);
  EXPECT_FALSE(below.engage);
  EXPECT_FALSE(below.reason.empty());
  EXPECT_EQ(at.engage, wide) << at.reason;
  EXPECT_EQ(at.width, expected_width(3, pool));
  EXPECT_EQ(at.num_blocks, 32u);
  EXPECT_FALSE(at.reason.empty());

  // No timing: the same inputs always give the same answer.
  for (int i = 0; i < 3; ++i) {
    const WavefrontPlan again = plan_wavefront(3, n, Params{512}, &pool);
    EXPECT_EQ(again.engage, at.engage);
    EXPECT_EQ(again.width, at.width);
    EXPECT_EQ(again.num_blocks, at.num_blocks);
    EXPECT_EQ(again.reason, at.reason);
  }
}

TEST(WavefrontPlan, WidthIsMinOfLevelsPoolAndHardware) {
  util::ThreadPool pool(4);
  util::ThreadPool single(1);
  const Ticks n = Ticks{1} << 14;

  // Width 1: a single level, or a 1-thread pool, never engages.
  const WavefrontPlan one_level = plan_wavefront(1, n, Params{1024}, &pool);
  EXPECT_FALSE(one_level.engage);
  EXPECT_EQ(one_level.width, 1);
  EXPECT_FALSE(one_level.reason.empty());
  const WavefrontPlan one_thread = plan_wavefront(3, n, Params{1024}, &single);
  EXPECT_FALSE(one_thread.engage);
  EXPECT_EQ(one_thread.width, 1);
  EXPECT_FALSE(one_thread.reason.empty());

  // Otherwise the narrowest of levels, pool threads and hardware threads.
  for (const int max_p : {2, 3, 7}) {
    const WavefrontPlan plan = plan_wavefront(max_p, n, Params{1024}, &pool);
    EXPECT_EQ(plan.width, expected_width(max_p, pool)) << "max_p=" << max_p;
    EXPECT_EQ(plan.engage, plan.width >= 2) << plan.reason;
  }
}

TEST(CrossCheckParallel, PlanWavefrontDeclinesDegenerateGrids) {
  util::ThreadPool pool(4);
  const bool wide = expected_width(3, pool) >= 2;

  // No pool.
  const WavefrontPlan no_pool =
      plan_wavefront(3, Ticks{1} << 14, Params{1024}, nullptr);
  EXPECT_FALSE(no_pool.engage);
  EXPECT_EQ(no_pool.reason, "no pool");

  // Fewer than 3 blocks cannot fill a pipeline: 2 × c lifespans declines,
  // one lifespan more makes a third block.
  const WavefrontPlan two_blocks =
      plan_wavefront(3, 2 * 1024, Params{1024}, &pool);
  EXPECT_FALSE(two_blocks.engage);
  EXPECT_EQ(two_blocks.num_blocks, 2u);
  EXPECT_FALSE(two_blocks.reason.empty());
  const WavefrontPlan three_blocks =
      plan_wavefront(3, 2 * 1024 + 1, Params{1024}, &pool);
  EXPECT_EQ(three_blocks.num_blocks, 3u);
  EXPECT_EQ(three_blocks.engage, wide) << three_blocks.reason;

  // An empty lifespan range has no blocks at all.
  const WavefrontPlan empty = plan_wavefront(3, 0, Params{1024}, &pool);
  EXPECT_FALSE(empty.engage);
  EXPECT_EQ(empty.num_blocks, 0u);
  EXPECT_FALSE(empty.reason.empty());
}

TEST(FastSolver, LargeGridSelfConsistency) {
  // On a grid too big for the oracle, check internal invariants instead:
  // monotone, 1-Lipschitz, level ordering, and spot equalities at
  // lifespans where the recurrence can be verified against level p−1.
  const Params params{16};
  const Ticks max_l = 1 << 16;
  const auto table = solve_fast(3, max_l, params);
  for (int p = 1; p <= 3; ++p) {
    for (Ticks l = 1; l <= max_l; ++l) {
      const Ticks v = table.value(p, l);
      ASSERT_GE(v, table.value(p, l - 1));
      ASSERT_LE(v - table.value(p, l - 1), 1);
      ASSERT_LE(v, table.value(p - 1, l));
    }
  }
  // Spot check the recurrence at a few lifespans via a full scan.
  for (Ticks l : {Ticks{1000}, Ticks{4096}, Ticks{30000}, max_l}) {
    for (int p : {1, 2, 3}) {
      Ticks best = 0;
      for (Ticks t = 1; t <= l; ++t) {
        const Ticks a = positive_sub(t, params.c) + table.value(p, l - t);
        const Ticks b = table.value(p - 1, l - t);
        best = std::max(best, std::min(a, b));
      }
      EXPECT_EQ(table.value(p, l), best) << "p=" << p << " l=" << l;
    }
  }
}

}  // namespace
}  // namespace nowsched::solver
