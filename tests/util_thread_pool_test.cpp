#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace nowsched::util {
namespace {

TEST(ThreadPool, SizeDefaultsToHardwareConcurrency) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, hits.size(), [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyAndSingletonRanges) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.parallel_for(5, 5, [&](std::size_t) { calls++; });
  EXPECT_EQ(calls.load(), 0);
  pool.parallel_for(5, 6, [&](std::size_t i) {
    EXPECT_EQ(i, 5u);
    calls++;
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ThreadPool, ChunkVariantSumsCorrectly) {
  ThreadPool pool(8);
  const std::size_t n = 100000;
  std::atomic<long long> total{0};
  pool.parallel_for_chunks(1, n + 1, [&](std::size_t lo, std::size_t hi) {
    long long local = 0;
    for (std::size_t i = lo; i < hi; ++i) local += static_cast<long long>(i);
    total.fetch_add(local, std::memory_order_relaxed);
  });
  EXPECT_EQ(total.load(), static_cast<long long>(n) * (n + 1) / 2);
}

TEST(ThreadPool, ChunksAreDisjointAndOrderedWithin) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(4096);
  pool.parallel_for_chunks(0, hits.size(), [&](std::size_t lo, std::size_t hi) {
    ASSERT_LE(lo, hi);
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(0, 1000,
                        [&](std::size_t i) {
                          if (i == 357) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, PoolSurvivesExceptionAndRunsAgain) {
  ThreadPool pool(4);
  try {
    pool.parallel_for(0, 500, [&](std::size_t) { throw std::runtime_error("x"); });
  } catch (const std::runtime_error&) {
  }
  std::atomic<int> count{0};
  pool.parallel_for(0, 500, [&](std::size_t) { count++; });
  EXPECT_EQ(count.load(), 500);
}

TEST(ThreadPool, SingleThreadPoolRunsSerially) {
  ThreadPool pool(1);
  std::vector<int> order;
  pool.parallel_for(0, 100, [&](std::size_t i) { order.push_back(static_cast<int>(i)); });
  ASSERT_EQ(order.size(), 100u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

TEST(ThreadPool, GlobalPoolIsSingleton) {
  ThreadPool& a = global_pool();
  ThreadPool& b = global_pool();
  EXPECT_EQ(&a, &b);
}

TEST(ThreadPool, ManySmallDispatchesComplete) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.parallel_for(0, 64, [&](std::size_t) { total++; });
  }
  EXPECT_EQ(total.load(), 50 * 64);
}

// ---- TaskGraph / run_dag ---------------------------------------------------

TEST(TaskGraph, RunDagExecutesEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kLevels = 5, kBlocks = 40;
  std::vector<std::atomic<int>> hits(kLevels * kBlocks);
  TaskGraph g;
  // The solver's grid shape: (p, b) depends on (p, b−1) and (p−1, b−1).
  auto id = [&](std::size_t p, std::size_t b) { return p * kBlocks + b; };
  for (std::size_t p = 0; p < kLevels; ++p) {
    for (std::size_t b = 0; b < kBlocks; ++b) {
      g.add_task([&hits, &id, p, b] { hits[id(p, b)].fetch_add(1); });
    }
  }
  for (std::size_t p = 0; p < kLevels; ++p) {
    for (std::size_t b = 1; b < kBlocks; ++b) {
      g.add_edge(id(p, b - 1), id(p, b));
      if (p > 0) g.add_edge(id(p - 1, b - 1), id(p, b));
    }
  }
  pool.run_dag(g);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(TaskGraph, RunDagStartsDependentsOnlyAfterAllPredecessors) {
  ThreadPool pool(4);
  constexpr std::size_t kTasks = 64;
  std::vector<std::atomic<bool>> done(kTasks);
  for (auto& d : done) d.store(false);
  TaskGraph g;
  std::vector<std::vector<std::size_t>> deps_of(kTasks);
  for (std::size_t i = 0; i < kTasks; ++i) {
    deps_of[i] = i == 0 ? std::vector<std::size_t>{}
                        : std::vector<std::size_t>{i - 1, i / 2};
    g.add_task([&done, &deps_of, i] {
      for (const std::size_t d : deps_of[i]) {
        EXPECT_TRUE(done[d].load(std::memory_order_acquire))
            << "task " << i << " started before dependency " << d;
      }
      done[i].store(true, std::memory_order_release);
    });
  }
  for (std::size_t i = 1; i < kTasks; ++i) {
    g.add_edge(i - 1, i);
    if (i / 2 != i - 1) g.add_edge(i / 2, i);
  }
  pool.run_dag(g);
  for (const auto& d : done) EXPECT_TRUE(d.load());
}

TEST(TaskGraph, RunDagHasNoGenerationBarrier) {
  // B (a root) blocks until C (depth 1, on another worker) completes. Any
  // barrier-between-generations scheme runs roots to completion first and
  // deadlocks here; true wavefront dispatch lets C start while B waits.
  ThreadPool pool(2);
  std::atomic<bool> c_done{false};
  TaskGraph g;
  const auto a = g.add_task([] {});
  g.add_task([&c_done] {  // B
    while (!c_done.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  });
  const auto c = g.add_task([&c_done] { c_done.store(true, std::memory_order_release); });
  g.add_edge(a, c);
  pool.run_dag(g);
  EXPECT_TRUE(c_done.load());
}

TEST(TaskGraph, RunDagPropagatesMidDagExceptionAndCancelsDownstream) {
  ThreadPool pool(4);
  TaskGraph g;
  std::atomic<bool> tail_ran{false};
  const auto head = g.add_task([] {});
  const auto thrower = g.add_task([] { throw std::runtime_error("mid-DAG boom"); });
  const auto tail = g.add_task([&tail_ran] { tail_ran.store(true); });
  g.add_edge(head, thrower);
  g.add_edge(thrower, tail);
  EXPECT_THROW(pool.run_dag(g), std::runtime_error);
  EXPECT_FALSE(tail_ran.load()) << "downstream of a failed cell must be cancelled";

  // The pool must stay usable after a failed graph.
  std::atomic<int> count{0};
  pool.parallel_for(0, 100, [&](std::size_t) { count++; });
  EXPECT_EQ(count.load(), 100);
}

TEST(TaskGraph, RunDagSingleThreadIsDeterministicTopologicalOrder) {
  // With size() <= 1 the graph runs inline: among ready tasks, lowest id
  // first. Edges are inserted out of id order to exercise the ordering.
  ThreadPool pool(1);
  TaskGraph g;
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < 6; ++i) {
    g.add_task([&order, i] { order.push_back(i); });
  }
  g.add_edge(4, 0);  // 0 late despite its low id
  g.add_edge(2, 1);
  g.add_edge(5, 3);
  pool.run_dag(g);
  // Ready at start: {2, 4, 5}; each release unblocks its dependent.
  const std::vector<std::size_t> expected{2, 1, 4, 0, 5, 3};
  EXPECT_EQ(order, expected);

  // Same graph shape again: the order must reproduce bit-for-bit.
  TaskGraph g2;
  std::vector<std::size_t> order2;
  for (std::size_t i = 0; i < 6; ++i) {
    g2.add_task([&order2, i] { order2.push_back(i); });
  }
  g2.add_edge(4, 0);
  g2.add_edge(2, 1);
  g2.add_edge(5, 3);
  pool.run_dag(g2);
  EXPECT_EQ(order2, expected);
}

TEST(TaskGraph, RunDagEmptyAndSingleton) {
  ThreadPool pool(2);
  TaskGraph empty;
  pool.run_dag(empty);  // must not hang
  TaskGraph one;
  std::atomic<int> calls{0};
  one.add_task([&calls] { calls++; });
  pool.run_dag(one);
  EXPECT_EQ(calls.load(), 1);
}

TEST(TaskGraph, RunDagRejectsCyclesWithoutRunningAnything) {
  ThreadPool pool(2);
  TaskGraph g;
  std::atomic<int> ran{0};
  const auto a = g.add_task([&ran] { ran++; });
  const auto b = g.add_task([&ran] { ran++; });
  const auto c = g.add_task([&ran] { ran++; });  // not on the cycle
  g.add_edge(a, b);
  g.add_edge(b, a);
  (void)c;
  EXPECT_THROW(pool.run_dag(g), std::logic_error);
  EXPECT_EQ(ran.load(), 0);
}

TEST(TaskGraph, AddEdgeValidatesIds) {
  TaskGraph g;
  const auto a = g.add_task([] {});
  EXPECT_THROW(g.add_edge(a, 7), std::out_of_range);
  EXPECT_THROW(g.add_edge(7, a), std::out_of_range);
  EXPECT_THROW(g.add_edge(a, a), std::logic_error);
}

// ---- NOWSCHED_THREADS parsing ---------------------------------------------

TEST(ThreadsFromEnv, UnsetMeansHardwareDefault) {
  std::string warning = "sentinel";
  EXPECT_EQ(threads_from_env_value(nullptr, &warning), 0u);
  EXPECT_TRUE(warning.empty());
}

TEST(ThreadsFromEnv, ValidPositiveInteger) {
  std::string warning;
  EXPECT_EQ(threads_from_env_value("4", &warning), 4u);
  EXPECT_TRUE(warning.empty());
  EXPECT_EQ(threads_from_env_value("1", &warning), 1u);
  EXPECT_TRUE(warning.empty());
}

TEST(ThreadsFromEnv, RejectsTrailingGarbage) {
  // The old atol parser read "4abc" as 4; full-string validation must not.
  std::string warning;
  EXPECT_EQ(threads_from_env_value("4abc", &warning), 0u);
  EXPECT_FALSE(warning.empty());
  EXPECT_NE(warning.find("4abc"), std::string::npos);
}

TEST(ThreadsFromEnv, RejectsNonPositiveEmptyAndOverflow) {
  std::string warning;
  EXPECT_EQ(threads_from_env_value("-1", &warning), 0u);
  EXPECT_FALSE(warning.empty());
  EXPECT_EQ(threads_from_env_value("0", &warning), 0u);
  EXPECT_FALSE(warning.empty());
  EXPECT_EQ(threads_from_env_value("", &warning), 0u);
  EXPECT_FALSE(warning.empty());
  EXPECT_EQ(threads_from_env_value("99999999999999999999", &warning), 0u);
  EXPECT_FALSE(warning.empty());
  EXPECT_EQ(threads_from_env_value("two", &warning), 0u);
  EXPECT_FALSE(warning.empty());
}

}  // namespace
}  // namespace nowsched::util
