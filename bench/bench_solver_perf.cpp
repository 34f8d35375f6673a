// E10 — solver performance: reference O(P·N²) vs fast O(P·N), the level-fill
// kernel's fill-only cost on preallocated tables, thread scaling of the
// wavefront-parallel fast solver (plus the sequential-vs-wavefront c-sweep
// that locates the profitable crossover), the policy evaluator, and
// guideline-construction throughput.
//
// Self-timed on the harness clock (best-of-`reps` wall time) so the perf
// record shares the tier/CSV/JSON plumbing with the model experiments; the
// absolute numbers are one machine's sample, the shapes (scaling exponents,
// thread speedups) are the claims.
#include <algorithm>
#include <cmath>
#include <vector>

#include "harness/harness.h"

#include "core/equalized.h"
#include "core/guidelines.h"
#include "solver/fast_solver.h"
#include "solver/policy_eval.h"
#include "solver/reference_solver.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace nowsched::bench {
namespace {

void run(harness::Context& ctx) {
  const Params params{16};
  const int reps = ctx.quick() ? 1 : 3;

  // 1. Reference O(N²) vs fast O(N log N) on the same grids.
  {
    util::Table out({"N", "reference ms", "fast ms", "speedup"});
    const std::vector<Ticks> sizes =
        ctx.quick() ? std::vector<Ticks>{256, 1024}
                    : std::vector<Ticks>{256, 1024, 4096};
    std::vector<double> log_n, log_ref, log_fast;
    for (Ticks n : sizes) {
      const double ref_ms = harness::time_best_of_ms(
          reps, [&] { solver::solve_reference(2, n, params); });
      const double fast_ms =
          harness::time_best_of_ms(reps, [&] { solver::solve_fast(2, n, params); });
      harness::write_perf_row(ctx, "reference", static_cast<double>(n), ref_ms, static_cast<double>(n));
      harness::write_perf_row(ctx, "fast", static_cast<double>(n), fast_ms, static_cast<double>(n));
      log_n.push_back(std::log(static_cast<double>(n)));
      log_ref.push_back(std::log(std::max(ref_ms, 1e-6)));
      log_fast.push_back(std::log(std::max(fast_ms, 1e-6)));
      out.add_row({util::Table::fmt(static_cast<long long>(n)),
                   util::Table::fmt(ref_ms, 5), util::Table::fmt(fast_ms, 5),
                   util::Table::fmt(fast_ms > 0 ? ref_ms / fast_ms : 0.0, 4)});
    }
    ctx.table(out, "reference vs fast solver, max_p = 2, c = 16");
    const auto ref_fit = util::fit_linear(log_n, log_ref);
    const auto fast_fit = util::fit_linear(log_n, log_fast);
    ctx.metric("reference_scaling_exponent", ref_fit.slope);
    // Full tier only: the quick grid gives the fast solver two sub-0.1 ms
    // points, and a log-log slope fitted through that much noise flips sign
    // run to run — it would flap the strict same-tier CI gate. (The
    // reference fit stays: its points are ms-scale even at quick tier.)
    if (!ctx.quick()) {
      ctx.metric("fast_scaling_exponent", fast_fit.slope);
    }
    ctx.text("empirical scaling exponents (log-log slope): reference " +
             util::Table::fmt(ref_fit.slope, 3) + " (theory 2), fast " +
             util::Table::fmt(fast_fit.slope, 3) + " (theory ~1)");
  }

  // 1b. Level-fill kernel, fill-only: the kernel re-fills the SAME
  //     preallocated level pair (level 2 from a real level-1 table). No slab
  //     allocation, no first-touch page faults, so the row is the kernel's
  //     own cost. Re-filling an already-final level is idempotent under the
  //     kernel read contract (see solver/fast_solver.cpp), so one warm fill
  //     precedes the timed repetitions.
  {
    const Params big_c{1024};
    const Ticks n = ctx.quick() ? (1 << 15) : (1 << 18);
    std::vector<Ticks> level0(static_cast<std::size_t>(n) + 1);
    for (Ticks l = 0; l <= n; ++l) {
      level0[static_cast<std::size_t>(l)] = positive_sub(l, big_c.c);
    }
    std::vector<Ticks> level1(static_cast<std::size_t>(n) + 1, 0);
    solver::run_fill_kernel(level1, level0, 1, n + 1, big_c.c);
    std::vector<Ticks> level2(static_cast<std::size_t>(n) + 1, 0);
    solver::run_fill_kernel(level2, level1, 1, n + 1, big_c.c);  // warm
    const double ms = harness::time_best_of_ms(std::max(reps, 3), [&] {
      solver::run_fill_kernel(level2, level1, 1, n + 1, big_c.c);
    });
    harness::write_perf_row(ctx, "kernel_scalar", static_cast<double>(n), ms,
                            static_cast<double>(n));
    util::Table out({"kernel", "fill ms/level", "ns/lifespan"});
    out.add_row({"scalar two-pointer", util::Table::fmt(ms, 5),
                 util::Table::fmt(ms * 1e6 / static_cast<double>(n), 4)});
    ctx.table(out, "level-fill kernel, c = 1024, N = " + std::to_string(n) +
                       " (fill-only, preallocated)");
    // Recorded constants, not re-measured: the library once carried AVX2
    // and NEON builds of this kernel and a per-lifespan binary-search
    // kernel, removed because the vector build bought nothing end to end.
    ctx.text(
        "historic figures for the removed kernels (same grid, full tier): the "
        "AVX2 kernel ran 6.4x and this scalar kernel 4.9x over the "
        "binary-search scan; AVX2 was 1.14x over scalar (median of 10 runs, "
        "4t-avx2). End to end on the cold_solve benchmark workload, scalar vs "
        "AVX2 gave a median of 1326 vs 1340 scenarios/s and a p50 job latency "
        "of 5.30 vs 5.36 ms (6 alternating pairs, seeds 1-6, 4t-avx2).");
  }

  // 2. Fast solver across interrupt budgets at a fixed grid.
  {
    const Ticks n = ctx.quick() ? (1 << 12) : (1 << 15);
    util::Table out({"p", "ms", "states/s"});
    for (int p = 1; p <= 8; p += (ctx.quick() ? 3 : 1)) {
      const double ms =
          harness::time_best_of_ms(reps, [&] { solver::solve_fast(p, n, params); });
      const double states = static_cast<double>(n) * (p + 1);
      harness::write_perf_row(ctx, "fast_high_p", static_cast<double>(p), ms, states);
      out.add_row({util::Table::fmt(static_cast<long long>(p)),
                   util::Table::fmt(ms, 5),
                   util::Table::fmt(ms > 0 ? states / (ms / 1000.0) : 0.0, 5)});
    }
    ctx.table(out, "fast solver, N = " + std::to_string(n) + " lifespans");
  }

  // 3. Wavefront thread scaling: sequential solve vs the forced wavefront
  //    path at 1/2/4/8 pool threads, all against the same sequential
  //    baseline. max_p = 7 gives the DAG 8 levels of width to spread, so an
  //    8-thread pool can actually be saturated once the one-block pipeline
  //    fill completes. (Forced, so the shape is measured even on machines
  //    where the auto plan declines; the plan's own decision is reported
  //    below.)
  {
    const Params big_c{1024};
    const int wave_p = 7;
    const Ticks n = ctx.quick() ? (1 << 15) : (1 << 18);
    const double seq_ms = harness::time_best_of_ms(reps, [&] {
      solver::solve_fast(wave_p, n, big_c, nullptr,
                         solver::ParallelMode::kForceSequential);
    });
    harness::write_perf_row(ctx, "fast_sequential", 0.0, seq_ms, static_cast<double>(n));
    util::Table out({"threads", "ms", "speedup vs sequential"});
    out.add_row({"(sequential)", util::Table::fmt(seq_ms, 5), "1.000"});
    for (std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
      util::ThreadPool pool(threads);
      const double ms = harness::time_best_of_ms(reps, [&] {
        solver::solve_fast(wave_p, n, big_c, &pool,
                           solver::ParallelMode::kForceWavefront);
      });
      harness::write_perf_row(ctx, "fast_wavefront", static_cast<double>(threads), ms,
             static_cast<double>(n));
      out.add_row({util::Table::fmt(static_cast<unsigned long long>(threads)),
                   util::Table::fmt(ms, 5),
                   util::Table::fmt(ms > 0 ? seq_ms / ms : 0.0, 3)});
      if (threads == 4) ctx.metric("fast_parallel_speedup_4t", ms > 0 ? seq_ms / ms : 0.0);
    }
    ctx.table(out, "wavefront fast solver, max_p = " + std::to_string(wave_p) +
                       ", c = 1024, N = " + std::to_string(n));

    // The engagement decision the auto mode takes on this grid under the
    // static rule (solver::plan_wavefront). A declined plan on a machine
    // without real parallelism (e.g. a 1-core CI box) is the correct
    // outcome there.
    util::ThreadPool pool4(4);
    const auto plan = solver::plan_wavefront(wave_p, n, big_c, &pool4);
    // Full tier only: whether auto mode engages is a property of the host's
    // core count (0 on 1-core, 1 on multicore), so comparing it across
    // machines in the strict same-tier quick gate would fail on hardware
    // class, not on regressions.
    if (!ctx.quick()) {
      ctx.metric("wavefront_engaged_auto", plan.engage ? 1.0 : 0.0);
    }
    ctx.metric("wavefront_width", static_cast<double>(plan.width));
    ctx.text("auto engagement plan on this grid: " + plan.reason +
             " (DAG width " + util::Table::fmt(static_cast<long long>(plan.width)) +
             ", " + util::Table::fmt(static_cast<long long>(plan.num_blocks)) +
             " blocks, c = 1024 vs the static minimum " +
             util::Table::fmt(static_cast<long long>(solver::kWavefrontMinC)) + ")");
  }

  // 3b. Sequential-vs-wavefront sweep over the setup cost c: per-cell work
  //     grows with c (blocks are c wide), so the profitable crossover is a
  //     c threshold on a given machine. The smallest swept c where the
  //     4-thread wavefront beats sequential is recorded as
  //     `wavefront_crossover_c` (0 = never profitable here). The static
  //     engagement rule's solver::kWavefrontMinC was set from this metric.
  {
    const Ticks n = ctx.quick() ? (1 << 14) : (1 << 17);
    const std::vector<Ticks> cs = ctx.quick() ? std::vector<Ticks>{64, 512}
                                              : std::vector<Ticks>{32, 128, 512, 2048};
    util::ThreadPool pool(4);
    util::Table out({"c", "sequential ms", "wavefront ms (4t)", "speedup"});
    Ticks crossover = 0;
    for (Ticks c : cs) {
      const Params params_c{c};
      const double seq_ms = harness::time_best_of_ms(reps, [&] {
        solver::solve_fast(3, n, params_c, nullptr,
                           solver::ParallelMode::kForceSequential);
      });
      const double wf_ms = harness::time_best_of_ms(reps, [&] {
        solver::solve_fast(3, n, params_c, &pool,
                           solver::ParallelMode::kForceWavefront);
      });
      const double speedup = wf_ms > 0 ? seq_ms / wf_ms : 0.0;
      if (crossover == 0 && speedup > 1.0) crossover = c;
      harness::write_perf_row(ctx, "sweep_sequential", static_cast<double>(c), seq_ms,
             static_cast<double>(n));
      harness::write_perf_row(ctx, "sweep_wavefront", static_cast<double>(c), wf_ms,
             static_cast<double>(n));
      out.add_row({util::Table::fmt(static_cast<long long>(c)),
                   util::Table::fmt(seq_ms, 5), util::Table::fmt(wf_ms, 5),
                   util::Table::fmt(speedup, 3)});
    }
    // Full tier only: near parity (1-core hosts) the >1.0 test is a coin
    // flip, and a flapping metric would make the strict same-tier CI gate
    // fail on noise. The nightly full-tier comparison still tracks it.
    if (!ctx.quick()) {
      ctx.metric("wavefront_crossover_c", static_cast<double>(crossover));
    }
    ctx.table(out, "sequential vs forced 4-thread wavefront, max_p = 3, N = " +
                       std::to_string(n));
    ctx.text(crossover > 0
                 ? "measured crossover: wavefront profitable from c = " +
                       util::Table::fmt(static_cast<long long>(crossover)) +
                       " on this machine"
                 : "wavefront never profitable on this machine (hardware "
                   "parallelism unavailable); the auto rule keeps it "
                   "disengaged at width < 2");
  }

  // 4. Policy-evaluation DP: serial grid sweep and thread scaling.
  {
    const EqualizedGuidelinePolicy equalized;
    const AdaptiveGuidelinePolicy printed;
    util::Table out({"evaluator", "x", "ms"});
    const Ticks grid = ctx.quick() ? (1 << 10) : (1 << 13);
    const double eq_ms = harness::time_best_of_ms(reps, [&] {
      solver::evaluate_policy_grid(equalized, grid, 2, params);
    });
    harness::write_perf_row(ctx, "policy_eval_equalized", static_cast<double>(grid), eq_ms,
           static_cast<double>(grid));
    out.add_row({"equalized, serial", util::Table::fmt(static_cast<long long>(grid)),
                 util::Table::fmt(eq_ms, 5)});
    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      util::ThreadPool pool(threads);
      const double ms = harness::time_best_of_ms(reps, [&] {
        solver::evaluate_policy_grid(printed, grid, 3, params, &pool);
      });
      harness::write_perf_row(ctx, "policy_eval_parallel", static_cast<double>(threads), ms,
             static_cast<double>(grid));
      out.add_row({"printed, " + std::to_string(threads) + " threads",
                   util::Table::fmt(static_cast<long long>(grid)),
                   util::Table::fmt(ms, 5)});
    }
    ctx.table(out, "policy-evaluation DP");
  }

  // 5. Guideline construction throughput (episodes built per second).
  {
    const Ticks l = 16 * 4096;
    const int iters = ctx.quick() ? 200 : 2000;
    util::Table out({"builder", "p", "ns/episode"});
    for (int p = 1; p <= 6; p += (ctx.quick() ? 5 : 1)) {
      const double eq_ms = harness::time_best_of_ms(reps, [&] {
        for (int i = 0; i < iters; ++i) equalized_episode(l, p, params);
      });
      const double pr_ms = harness::time_best_of_ms(reps, [&] {
        for (int i = 0; i < iters; ++i) adaptive_episode_guideline(l, p, params);
      });
      harness::write_perf_row(ctx, "equalized_episode", static_cast<double>(p), eq_ms,
             static_cast<double>(iters));
      harness::write_perf_row(ctx, "printed_episode", static_cast<double>(p), pr_ms,
             static_cast<double>(iters));
      out.add_row({"equalized", util::Table::fmt(static_cast<long long>(p)),
                   util::Table::fmt(eq_ms * 1e6 / iters, 5)});
      out.add_row({"printed", util::Table::fmt(static_cast<long long>(p)),
                   util::Table::fmt(pr_ms * 1e6 / iters, 5)});
    }
    ctx.table(out, "episode construction, U = " + std::to_string(l));
  }
}

}  // namespace

const harness::Experiment& experiment_solver_perf() {
  static const harness::Experiment e{
      "E10", "solver_perf", "Solver performance baselines",
      "bench_solver_perf",
      "Wall-clock baselines for the solvers: reference O(P·N²) vs fast "
      "O(P·N) with empirical scaling exponents, the level-fill kernel's "
      "fill-only cost on preallocated tables, thread scaling of the "
      "wavefront-parallel fast solver with its static auto-engagement rule "
      "and the "
      "sequential-vs-wavefront crossover sweep, the policy-evaluation DP, "
      "and guideline construction throughput.",
      run};
  return e;
}

}  // namespace nowsched::bench
