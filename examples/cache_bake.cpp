// cache_bake — pre-bakes a persistent solve-table store and verifies it.
//
// The warm-start workflow (README "Warm-starting the service"):
//
//   1. BAKE:   cache_bake --store=DIR --p=8 --u=4096 --keys=16 --step=512
//              solves the hot key grid once and publishes each table as a
//              content-addressed `nowsched-table v1` file (build-once:
//              re-running skips keys already present).
//   2. CHECK:  cache_bake --store=DIR --check [--min-speedup=X]
//              re-derives the same grid, validates every file's full format,
//              compares each mapped table FIELD-FOR-FIELD against a fresh
//              in-process solve (the cross-process bit-identity guarantee),
//              and times mapped loads against fresh solves. Exits nonzero on
//              any missing/corrupt/mismatched table, or when the measured
//              warm-start speedup falls below --min-speedup.
//   3. SERVE:  point ServiceOptions::shared_store_dir (or
//              SolveCache::Options::store) at DIR — every process on the
//              host mounts the warm store and skips the solves entirely.
//
// The nightly CI warm-start job is exactly steps 1–2 plus a bench rerun.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "nowsched.h"

namespace {

using nowsched::Ticks;
using nowsched::solver::SolveKey;
using nowsched::solver::SolveRequest;

struct GridFlags {
  int max_p;
  Ticks base_u;
  Ticks step;
  int keys;
  Ticks c;
};

/// The hot key grid — MUST derive identically in bake and check runs, so
/// both sides read it from the same flags.
std::vector<SolveRequest> hot_keys(const GridFlags& grid) {
  std::vector<SolveRequest> requests;
  requests.reserve(static_cast<std::size_t>(grid.keys));
  for (int k = 0; k < grid.keys; ++k) {
    SolveRequest req;
    req.max_p = grid.max_p;
    req.max_lifespan = grid.base_u + static_cast<Ticks>(k) * grid.step;
    req.params.c = grid.c;
    requests.push_back(req);
  }
  return requests;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

int bake(nowsched::solver::MappedTableStore& store,
         const std::vector<SolveRequest>& requests,
         nowsched::util::ThreadPool* pool) {
  int baked = 0;
  int skipped = 0;
  const auto start = std::chrono::steady_clock::now();
  for (const SolveRequest& req : requests) {
    const SolveKey key = nowsched::solver::canonical_key(req);
    if (store.load(key) != nullptr) {
      ++skipped;  // build-once: already present and valid
      continue;
    }
    const auto table = nowsched::solver::solve_shared(req, pool);
    if (!store.store(key, table)) {
      std::fprintf(stderr, "cache_bake: failed to persist %s\n",
                   store.path_for(key).c_str());
      return 1;
    }
    ++baked;
  }
  // stats() drains the publisher first: every accepted table has either
  // landed (counted in `stores`) or failed by now.
  const auto stats = store.stats();
  if (stats.stores != static_cast<std::uint64_t>(baked)) {
    std::fprintf(stderr, "cache_bake: only %llu of %d table(s) published\n",
                 static_cast<unsigned long long>(stats.stores), baked);
    return 1;
  }
  std::printf(
      "baked %d table(s), skipped %d already present, %.2fs; store now holds "
      "%zu entr%s (%.1f MiB)\n",
      baked, skipped, seconds_since(start), stats.entries,
      stats.entries == 1 ? "y" : "ies",
      static_cast<double>(stats.bytes) / (1024.0 * 1024.0));
  return 0;
}

int check(nowsched::solver::MappedTableStore& store,
          const std::vector<SolveRequest>& requests,
          nowsched::util::ThreadPool* pool, double min_speedup) {
  int defects = 0;
  double solve_seconds = 0.0;
  double load_seconds = 0.0;
  for (const SolveRequest& req : requests) {
    const SolveKey key = nowsched::solver::canonical_key(req);
    const std::string path = store.path_for(key);

    const std::string verdict =
        nowsched::solver::MappedTableStore::validate_file(path, &key);
    if (!verdict.empty()) {
      std::fprintf(stderr, "cache_bake: %s: %s\n", path.c_str(),
                   verdict.c_str());
      ++defects;
      continue;
    }

    auto load_start = std::chrono::steady_clock::now();
    const auto mapped = store.load(key);
    load_seconds += seconds_since(load_start);
    if (mapped == nullptr) {
      std::fprintf(stderr, "cache_bake: %s: load failed after validation\n",
                   path.c_str());
      ++defects;
      continue;
    }

    auto solve_start = std::chrono::steady_clock::now();
    const auto solved = nowsched::solver::solve_shared(req, pool);
    solve_seconds += seconds_since(solve_start);

    // Field-for-field: the mapped table must reproduce the fresh solve
    // exactly — same dims, same parameters, same value at every (p, L).
    bool mismatch = mapped->max_interrupts() != solved->max_interrupts() ||
                    mapped->max_lifespan() != solved->max_lifespan() ||
                    mapped->params().c != solved->params().c;
    if (!mismatch) {
      for (int p = 0; p <= solved->max_interrupts() && !mismatch; ++p) {
        for (Ticks l = 0; l <= solved->max_lifespan(); ++l) {
          if (mapped->value(p, l) != solved->value(p, l)) {
            std::fprintf(stderr,
                         "cache_bake: %s: W(%d)[%lld] is %lld mapped vs %lld "
                         "solved\n",
                         path.c_str(), p, static_cast<long long>(l),
                         static_cast<long long>(mapped->value(p, l)),
                         static_cast<long long>(solved->value(p, l)));
            mismatch = true;
            break;
          }
        }
      }
    }
    if (mismatch) ++defects;
  }

  if (defects > 0) {
    std::fprintf(stderr, "cache_bake: %d defective table(s)\n", defects);
    return 1;
  }
  const double speedup =
      load_seconds > 0.0 ? solve_seconds / load_seconds : 0.0;
  std::printf(
      "checked %zu table(s): all bit-identical to fresh solves; fresh solves "
      "%.3fs, mapped loads %.3fs (%.0fx warm-start speedup)\n",
      requests.size(), solve_seconds, load_seconds, speedup);
  if (min_speedup > 0.0 && speedup < min_speedup) {
    std::fprintf(stderr,
                 "cache_bake: warm-start speedup %.1fx is below the required "
                 "%.1fx\n",
                 speedup, min_speedup);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const nowsched::util::Flags flags(argc, argv);
  if (flags.has("help")) {
    std::printf(
        "usage: %s --store=DIR [--check] [grid flags]\n"
        "  --store=DIR        store directory (created when baking)\n"
        "  --check            verify instead of bake: format + bit-identity\n"
        "                     vs fresh solves + warm-start speedup\n"
        "  --min-speedup=X    (check) fail when solve/load speedup < X\n"
        "  --p=N --u=N        grid: max interrupts / base lifespan (8, 4096)\n"
        "  --keys=N --step=N  grid: key count / lifespan stride (16, 512)\n"
        "  --c=N              checkpoint cost (16)\n"
        "  --threads=N        solver threads (default: hardware)\n",
        flags.program().c_str());
    return 0;
  }

  const std::string dir = flags.get("store", "");
  if (dir.empty()) {
    std::fprintf(stderr, "%s: --store=DIR is required (see --help)\n",
                 flags.program().c_str());
    return 2;
  }
  GridFlags grid;
  grid.max_p = static_cast<int>(flags.get_int("p", 8));
  grid.base_u = flags.get_int("u", 4096);
  grid.step = flags.get_int("step", 512);
  grid.keys = static_cast<int>(flags.get_int("keys", 16));
  grid.c = flags.get_int("c", 16);
  if (grid.keys < 1) {
    std::fprintf(stderr, "%s: --keys must be >= 1\n", flags.program().c_str());
    return 2;
  }

  const auto thread_count = flags.get_int("threads", 0);
  // 0 → hardware concurrency (ThreadPool's own default).
  nowsched::util::ThreadPool pool(
      thread_count > 0 ? static_cast<std::size_t>(thread_count) : 0);

  try {
    nowsched::solver::MappedTableStore store({dir});
    const std::vector<SolveRequest> requests = hot_keys(grid);
    return flags.get_bool("check", false)
               ? check(store, requests, &pool,
                       flags.get_double("min-speedup", 0.0))
               : bake(store, requests, &pool);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", flags.program().c_str(), e.what());
    return 1;
  }
}
