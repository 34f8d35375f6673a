#include "solver/solve_cache.h"

#include <utility>

#include "solver/fast_solver.h"

namespace nowsched::solver {

std::shared_ptr<const ValueTable> solve_shared(const SolveRequest& req,
                                               util::ThreadPool* pool) {
  const SolveKey key = canonical_key(req);
  return std::make_shared<const ValueTable>(
      solve_fast(key.max_p, key.max_lifespan, Params{key.c}, pool));
}

SolveCache::SolveCache() : SolveCache(Options()) {}

SolveCache::SolveCache(Options options)
    : stripes_(options.shards),
      shards_(stripes_.stripes()),
      resident_(ResidentTableStore::Options{options.shards, options.max_bytes}),
      store_(std::move(options.store)) {}

void SolveCache::set_max_bytes(std::size_t max_bytes) {
  resident_.set_max_bytes(max_bytes);
}

std::shared_ptr<const ValueTable> SolveCache::get_or_solve(const SolveRequest& req,
                                                           util::ThreadPool* pool) {
  const SolveKey key = canonical_key(req);
  const std::uint64_t hash = key.hash();
  Shard& shard = shards_[stripes_.index_for(hash)];

  std::promise<TablePtr> promise;
  Future future;
  bool owner = false;
  std::uint64_t my_insert_id = 0;
  {
    auto guard = stripes_.lock(hash);
    // Tier 1, probed under the in-flight stripe so a table moving from the
    // in-flight map to the resident tier (both happen under this lock) can
    // never be missed by a concurrent requester. Lock order is always
    // in-flight stripe → resident stripe, so the nesting cannot deadlock.
    if (TablePtr resident = resident_.load(key)) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return resident;
    }
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      future = it->second.future;  // copy out, then wait outside the lock
      hits_.fetch_add(1, std::memory_order_relaxed);
    } else {
      future = promise.get_future().share();
      my_insert_id = ++shard.next_id;
      shard.map.emplace(key, Entry{future, my_insert_id});
      owner = true;
      misses_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  if (owner) {
    // Resolve the miss outside the stripe lock: other keys on this stripe
    // stay resolvable, and waiters on THIS key block on the future instead.
    try {
      bool solved = false;
      TablePtr table = store_ ? store_->load(key) : nullptr;
      if (table != nullptr) {
        store_hits_.fetch_add(1, std::memory_order_relaxed);
      } else {
        table = solve_shared(req, pool);
        solved = true;
      }
      promise.set_value(table);
      {
        auto guard = stripes_.lock(hash);
        auto it = shard.map.find(key);
        // Promote to the resident tier only if OUR in-flight entry is still
        // the one registered — a concurrent clear() may have dropped it
        // (drop-on-arrival), or a clear()+re-request replaced it with a
        // fresh attempt that will do its own promotion.
        if (it != shard.map.end() && it->second.insert_id == my_insert_id) {
          resident_.store(key, table);  // nested: in-flight → resident
          shard.map.erase(it);
        }
      }
      // Spill a FRESH solve to the persistent tier, outside every lock —
      // a store hit is already on disk, and a failed spill only costs the
      // next cold process a solve. The store publishes asynchronously, so
      // this costs the temp-file write, not the fsync.
      if (solved && store_ != nullptr && store_->store(key, table)) {
        spills_.fetch_add(1, std::memory_order_relaxed);
      }
    } catch (...) {
      promise.set_exception(std::current_exception());
      auto guard = stripes_.lock(hash);
      auto it = shard.map.find(key);
      // Clear only OUR failed attempt so a later call retries — a
      // concurrent clear()+re-request may have installed a healthy entry.
      if (it != shard.map.end() && it->second.insert_id == my_insert_id) {
        shard.map.erase(it);
      }
      throw;
    }
  }
  return future.get();  // rethrows the owner's exception for waiters
}

SolveCacheStats SolveCache::stats() const {
  SolveCacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.store_hits = store_hits_.load(std::memory_order_relaxed);
  s.spills = spills_.load(std::memory_order_relaxed);
  const TableStoreStats resident = resident_.stats();
  s.evictions = resident.evictions;
  s.entries = resident.entries;
  s.resident_bytes = resident.bytes;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    std::unique_lock<std::mutex> guard(stripes_.stripe(i));
    s.entries += shards_[i].map.size();
  }
  return s;
}

void SolveCache::clear() {
  // In-flight entries first: once an owner's insert_id no longer matches,
  // its completion is dropped on arrival instead of repopulating the
  // resident tier we are about to clear.
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    std::unique_lock<std::mutex> guard(stripes_.stripe(i));
    shards_[i].map.clear();
  }
  resident_.clear();
}

}  // namespace nowsched::solver
