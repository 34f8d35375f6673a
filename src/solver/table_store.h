// TableStore — the storage-backend interface beneath solver::SolveCache,
// and its two backends: the resident RAM tier (ResidentTableStore) and the
// content-addressed, memory-mapped persistent tier (MappedTableStore).
//
// The cache used to BE its resident tier; now the tier is a backend behind
// a narrow interface (load / store / clear / stats), which is what lets a
// second, persistent tier slot underneath it: RAM hit → mapped-store hit →
// solve + spill, with identical results in every tier by construction
// (solves are deterministic, stored slabs are checksummed, and a mapped
// table is an immutable ValueTable view over the file's own pages).
//
// ## On-disk format: `nowsched-table v1`
//
// One file per canonical SolveKey, named by the key's platform-stable
// content hash (`<hex16 of SolveKey::hash()>.nwt`), laid out as:
//
//   | offset | size | field                                            |
//   |--------|------|--------------------------------------------------|
//   | 0      | 8    | magic "NWTABLE1"                                 |
//   | 8      | 4    | format version (1)                               |
//   | 12     | 4    | reserved (0)                                     |
//   | 16     | 8    | key.max_p        (int64)                         |
//   | 24     | 8    | key.max_lifespan (int64)                         |
//   | 32     | 8    | key.c            (int64)                         |
//   | 40     | 8    | slab_bytes — payload length                      |
//   | 48     | 8    | slab checksum (util::checksum_bytes)             |
//   | 56     | 8    | header checksum over bytes [0, 56)               |
//   | 64     | ...  | the raw level-major slab, slab_bytes long        |
//
// Same format discipline as the `nowsched-scenario v1` replay files:
// versioned, strict, round-trip tested. Strictness is total — ANY defect
// (short file, wrong magic, stale version, either checksum, header key
// fields that do not match the file's name/request, payload length that
// disagrees with the dims or the file size) REJECTS the file and reads as a
// cache miss; the caller falls back to a fresh solve and the corrupt file
// is unlinked so the next spill heals the store. Integers are stored in
// native byte order: a store directory is shared between processes on one
// host (the multi-process scale-out story), not shipped between
// architectures.
//
// ## Build-once writes, mmap reads
//
// store() publishes via temp-file + fsync + atomic rename, split across two
// threads. The caller writes header and slab into a private temp file
// (util::write_temp_file) and returns; the store's one publisher thread
// then runs fsync → close → rename (util::publish_temp_file), so the
// fsync, the slow part, never sits on the request path. The crash
// protocol is the one-call protocol: a `.nwt` name never points at an
// unsynced or partial file. store() skips keys whose file already exists
// or whose publication is still pending, so N threads or processes racing
// to bake one key produce one valid entry — every writer that publishes
// publishes the same complete bytes (deterministic solver), and rename is
// atomic, so a reader NEVER sees a torn file. load() maps the file
// read-only and wraps the payload in a zero-copy ValueTable view whose
// keepalive pins the mapping; the kernel page cache makes the second and
// later mappings of a table effectively free, across processes.
//
// Asynchronous publication, in detail:
//   * pending keys: a key is pending from the moment store() accepts it
//     until its rename lands (or fails). load() of a pending key waits for
//     that publication, so two caches over one store still solve a key
//     exactly once; store() of a pending key is a store_skip.
//   * drain points: clear(), stats(), flush() and the destructor first wait
//     for every publication queued before the call. A clean shutdown
//     therefore leaves every accepted table on disk.
//   * the queue: at most kMaxQueuedPublications written temp files wait
//     for the publisher; a full queue blocks store() (backpressure). An
//     entry is an open fd and two paths — no table memory.
//   * counters: store() returning true means "accepted for publication";
//     `stores` counts publications that landed, so a publish that fails
//     (its temp file is unlinked) is never counted and a later miss heals
//     the key.
// The publisher thread starts with the first accepted store(); a read-only
// or load-only store never has one. A store with publications in flight
// must not be used from the child of a fork().
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "solver/solve_key.h"
#include "solver/value_table.h"
#include "util/mmap_file.h"
#include "util/striped_lock.h"

namespace nowsched::solver {

/// Lifetime counters of one backend. Monotone; `entries`/`bytes` are the
/// point-in-time resident (or on-disk) set.
struct TableStoreStats {
  std::uint64_t hits = 0;        ///< load() calls that returned a table
  std::uint64_t misses = 0;      ///< load() calls with no entry for the key
  std::uint64_t rejected = 0;    ///< load() found an entry but refused it
                                 ///< (corrupt / truncated / version or key
                                 ///< mismatch) — counted separately from
                                 ///< misses so store rot is observable
  std::uint64_t stores = 0;      ///< tables persisted (mapped: publications
                                 ///< whose rename landed)
  std::uint64_t store_skips = 0; ///< store() no-ops: entry already present
                                 ///< or pending (build-once), or backend
                                 ///< read-only
  std::uint64_t evictions = 0;   ///< entries dropped for a byte budget
  std::size_t entries = 0;
  std::size_t bytes = 0;         ///< logical slab bytes held by the backend
};

/// The narrow storage interface SolveCache tiers sit behind. Implementations
/// must be safe to call from many threads concurrently, must return tables
/// that are bit-identical to a fresh solve of the key (or nothing), and must
/// treat store() as idempotent per key.
class TableStore {
 public:
  virtual ~TableStore() = default;

  /// The table for `key`, or nullptr when this backend cannot supply it.
  /// Never throws on a defective entry — a table the backend cannot VOUCH
  /// for is a miss, and the caller solves fresh.
  virtual std::shared_ptr<const ValueTable> load(const SolveKey& key) = 0;

  /// Offers a finished table for retention. Returns true when the backend
  /// newly retained it or accepted it for persistence, false when it
  /// declined (already present or pending, read-only, I/O failure). Must
  /// never fail the caller: a spill that cannot be written only costs the
  /// next process a solve.
  virtual bool store(const SolveKey& key,
                     const std::shared_ptr<const ValueTable>& table) = 0;

  /// Drops every entry this backend holds (no-op for read-only backends).
  virtual void clear() = 0;

  virtual TableStoreStats stats() const = 0;

  /// Short backend identifier for logs/benches ("resident", "mapped").
  virtual const char* name() const noexcept = 0;
};

/// The RAM tier: a sharded map of finished tables under an exact byte
/// budget with per-shard LRU eviction — the storage half of the old
/// SolveCache, now behind the backend interface. Sharding mirrors the
/// cache's in-flight striping (same platform-stable key hash), the budget
/// is split evenly across shards, and every shard always keeps its most
/// recently used table even when that table alone exceeds the slice (a
/// cache that cannot hold the table it just built would thrash to zero
/// hits). set_max_bytes re-budgets live — the service layer's per-tenant
/// quota resize.
class ResidentTableStore final : public TableStore {
 public:
  struct Options {
    /// Stripe/shard count; rounded up to a power of two.
    std::size_t shards = 8;
    /// Total byte budget for resident tables across all shards.
    std::size_t max_bytes = 64u << 20;  // 64 MiB
  };

  ResidentTableStore() : ResidentTableStore(Options{}) {}
  explicit ResidentTableStore(Options options);

  ResidentTableStore(const ResidentTableStore&) = delete;
  ResidentTableStore& operator=(const ResidentTableStore&) = delete;

  /// A resident table is a hit AND a recency touch (it becomes its shard's
  /// newest-used entry).
  std::shared_ptr<const ValueTable> load(const SolveKey& key) override;

  /// Retains the table and immediately evicts least-recently-used tables
  /// from the shard until it fits its slice again; the just-stored table
  /// always survives the pass. Storing an already-present key refreshes the
  /// entry (and its recency) rather than duplicating it.
  bool store(const SolveKey& key,
             const std::shared_ptr<const ValueTable>& table) override;

  void clear() override;
  TableStoreStats stats() const override;
  const char* name() const noexcept override { return "resident"; }

  /// Re-budgets to `max_bytes` total (re-split evenly across shards) and
  /// immediately evicts every shard down to its new slice, keeping each
  /// shard's most recently used table. Growing never evicts.
  void set_max_bytes(std::size_t max_bytes);

  std::size_t max_bytes() const noexcept {
    return max_bytes_.load(std::memory_order_relaxed);
  }
  std::size_t shard_count() const noexcept { return stripes_.stripes(); }

 private:
  struct KeyHash {
    std::size_t operator()(const SolveKey& key) const noexcept {
      return static_cast<std::size_t>(key.hash());
    }
  };

  struct Entry {
    std::shared_ptr<const ValueTable> table;
    std::uint64_t last_used = 0;  ///< shard-local LRU clock value
    std::size_t bytes = 0;
  };

  struct Shard {
    std::unordered_map<SolveKey, Entry, KeyHash> map;
    std::uint64_t clock = 0;  ///< monotone per-shard use counter
    std::size_t bytes = 0;    ///< Σ entry.bytes of this map
  };

  /// Evicts LRU entries until the shard fits its slice or only `keep`
  /// remains (the keep-newest guarantee).
  void evict_excess_locked(Shard& shard, const SolveKey& keep);

  // mutable: stats() is logically const but must lock shard stripes.
  mutable util::StripedMutex stripes_;
  std::vector<Shard> shards_;
  // Atomic: set_max_bytes rewrites budgets while other threads evict under
  // their own stripe locks (relaxed is enough — eviction against a briefly
  // stale budget is corrected by the resize's own eviction pass).
  std::atomic<std::size_t> per_shard_budget_;
  std::atomic<std::size_t> max_bytes_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> stores_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

/// The persistent tier: a directory of `nowsched-table v1` files (format
/// above), content-addressed by canonical key hash. load() mmaps read-only
/// and returns a zero-copy ValueTable view; store() is build-once via
/// atomic rename, published asynchronously by one background thread.
/// Thread-safe and multi-process-safe by construction (see the header
/// comment); every defective file is rejected, counted, and — unless the
/// store is mounted read-only — unlinked so a later spill rebuilds it.
class MappedTableStore final : public TableStore {
 public:
  struct Options {
    /// Store directory; created (with parents) when missing unless
    /// read_only. Files land directly inside it.
    std::string dir;
    /// A warm shared mount: store() and clear() become no-ops and rejected
    /// files are left in place (some other writer owns the directory).
    bool read_only = false;
    /// Unlink files that fail validation so the store self-heals on the
    /// next spill. Ignored (off) when read_only.
    bool purge_rejected = true;
  };

  /// Most written temp files waiting for the publisher thread; store()
  /// blocks while the queue is full.
  static constexpr std::size_t kMaxQueuedPublications = 64;

  /// Throws std::runtime_error when the directory cannot be created (or,
  /// read-only, does not exist) — a misconfigured store path is a setup
  /// bug, unlike the per-file defects load() absorbs.
  explicit MappedTableStore(Options options);

  /// Drains the publication queue, then stops the publisher thread.
  ~MappedTableStore() override;

  MappedTableStore(const MappedTableStore&) = delete;
  MappedTableStore& operator=(const MappedTableStore&) = delete;

  /// Maps the key's file, validates the full format (magic, version, both
  /// checksums, header-vs-key identity, payload length vs dims AND file
  /// size), and returns a read-only view table pinning the mapping. Any
  /// defect → nullptr (and the `rejected` counter; the file is unlinked
  /// unless read_only or !purge_rejected). Validation reads the whole
  /// payload once (the checksum pass); later access is served from the
  /// page cache. A key whose publication is pending is waited for first.
  std::shared_ptr<const ValueTable> load(const SolveKey& key) override;

  /// Build-once spill: no-op (a store_skip) when the key's file already
  /// exists, its publication is pending, or the store is read-only;
  /// otherwise writes header + slab to a temp file on the calling thread
  /// and queues it for the publisher (blocking while the queue is full).
  /// True means accepted for publication. I/O failures return false (or,
  /// at publish time, are simply not counted as stores), never thrown.
  bool store(const SolveKey& key,
             const std::shared_ptr<const ValueTable>& table) override;

  /// Drains the queue, then removes every store file in the directory and
  /// every `*.nwt.tmp.*` temp file, including ones a crashed writer left
  /// behind (no-op when read-only). A writer racing clear() from another
  /// thread or process loses its publication; its next miss re-spills.
  void clear() override;

  /// Drains the queue first, so `stores` and entries/bytes include every
  /// publication accepted before the call. entries/bytes scan the directory
  /// (logical slab bytes, headers excluded) — stats() is for benches and
  /// operators, not hot paths.
  TableStoreStats stats() const override;

  /// Waits until every publication queued before the call has landed (or
  /// failed). For tests and bake tools that inspect the directory or hand
  /// it to another store instance.
  void flush() const;

  const char* name() const noexcept override { return "mapped"; }

  const std::string& dir() const noexcept { return options_.dir; }
  bool read_only() const noexcept { return options_.read_only; }

  /// Content-addressed file name of a canonical key:
  /// `<hex16 of key.hash()>.nwt`.
  static std::string file_name(const SolveKey& key);
  std::string path_for(const SolveKey& key) const;

  /// Full-format validation verdict for one store file: empty string when
  /// valid, else a human-readable reason. With `expect`, also enforces that
  /// the header's key fields match (the header/key-mismatch check load()
  /// applies). Exposed for cache_bake's verification pass and the
  /// corruption tests.
  static std::string validate_file(const std::string& path,
                                   const SolveKey* expect = nullptr);

 private:
  friend struct MappedTableStoreTestPeer;  // holds the publisher in tests

  /// One written temp file waiting for the publisher thread.
  struct Publication {
    util::TempFile file;
    std::uint64_t key_hash = 0;
  };

  /// Writes the temp file and queues it; false when the write failed.
  bool write_and_queue(const SolveKey& key, const ValueTable& table,
                       const std::string& path);
  /// Publishes one temp file, then retires its key from pending_.
  void land(Publication publication);
  /// Forgets a pending key whose store() gave up before queueing.
  void settle(std::uint64_t key_hash);
  void publish_loop();

  Options options_;
  // Publication state, all guarded by publish_mutex_. work_cv_ wakes the
  // publisher; landed_cv_ wakes everyone waiting on a landing (load() of a
  // pending key, drains, store() blocked on a full queue).
  mutable std::mutex publish_mutex_;
  std::condition_variable work_cv_;
  mutable std::condition_variable landed_cv_;
  std::deque<Publication> queue_;
  std::unordered_set<std::uint64_t> pending_;  ///< accepted, not yet landed
  std::uint64_t queued_ = 0;  ///< publications ever queued
  std::uint64_t landed_ = 0;  ///< publications ever finished, in queue order
  bool held_ = false;         ///< publisher paused (test seam)
  bool stopping_ = false;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> stores_{0};
  std::atomic<std::uint64_t> store_skips_{0};
  std::atomic<std::uint64_t> write_tag_{0};  ///< per-process temp-name nonce
  std::thread publisher_;  ///< last: it uses every member above
};

}  // namespace nowsched::solver
