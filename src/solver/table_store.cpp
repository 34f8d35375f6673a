#include "solver/table_store.h"

#include <cstring>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <system_error>
#include <type_traits>
#include <utility>

#if defined(_WIN32)
#include <process.h>
#else
#include <unistd.h>
#endif

namespace nowsched::solver {

// ---------------------------------------------------------------------------
// ResidentTableStore
// ---------------------------------------------------------------------------

ResidentTableStore::ResidentTableStore(Options options)
    : stripes_(options.shards), shards_(stripes_.stripes()) {
  // An even slice per shard. A slice of 0 is legal: each shard then retains
  // only its most recently used table (the keep-newest guarantee).
  per_shard_budget_ = options.max_bytes / shards_.size();
  max_bytes_ = options.max_bytes;
}

std::shared_ptr<const ValueTable> ResidentTableStore::load(const SolveKey& key) {
  const std::uint64_t hash = key.hash();
  Shard& shard = shards_[stripes_.index_for(hash)];
  auto guard = stripes_.lock(hash);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  it->second.last_used = ++shard.clock;
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second.table;
}

bool ResidentTableStore::store(const SolveKey& key,
                               const std::shared_ptr<const ValueTable>& table) {
  const std::uint64_t hash = key.hash();
  Shard& shard = shards_[stripes_.index_for(hash)];
  const std::size_t table_bytes = table->bytes();
  auto guard = stripes_.lock(hash);
  Entry& entry = shard.map[key];
  shard.bytes -= entry.bytes;  // 0 for a fresh entry; the old size on refresh
  entry.table = table;
  entry.bytes = table_bytes;
  entry.last_used = ++shard.clock;
  shard.bytes += table_bytes;
  evict_excess_locked(shard, key);
  stores_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void ResidentTableStore::evict_excess_locked(Shard& shard, const SolveKey& keep) {
  // `keep` — the table whose arrival triggered this pass — always survives,
  // so a single oversized table parks in its shard instead of thrashing.
  const std::size_t budget = per_shard_budget_.load(std::memory_order_relaxed);
  while (shard.bytes > budget) {
    auto victim = shard.map.end();
    for (auto it = shard.map.begin(); it != shard.map.end(); ++it) {
      if (it->first == keep) continue;
      if (victim == shard.map.end() ||
          it->second.last_used < victim->second.last_used) {
        victim = it;
      }
    }
    if (victim == shard.map.end()) break;  // nothing evictable remains
    shard.bytes -= victim->second.bytes;
    shard.map.erase(victim);
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

void ResidentTableStore::set_max_bytes(std::size_t max_bytes) {
  max_bytes_.store(max_bytes, std::memory_order_relaxed);
  per_shard_budget_.store(max_bytes / shards_.size(), std::memory_order_relaxed);
  // Shrinks take effect now, not on the next store: walk every shard and
  // evict down to the new slice, keeping the most recently used table (the
  // same guarantee the store path gives).
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    std::unique_lock<std::mutex> guard(stripes_.stripe(i));
    Shard& shard = shards_[i];
    if (shard.map.empty()) continue;
    auto newest = shard.map.begin();
    for (auto it = shard.map.begin(); it != shard.map.end(); ++it) {
      if (it->second.last_used > newest->second.last_used) newest = it;
    }
    evict_excess_locked(shard, newest->first);
  }
}

void ResidentTableStore::clear() {
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    std::unique_lock<std::mutex> guard(stripes_.stripe(i));
    shards_[i].map.clear();
    shards_[i].bytes = 0;
  }
}

TableStoreStats ResidentTableStore::stats() const {
  TableStoreStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.stores = stores_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    std::unique_lock<std::mutex> guard(stripes_.stripe(i));
    s.entries += shards_[i].map.size();
    s.bytes += shards_[i].bytes;
  }
  return s;
}

// ---------------------------------------------------------------------------
// MappedTableStore — the `nowsched-table v1` format
// ---------------------------------------------------------------------------

namespace {

constexpr char kMagic[8] = {'N', 'W', 'T', 'A', 'B', 'L', 'E', '1'};
constexpr std::uint32_t kFormatVersion = 1;
constexpr const char* kFileSuffix = ".nwt";

/// The fixed 64-byte file header (field table in table_store.h). Packed by
/// construction: 8 + 4 + 4 + 3×8 + 3×8 leaves no padding holes, which the
/// static_asserts pin — checksums over struct bytes must be layout-stable.
struct FileHeader {
  char magic[8];
  std::uint32_t version;
  std::uint32_t reserved;
  std::int64_t max_p;
  std::int64_t max_lifespan;
  std::int64_t c;
  std::uint64_t slab_bytes;
  std::uint64_t slab_checksum;
  std::uint64_t header_checksum;  ///< over the 56 bytes preceding this field
};
static_assert(sizeof(FileHeader) == 64, "nowsched-table v1 header is 64 bytes");
static_assert(std::is_trivially_copyable_v<FileHeader>);
constexpr std::size_t kHeaderChecksumSpan = offsetof(FileHeader, header_checksum);
static_assert(kHeaderChecksumSpan == 56);

FileHeader make_header(const SolveKey& key, std::size_t slab_bytes,
                       std::uint64_t slab_checksum) {
  FileHeader header{};
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.version = kFormatVersion;
  header.reserved = 0;
  header.max_p = key.max_p;
  header.max_lifespan = key.max_lifespan;
  header.c = key.c;
  header.slab_bytes = static_cast<std::uint64_t>(slab_bytes);
  header.slab_checksum = slab_checksum;
  header.header_checksum = util::checksum_bytes(&header, kHeaderChecksumSpan);
  return header;
}

/// Full-format validation against a mapped file. Returns the reason the
/// file is defective, or empty when it is a well-formed `nowsched-table v1`
/// whose header matches `expect` (when given). On success fills *out_header.
std::string check_mapped(const util::MappedFile& file, const SolveKey* expect,
                         FileHeader* out_header) {
  if (file.size() < sizeof(FileHeader)) {
    return "truncated: " + std::to_string(file.size()) +
           " bytes, header needs " + std::to_string(sizeof(FileHeader));
  }
  FileHeader header;
  std::memcpy(&header, file.data(), sizeof(header));
  if (std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0) {
    return "bad magic (not a nowsched-table file)";
  }
  if (header.version != kFormatVersion) {
    return "format version " + std::to_string(header.version) +
           " (this build reads v" + std::to_string(kFormatVersion) + ")";
  }
  if (header.header_checksum !=
      util::checksum_bytes(file.data(), kHeaderChecksumSpan)) {
    return "header checksum mismatch";
  }
  if (header.max_p < 0 || header.max_lifespan < 0 || header.c < 1) {
    return "header key fields out of range";
  }
  const std::size_t expected_slab =
      (static_cast<std::size_t>(header.max_p) + 1) *
      (static_cast<std::size_t>(header.max_lifespan) + 1) * sizeof(Ticks);
  if (header.slab_bytes != expected_slab) {
    return "slab_bytes " + std::to_string(header.slab_bytes) +
           " disagrees with header dims (" + std::to_string(expected_slab) + ")";
  }
  if (file.size() != sizeof(FileHeader) + header.slab_bytes) {
    return "file is " + std::to_string(file.size()) + " bytes, header promises " +
           std::to_string(sizeof(FileHeader) + header.slab_bytes);
  }
  if (expect != nullptr &&
      (header.max_p != expect->max_p ||
       header.max_lifespan != expect->max_lifespan || header.c != expect->c)) {
    return "header key (p=" + std::to_string(header.max_p) + ", L=" +
           std::to_string(header.max_lifespan) + ", c=" +
           std::to_string(header.c) + ") does not match the requested key";
  }
  if (header.slab_checksum !=
      util::checksum_bytes(file.data() + sizeof(FileHeader),
                           static_cast<std::size_t>(header.slab_bytes))) {
    return "slab checksum mismatch";
  }
  if (out_header != nullptr) *out_header = header;
  return {};
}

std::string hex16(std::uint64_t value) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[value & 0xF];
    value >>= 4;
  }
  return out;
}

}  // namespace

MappedTableStore::MappedTableStore(Options options)
    : options_(std::move(options)) {
  if (options_.dir.empty()) {
    throw std::runtime_error("MappedTableStore: empty store directory");
  }
  std::error_code ec;
  if (options_.read_only) {
    if (!std::filesystem::is_directory(options_.dir, ec)) {
      throw std::runtime_error("MappedTableStore: read-only store directory '" +
                               options_.dir + "' does not exist");
    }
  } else {
    std::filesystem::create_directories(options_.dir, ec);
    if (ec || !std::filesystem::is_directory(options_.dir)) {
      throw std::runtime_error("MappedTableStore: cannot create store directory '" +
                               options_.dir + "': " + ec.message());
    }
  }
}

std::string MappedTableStore::file_name(const SolveKey& key) {
  return hex16(key.hash()) + kFileSuffix;
}

std::string MappedTableStore::path_for(const SolveKey& key) const {
  return (std::filesystem::path(options_.dir) / file_name(key)).string();
}

std::shared_ptr<const ValueTable> MappedTableStore::load(const SolveKey& key) {
  {
    // A pending key is on its way to disk: wait for it rather than miss and
    // solve it a second time.
    const std::uint64_t hash = key.hash();
    std::unique_lock<std::mutex> lock(publish_mutex_);
    landed_cv_.wait(lock, [&] { return !pending_.contains(hash); });
  }
  const std::string path = path_for(key);
  std::unique_ptr<util::MappedFile> file = util::MappedFile::open(path);
  if (file == nullptr) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  FileHeader header;
  const std::string defect = check_mapped(*file, &key, &header);
  if (!defect.empty()) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    if (!options_.read_only && options_.purge_rejected) {
      std::error_code ec;
      std::filesystem::remove(path, ec);  // best effort; next spill heals
    }
    return nullptr;
  }
  // Zero-copy: the table is a view over the mapping's own payload bytes,
  // and the shared MappedFile keepalive pins the mapping for as long as any
  // copy of the table (or any policy holding it) lives.
  std::shared_ptr<const util::MappedFile> keepalive(std::move(file));
  const Ticks* slab =
      reinterpret_cast<const Ticks*>(keepalive->data() + sizeof(FileHeader));
  const std::size_t count =
      static_cast<std::size_t>(header.slab_bytes) / sizeof(Ticks);
  auto table = std::make_shared<const ValueTable>(ValueTable::view(
      static_cast<int>(header.max_p), header.max_lifespan, Params{header.c},
      std::span<const Ticks>(slab, count), keepalive));
  hits_.fetch_add(1, std::memory_order_relaxed);
  return table;
}

bool MappedTableStore::store(const SolveKey& key,
                             const std::shared_ptr<const ValueTable>& table) {
  if (options_.read_only) {
    store_skips_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  const std::uint64_t hash = key.hash();
  {
    std::lock_guard<std::mutex> lock(publish_mutex_);
    if (!pending_.insert(hash).second) {
      // Build-once, in-process half: this key is already on its way.
      store_skips_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
  }
  const std::string path = path_for(key);
  std::error_code ec;
  if (std::filesystem::exists(path, ec)) {
    // Build-once: somebody already published this key. A corrupt survivor
    // is healed through load()'s purge path, not overwritten here.
    settle(hash);
    store_skips_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  bool queued = false;
  try {
    queued = write_and_queue(key, *table, path);
  } catch (...) {
    settle(hash);  // never leave a loader waiting on a key nobody publishes
    throw;
  }
  if (!queued) settle(hash);
  return queued;
}

bool MappedTableStore::write_and_queue(const SolveKey& key,
                                       const ValueTable& table,
                                       const std::string& path) {
  const std::span<const Ticks> slab = table.slab();
  const std::size_t slab_bytes = slab.size_bytes();
  const FileHeader header = make_header(
      key, slab_bytes, util::checksum_bytes(slab.data(), slab_bytes));

  // Process-unique temp tag: two processes (or two tenant caches in one
  // process) racing a spill must not share a temp file, or interleaved
  // writes could publish garbage through a valid rename.
  const std::string tag =
#if defined(_WIN32)
      std::to_string(static_cast<unsigned long>(::_getpid())) +
#else
      std::to_string(static_cast<unsigned long>(::getpid())) +
#endif
      "." + std::to_string(write_tag_.fetch_add(1, std::memory_order_relaxed));
  std::optional<util::TempFile> file = util::write_temp_file(
      path, &header, sizeof(header), slab.data(), slab_bytes, tag);
  if (!file.has_value()) return false;

  Publication publication{std::move(*file), key.hash()};
  std::unique_lock<std::mutex> lock(publish_mutex_);
  landed_cv_.wait(lock, [&] { return queue_.size() < kMaxQueuedPublications; });
  if (!publisher_.joinable()) {
    try {
      publisher_ = std::thread([this] { publish_loop(); });
    } catch (const std::system_error&) {
      // No thread to hand off to: publish on the caller.
      lock.unlock();
      land(std::move(publication));
      return true;
    }
  }
  queue_.push_back(std::move(publication));
  ++queued_;
  work_cv_.notify_one();
  return true;
}

void MappedTableStore::land(Publication publication) {
  if (util::publish_temp_file(std::move(publication.file))) {
    stores_.fetch_add(1, std::memory_order_relaxed);
  }
  settle(publication.key_hash);
}

void MappedTableStore::settle(std::uint64_t key_hash) {
  std::lock_guard<std::mutex> lock(publish_mutex_);
  pending_.erase(key_hash);
  landed_cv_.notify_all();
}

void MappedTableStore::publish_loop() {
  std::unique_lock<std::mutex> lock(publish_mutex_);
  for (;;) {
    work_cv_.wait(lock, [&] { return stopping_ || (!queue_.empty() && !held_); });
    if (queue_.empty()) return;  // stopping, and nothing left to publish
    Publication publication = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    // land() notifies landed_cv_, which also wakes a store() waiting for
    // the queue slot just freed.
    land(std::move(publication));
    lock.lock();
    ++landed_;
    landed_cv_.notify_all();
  }
}

void MappedTableStore::flush() const {
  std::unique_lock<std::mutex> lock(publish_mutex_);
  const std::uint64_t target = queued_;
  landed_cv_.wait(lock, [&] { return landed_ >= target; });
}

MappedTableStore::~MappedTableStore() {
  {
    // The publisher empties the queue before it exits, held or not.
    std::lock_guard<std::mutex> lock(publish_mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  if (publisher_.joinable()) publisher_.join();
}

void MappedTableStore::clear() {
  if (options_.read_only) return;
  // Drain first, so a queued rename cannot bring back a file removed below.
  flush();
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(options_.dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (entry.path().extension() == kFileSuffix ||
        name.find(std::string(kFileSuffix) + ".tmp.") != std::string::npos) {
      std::error_code remove_ec;
      std::filesystem::remove(entry.path(), remove_ec);
    }
  }
}

TableStoreStats MappedTableStore::stats() const {
  flush();
  TableStoreStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.stores = stores_.load(std::memory_order_relaxed);
  s.store_skips = store_skips_.load(std::memory_order_relaxed);
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(options_.dir, ec)) {
    if (entry.path().extension() != kFileSuffix) continue;
    std::error_code size_ec;
    const auto size = std::filesystem::file_size(entry.path(), size_ec);
    if (size_ec) continue;
    ++s.entries;
    s.bytes += size > sizeof(FileHeader)
                   ? static_cast<std::size_t>(size) - sizeof(FileHeader)
                   : 0;
  }
  return s;
}

std::string MappedTableStore::validate_file(const std::string& path,
                                            const SolveKey* expect) {
  std::unique_ptr<util::MappedFile> file = util::MappedFile::open(path);
  if (file == nullptr) return "cannot open '" + path + "'";
  return check_mapped(*file, expect, nullptr);
}

}  // namespace nowsched::solver
