// File I/O primitives for the persistent table store: a platform-stable
// 64-bit content checksum, a read-only memory mapping with RAII lifetime,
// and crash-safe whole-file publication (temp file + atomic rename).
//
// Checksumming uses the same SplitMix64 mixing chain as util/hash.h, so a
// store file's integrity verdict is identical on every platform — the same
// discipline that keeps SolveKey shard assignment and RNG stream derivation
// reproducible. A single flipped bit anywhere in the input avalanches
// through hash_combine, so corruption detection does not depend on where in
// the slab the damage landed.
//
// MappedFile is the zero-copy read path: the kernel's page cache IS the
// shared cache when N processes map one store file, and a mapping outlives
// the MappedFile only through the shared_ptr keepalive its users hold
// (solver::ValueTable views hold exactly that). On platforms without
// <sys/mman.h> the class degrades to read-the-file-into-memory — same
// interface, same correctness, no sharing.
//
// atomic_write_file is the build-once publication primitive: writers dump
// the full payload into a private sibling temp file and rename() it over the
// target, so a reader NEVER observes a half-written file — it sees the old
// file, the new file, or nothing. Concurrent writers of identical content
// (the table store's case: solves are deterministic) are safe by the same
// argument: last rename wins and every version was complete and identical.
// It comes in two halves, write_temp_file and publish_temp_file (fsync,
// close, rename), so a caller can write on its own thread and leave the
// fsync to another one (solver::MappedTableStore's publisher thread).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#if defined(_WIN32)
#include <fstream>
#include <vector>
#else
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "util/hash.h"

namespace nowsched::util {

/// Platform-stable 64-bit checksum of a byte range: SplitMix64-mixed 8-byte
/// words chained with hash_combine, seeded with the length so that prefixes
/// and zero-padded extensions do not collide. Not cryptographic — this
/// guards against bit rot and truncation, not adversaries with write access
/// to the store directory.
[[nodiscard]] inline std::uint64_t checksum_bytes(const void* data,
                                                  std::size_t size) noexcept {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t h = hash_mix(0x6E777363u /* "nwsc" */ ^
                             static_cast<std::uint64_t>(size));
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    std::uint64_t word;
    std::memcpy(&word, bytes + i, 8);
    h = hash_combine(h, word);
  }
  if (i < size) {
    std::uint64_t tail = 0;
    for (std::size_t k = 0; i < size; ++i, ++k) {
      tail |= static_cast<std::uint64_t>(bytes[i]) << (8 * k);
    }
    h = hash_combine(h, tail);
  }
  return h;
}

/// A whole file mapped (or, on non-POSIX platforms, read) into memory,
/// read-only. Open never throws — a missing or unreadable file is a null
/// return, because for the table store "cannot load" is a cache miss, not
/// an error.
class MappedFile {
 public:
  /// Maps `path` read-only; returns nullptr when the file cannot be opened
  /// or mapped. An empty file maps successfully with size() == 0.
  static std::unique_ptr<MappedFile> open(const std::string& path) {
#if defined(_WIN32)
    std::ifstream in(path, std::ios::binary);
    if (!in) return nullptr;
    std::vector<unsigned char> buffer((std::istreambuf_iterator<char>(in)),
                                      std::istreambuf_iterator<char>());
    if (!in.good() && !in.eof()) return nullptr;
    auto file = std::unique_ptr<MappedFile>(new MappedFile());
    file->buffer_ = std::move(buffer);
    file->size_ = file->buffer_.size();
    file->data_ = file->buffer_.data();
    return file;
#else
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) return nullptr;
    struct stat st;
    if (::fstat(fd, &st) != 0 || st.st_size < 0) {
      ::close(fd);
      return nullptr;
    }
    auto file = std::unique_ptr<MappedFile>(new MappedFile());
    file->size_ = static_cast<std::size_t>(st.st_size);
    if (file->size_ > 0) {
      void* base = ::mmap(nullptr, file->size_, PROT_READ, MAP_SHARED, fd, 0);
      if (base == MAP_FAILED) {
        ::close(fd);
        return nullptr;
      }
      file->mapping_ = base;
      file->data_ = static_cast<const unsigned char*>(base);
    }
    ::close(fd);  // the mapping keeps the inode alive; the fd is not needed
    return file;
#endif
  }

  ~MappedFile() {
#if !defined(_WIN32)
    if (mapping_ != nullptr) ::munmap(mapping_, size_);
#endif
  }

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  const unsigned char* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }

 private:
  MappedFile() = default;

  const unsigned char* data_ = nullptr;
  std::size_t size_ = 0;
#if defined(_WIN32)
  std::vector<unsigned char> buffer_;
#else
  void* mapping_ = nullptr;
#endif
};

/// A payload fully written to its private sibling temp file but not yet
/// published under its final name: what write_temp_file hands to
/// publish_temp_file. On POSIX the temp file is still open so the publish
/// half can fsync it; on Windows the write half has already closed it.
/// Move-only owner of the temp file: one destroyed before publication
/// closes its fd and removes the file, so an abandoned write leaves
/// nothing behind.
struct TempFile {
  TempFile(std::string tmp, std::string target)
      : tmp_path(std::move(tmp)), path(std::move(target)) {}
  TempFile(TempFile&& other) noexcept
      : tmp_path(std::move(other.tmp_path)),
        path(std::move(other.path)),
        fd(std::exchange(other.fd, -1)),
        owned(std::exchange(other.owned, false)) {}
  TempFile(const TempFile&) = delete;
  TempFile& operator=(const TempFile&) = delete;
  TempFile& operator=(TempFile&&) = delete;
  ~TempFile() {
    if (!owned) return;
#if !defined(_WIN32)
    if (fd >= 0) ::close(fd);
#endif
    std::remove(tmp_path.c_str());
  }

  std::string tmp_path;  ///< the sibling temp file holding the payload
  std::string path;      ///< the name publish_temp_file renames it to
  int fd = -1;
  bool owned = true;     ///< the temp file is this object's to remove
};

/// The write half of atomic_write_file: writes `head` then `body` into the
/// sibling temp file `path + ".tmp." + tag` (same directory, so the later
/// rename cannot cross filesystems). Returns nullopt — with the temp file
/// already removed — on any I/O failure. `tag` disambiguates concurrent
/// writers' temp names (pass something process/thread-unique). Two pieces,
/// so a caller publishing a header plus a large slab need not first copy
/// both into one buffer (`body` may be empty).
inline std::optional<TempFile> write_temp_file(const std::string& path,
                                               const void* head,
                                               std::size_t head_size,
                                               const void* body,
                                               std::size_t body_size,
                                               const std::string& tag) {
  TempFile file(path + ".tmp." + tag, path);
#if defined(_WIN32)
  std::ofstream out(file.tmp_path, std::ios::binary | std::ios::trunc);
  if (!out) return std::nullopt;
  out.write(static_cast<const char*>(head),
            static_cast<std::streamsize>(head_size));
  out.write(static_cast<const char*>(body),
            static_cast<std::streamsize>(body_size));
  out.close();
  if (out.fail()) return std::nullopt;
#else
  file.fd = ::open(file.tmp_path.c_str(),
                   O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (file.fd < 0) return std::nullopt;
  for (const auto& [data, size] :
       {std::pair{head, head_size}, std::pair{body, body_size}}) {
    const unsigned char* bytes = static_cast<const unsigned char*>(data);
    std::size_t written = 0;
    while (written < size) {
      const ::ssize_t n = ::write(file.fd, bytes + written, size - written);
      if (n < 0) return std::nullopt;
      written += static_cast<std::size_t>(n);
    }
  }
#endif
  return file;
}

/// The publish half of atomic_write_file: fsync → close → rename, in that
/// order, so the final name never points at an unsynced or partial file.
/// Returns false — with the temp file removed and the target untouched —
/// on any failure, including a temp file or directory that vanished since
/// the write half. The renames need no coordination between writers
/// because each is atomic and every writer publishes identical complete
/// content or none.
inline bool publish_temp_file(TempFile file) {
#if defined(_WIN32)
  // Windows rename() fails on an existing target; the table store's content
  // is deterministic per name, so replacing is equivalent to keeping.
  std::remove(file.path.c_str());
#else
  // Flush payload before publishing the name: after a crash the target is
  // either absent or complete, never garbage with a valid-looking header.
  const bool synced = ::fsync(file.fd) == 0;
  if (::close(std::exchange(file.fd, -1)) != 0 || !synced) return false;
#endif
  if (std::rename(file.tmp_path.c_str(), file.path.c_str()) != 0) return false;
  file.owned = false;  // the temp name is gone: it is the target now
  return true;
}

/// Publishes `head` followed by `body` at `path` atomically, in one call:
/// write_temp_file then publish_temp_file. Returns false — leaving the
/// target untouched — on any I/O failure.
inline bool atomic_write_file(const std::string& path, const void* head,
                              std::size_t head_size, const void* body,
                              std::size_t body_size, const std::string& tag) {
  std::optional<TempFile> file =
      write_temp_file(path, head, head_size, body, body_size, tag);
  return file.has_value() && publish_temp_file(std::move(*file));
}

}  // namespace nowsched::util
