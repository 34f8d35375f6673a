// util/mmap_file.h — the persistent store's file primitives: the
// platform-stable content checksum, read-only memory mapping, and atomic
// whole-file publication (in one call, or as its write and publish halves).
// The table store's integrity story reduces to these three, so they are
// pinned directly.
#include "util/mmap_file.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "temp_dir.h"

namespace nowsched::util {
namespace {

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::filesystem::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

// ---------------------------------------------------------------------------
// checksum_bytes
// ---------------------------------------------------------------------------

TEST(ChecksumBytes, DeterministicAcrossCalls) {
  const std::string data = "the same bytes every time";
  EXPECT_EQ(checksum_bytes(data.data(), data.size()),
            checksum_bytes(data.data(), data.size()));
}

TEST(ChecksumBytes, EverySingleBitFlipChangesTheSum) {
  // Corruption detection must not depend on WHERE the damage lands: flip
  // each bit of a buffer spanning several words plus a ragged tail.
  std::vector<unsigned char> data(21);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<unsigned char>(i * 37 + 5);
  }
  const std::uint64_t clean = checksum_bytes(data.data(), data.size());
  for (std::size_t byte = 0; byte < data.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      data[byte] ^= static_cast<unsigned char>(1u << bit);
      EXPECT_NE(checksum_bytes(data.data(), data.size()), clean)
          << "flip of byte " << byte << " bit " << bit << " went undetected";
      data[byte] ^= static_cast<unsigned char>(1u << bit);
    }
  }
  EXPECT_EQ(checksum_bytes(data.data(), data.size()), clean);
}

TEST(ChecksumBytes, LengthIsPartOfTheIdentity) {
  // A truncated prefix and a zero-padded extension must both differ from
  // the original — the length seeds the chain.
  const std::vector<unsigned char> data(32, 0);
  const std::uint64_t full = checksum_bytes(data.data(), data.size());
  EXPECT_NE(checksum_bytes(data.data(), 24), full);
  const std::vector<unsigned char> longer(40, 0);
  EXPECT_NE(checksum_bytes(longer.data(), longer.size()), full);
}

TEST(ChecksumBytes, EmptyInputIsWellDefined) {
  EXPECT_EQ(checksum_bytes(nullptr, 0), checksum_bytes(nullptr, 0));
}

TEST(ChecksumBytes, TailBytesAreCovered) {
  // Sizes straddling the 8-byte word boundary: each extra tail byte must
  // produce a distinct sum.
  std::vector<unsigned char> data(16, 0xAB);
  std::uint64_t prev = checksum_bytes(data.data(), 8);
  for (std::size_t size = 9; size <= 16; ++size) {
    const std::uint64_t cur = checksum_bytes(data.data(), size);
    EXPECT_NE(cur, prev) << "size " << size;
    prev = cur;
  }
}

// ---------------------------------------------------------------------------
// MappedFile
// ---------------------------------------------------------------------------

TEST(MappedFile, MissingFileIsNullNotAnError) {
  nowsched::testing::TempDir dir("mmap");
  EXPECT_EQ(MappedFile::open((dir.path() / "absent.bin").string()), nullptr);
}

TEST(MappedFile, MapsExactBytes) {
  nowsched::testing::TempDir dir("mmap");
  const std::string content = "nowsched mapped file roundtrip \0 payload";
  const auto path = dir.path() / "data.bin";
  write_file(path, content);

  auto mapped = MappedFile::open(path.string());
  ASSERT_NE(mapped, nullptr);
  ASSERT_EQ(mapped->size(), content.size());
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(mapped->data()),
                        mapped->size()),
            content);
}

TEST(MappedFile, EmptyFileMapsWithSizeZero) {
  nowsched::testing::TempDir dir("mmap");
  const auto path = dir.path() / "empty.bin";
  write_file(path, "");
  auto mapped = MappedFile::open(path.string());
  ASSERT_NE(mapped, nullptr);
  EXPECT_EQ(mapped->size(), 0u);
}

TEST(MappedFile, MappingSurvivesUnlink) {
  // The store unlinks corrupt files while a reader may still hold a view —
  // POSIX keeps the pages alive through the mapping (non-POSIX fallback
  // holds a copy), so the reader must stay valid either way.
  nowsched::testing::TempDir dir("mmap");
  const auto path = dir.path() / "unlinked.bin";
  write_file(path, std::string(4096, 'x'));
  auto mapped = MappedFile::open(path.string());
  ASSERT_NE(mapped, nullptr);
  std::filesystem::remove(path);
  EXPECT_EQ(mapped->data()[0], 'x');
  EXPECT_EQ(mapped->data()[4095], 'x');
}

// ---------------------------------------------------------------------------
// atomic_write_file
// ---------------------------------------------------------------------------

TEST(AtomicWriteFile, PublishesExactPayloadAndCleansTempName) {
  nowsched::testing::TempDir dir("awf");
  const auto path = dir.path() / "out.bin";
  const std::string payload = "published all at once";
  ASSERT_TRUE(atomic_write_file(path.string(), payload.data(), payload.size(),
                                nullptr, 0, "tag0"));
  EXPECT_EQ(read_file(path), payload);
  EXPECT_FALSE(std::filesystem::exists(path.string() + ".tmp.tag0"));
}

TEST(AtomicWriteFile, TwoPiecePayloadIsHeadThenBody) {
  nowsched::testing::TempDir dir("awf");
  const auto path = dir.path() / "out.bin";
  const std::string head = "HEADER:";
  const std::string body(10000, 'b');
  ASSERT_TRUE(atomic_write_file(path.string(), head.data(), head.size(),
                                body.data(), body.size(), "tag1"));
  EXPECT_EQ(read_file(path), head + body);
  EXPECT_FALSE(std::filesystem::exists(path.string() + ".tmp.tag1"));
}

TEST(AtomicWriteFile, ReplacesExistingTarget) {
  nowsched::testing::TempDir dir("awf");
  const auto path = dir.path() / "out.bin";
  const std::string old_payload = "old";
  const std::string new_payload = "replacement content, longer";
  ASSERT_TRUE(atomic_write_file(path.string(), old_payload.data(),
                                old_payload.size(), nullptr, 0, "a"));
  ASSERT_TRUE(atomic_write_file(path.string(), new_payload.data(),
                                new_payload.size(), nullptr, 0, "b"));
  EXPECT_EQ(read_file(path), new_payload);
}

TEST(AtomicWriteFile, UnwritableDirectoryFailsWithoutPublishing) {
  nowsched::testing::TempDir dir("awf");
  const auto path = dir.path() / "no-such-subdir" / "out.bin";
  const std::string payload = "x";
  EXPECT_FALSE(
      atomic_write_file(path.string(), payload.data(), payload.size(),
                        nullptr, 0, "t"));
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(AtomicWriteFile, WriteHalfLeavesTheTargetAbsentUntilPublished) {
  nowsched::testing::TempDir dir("awf");
  const auto path = dir.path() / "out.bin";
  const std::string head = "HEADER:";
  const std::string body = "body";
  std::optional<TempFile> file = write_temp_file(
      path.string(), head.data(), head.size(), body.data(), body.size(), "h");
  ASSERT_TRUE(file.has_value());
  const std::string tmp_path = file->tmp_path;
  EXPECT_EQ(file->path, path.string());
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_TRUE(std::filesystem::exists(tmp_path));

  ASSERT_TRUE(publish_temp_file(std::move(*file)));
  EXPECT_EQ(read_file(path), head + body);
  EXPECT_FALSE(std::filesystem::exists(tmp_path));
}

TEST(AtomicWriteFile, AbandonedTempFileIsRemoved) {
  nowsched::testing::TempDir dir("awf");
  const auto path = dir.path() / "out.bin";
  const std::string payload = "never published";
  std::string tmp_path;
  {
    std::optional<TempFile> file = write_temp_file(
        path.string(), payload.data(), payload.size(), nullptr, 0, "a");
    ASSERT_TRUE(file.has_value());
    tmp_path = file->tmp_path;
    EXPECT_TRUE(std::filesystem::exists(tmp_path));
  }
  EXPECT_FALSE(std::filesystem::exists(tmp_path));
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(AtomicWriteFile, PublishFailsWithoutATargetWhenTheTempFileVanished) {
  nowsched::testing::TempDir dir("awf");
  const auto path = dir.path() / "out.bin";
  const std::string payload = "x";
  std::optional<TempFile> file = write_temp_file(
      path.string(), payload.data(), payload.size(), nullptr, 0, "v");
  ASSERT_TRUE(file.has_value());
  std::filesystem::remove(file->tmp_path);
  EXPECT_FALSE(publish_temp_file(std::move(*file)));
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(AtomicWriteFile, ConcurrentWritersWithDistinctTagsPublishCompleteContent) {
  // The table store's writers all publish IDENTICAL bytes; here writers
  // publish distinct (same-length) payloads to make interleaving visible:
  // the surviving file must equal ONE writer's payload in full — never a
  // mix — no matter how the renames raced.
  nowsched::testing::TempDir dir("awf");
  const auto path = dir.path() / "contended.bin";
  constexpr int kWriters = 8;
  constexpr std::size_t kSize = 1u << 16;
  std::vector<std::string> payloads;
  payloads.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    payloads.emplace_back(kSize, static_cast<char>('A' + w));
  }
  // Tags built with append rather than operator+ to sidestep a GCC 12
  // -Wrestrict false positive (GCC bug 105651) when the concatenation is
  // inlined into the thread lambda under -O2. Retested on GCC 12.2: still
  // fires — keep until the toolchain reaches GCC 13.
  std::vector<std::string> tags;
  tags.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    std::string tag = "w";
    tag += std::to_string(w);
    tags.push_back(std::move(tag));
  }
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      EXPECT_TRUE(atomic_write_file(path.string(), payloads[w].data(),
                                    payloads[w].size(), nullptr, 0, tags[w]));
    });
  }
  for (auto& t : writers) t.join();

  const std::string survivor = read_file(path);
  ASSERT_EQ(survivor.size(), kSize);
  // All bytes identical (no torn mix) AND equal to some writer's payload.
  EXPECT_EQ(survivor, std::string(kSize, survivor[0]));
  EXPECT_GE(survivor[0], 'A');
  EXPECT_LT(survivor[0], static_cast<char>('A' + kWriters));
  // Every temp name is gone.
  for (int w = 0; w < kWriters; ++w) {
    EXPECT_FALSE(std::filesystem::exists(path.string() + ".tmp.w" +
                                         std::to_string(w)));
  }
}

}  // namespace
}  // namespace nowsched::util
