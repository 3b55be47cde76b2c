// Crash-safety plumbing battery (DESIGN.md §15): journal record framing,
// the torn-tail truncation/bit-flip property sweep (mirroring the .urrx
// corruption battery), service-checkpoint round-trips with fallback to the
// newest valid file, and the dedup cache's first-wins/eviction contract.
// Every damaged input must yield a precise Status and a recovery from the
// surviving prefix — never a crash; the sanitizer CI jobs run this binary
// under ASan/TSan.
#include "server/journal.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <sys/stat.h>
#include <vector>

#include "common/binary_io.h"

namespace urr {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string TempDirFor(const std::string& name) {
  const std::string dir = TempPath(name);
  // Start from an empty directory: leftovers from a previous run would
  // feed the newest-first checkpoint listing stale (even damaged) files.
  const std::string scrub = "rm -rf " + dir;
  EXPECT_EQ(std::system(scrub.c_str()), 0);
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

std::vector<std::string> SamplePayloads() {
  return {
      "{\"op\":\"submit_rider\",\"id\":0,\"req_id\":0,\"rider\":7,"
      "\"time\":1.5}",
      "{\"op\":\"cancel_rider\",\"id\":1,\"req_id\":15,\"rider\":7,"
      "\"time\":2}",
      "{\"op\":\"inject_fault\",\"id\":2,\"req_id\":-1,\"kind\":"
      "\"breakdown\",\"vehicle\":3,\"time\":2.5}",
      "{\"op\":\"tick\",\"id\":3,\"req_id\":-1,\"time\":99.25}",
  };
}

/// The sample journal as raw bytes plus each record's end offset.
std::string BuildJournalBytes(std::vector<uint64_t>* boundaries) {
  std::string bytes;
  for (const std::string& p : SamplePayloads()) {
    bytes += EncodeJournalRecord(p);
    if (boundaries != nullptr) boundaries->push_back(bytes.size());
  }
  return bytes;
}

TEST(JournalTest, AppendScanRoundTrip) {
  const std::string path = TempPath("journal_roundtrip.wal");
  std::remove(path.c_str());
  const std::vector<std::string> payloads = SamplePayloads();
  {
    auto journal = RequestJournal::Open(path, /*fsync=*/true);
    ASSERT_TRUE(journal.ok()) << journal.status();
    for (const std::string& p : payloads) {
      ASSERT_TRUE(journal->Append(p).ok());
    }
    EXPECT_EQ(journal->appended(), static_cast<int64_t>(payloads.size()));
  }
  auto scan = ScanJournal(path);
  ASSERT_TRUE(scan.ok()) << scan.status();
  EXPECT_TRUE(scan->tail.ok()) << scan->tail;
  EXPECT_EQ(scan->payloads, payloads);
  EXPECT_EQ(scan->valid_bytes, scan->file_bytes);

  // Reopening for append preserves the prefix.
  {
    auto journal = RequestJournal::Open(path, /*fsync=*/false);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(journal->Append("{\"op\":\"tick\",\"time\":100}").ok());
  }
  auto rescan = ScanJournal(path);
  ASSERT_TRUE(rescan.ok());
  ASSERT_EQ(rescan->payloads.size(), payloads.size() + 1);
  EXPECT_EQ(rescan->payloads.back(), "{\"op\":\"tick\",\"time\":100}");
}

TEST(JournalTest, MissingFileScansAsEmpty) {
  auto scan = ScanJournal(TempPath("journal_never_written.wal"));
  ASSERT_TRUE(scan.ok()) << scan.status();
  EXPECT_TRUE(scan->tail.ok());
  EXPECT_TRUE(scan->payloads.empty());
  EXPECT_EQ(scan->file_bytes, 0u);
}

// Property sweep: truncating the file at EVERY byte length must yield the
// longest record prefix that fits, a precise non-OK tail Status for any cut
// off a record boundary, and a clean rescan after TruncateJournal — the
// recovery path for a crash mid-append.
TEST(JournalTest, TruncationAtEveryByteRecoversThePrefix) {
  std::vector<uint64_t> boundaries;
  const std::string bytes = BuildJournalBytes(&boundaries);
  const std::vector<std::string> payloads = SamplePayloads();
  const std::string path = TempPath("journal_truncation.wal");
  for (uint64_t cut = 0; cut <= bytes.size(); ++cut) {
    ASSERT_TRUE(WriteFile(path, bytes.substr(0, cut)).ok());
    auto scan = ScanJournal(path);
    ASSERT_TRUE(scan.ok()) << "cut=" << cut << ": " << scan.status();
    // Records wholly inside the cut survive.
    size_t expect_records = 0;
    uint64_t expect_valid = 0;
    for (size_t i = 0; i < boundaries.size(); ++i) {
      if (boundaries[i] <= cut) {
        expect_records = i + 1;
        expect_valid = boundaries[i];
      }
    }
    EXPECT_EQ(scan->payloads.size(), expect_records) << "cut=" << cut;
    EXPECT_EQ(scan->valid_bytes, expect_valid) << "cut=" << cut;
    EXPECT_EQ(scan->file_bytes, cut);
    const bool on_boundary = cut == expect_valid;
    EXPECT_EQ(scan->tail.ok(), on_boundary)
        << "cut=" << cut << ": " << scan->tail;
    for (size_t i = 0; i < expect_records; ++i) {
      EXPECT_EQ(scan->payloads[i], payloads[i]);
    }
    // Recovery truncates the tail; the rescan must then be clean.
    ASSERT_TRUE(TruncateJournal(path, scan->valid_bytes).ok());
    auto rescan = ScanJournal(path);
    ASSERT_TRUE(rescan.ok());
    EXPECT_TRUE(rescan->tail.ok()) << "cut=" << cut << ": " << rescan->tail;
    EXPECT_EQ(rescan->payloads.size(), expect_records);
  }
}

// Property sweep: flipping one bit in EVERY byte of the file must never
// crash the scanner, and the records before the damaged one must survive.
TEST(JournalTest, BitFlipAtEveryByteIsDetected) {
  std::vector<uint64_t> boundaries;
  const std::string bytes = BuildJournalBytes(&boundaries);
  const std::vector<std::string> payloads = SamplePayloads();
  const std::string path = TempPath("journal_bitflip.wal");
  for (size_t at = 0; at < bytes.size(); ++at) {
    std::string damaged = bytes;
    damaged[at] = static_cast<char>(damaged[at] ^ 0x10);
    ASSERT_TRUE(WriteFile(path, damaged).ok());
    auto scan = ScanJournal(path);
    ASSERT_TRUE(scan.ok()) << "flip at " << at << ": " << scan.status();
    // Records before the damaged one are untouched.
    size_t unharmed = 0;
    while (unharmed < boundaries.size() && boundaries[unharmed] <= at) {
      ++unharmed;
    }
    ASSERT_GE(scan->payloads.size(), unharmed) << "flip at " << at;
    for (size_t i = 0; i < unharmed; ++i) {
      EXPECT_EQ(scan->payloads[i], payloads[i]) << "flip at " << at;
    }
    // The damage must be detected: a non-OK tail at the damaged record —
    // except a flip inside a length prefix that still frames a checksum-
    // valid suffix, which is impossible here because the checksum follows
    // the length; any framing shift breaks the checksum.
    EXPECT_FALSE(scan->tail.ok()) << "flip at " << at << " went undetected";
    EXPECT_EQ(scan->payloads.size(), unharmed)
        << "flip at " << at << " did not end the valid prefix";
  }
}

TEST(JournalTest, ScanStatusesNameTheDefect) {
  const std::string path = TempPath("journal_status.wal");
  const std::string record = EncodeJournalRecord("{\"op\":\"tick\"}");

  // Torn header.
  ASSERT_TRUE(WriteFile(path, record.substr(0, 5)).ok());
  auto torn_header = ScanJournal(path);
  ASSERT_TRUE(torn_header.ok());
  EXPECT_NE(torn_header->tail.message().find("record-header"),
            std::string::npos)
      << torn_header->tail;

  // Torn payload.
  ASSERT_TRUE(WriteFile(path, record.substr(0, record.size() - 3)).ok());
  auto torn_payload = ScanJournal(path);
  ASSERT_TRUE(torn_payload.ok());
  EXPECT_NE(torn_payload->tail.message().find("payload bytes"),
            std::string::npos)
      << torn_payload->tail;

  // Implausible length.
  std::string huge = record;
  huge[0] = static_cast<char>(0x7f);
  ASSERT_TRUE(WriteFile(path, huge).ok());
  auto bad_length = ScanJournal(path);
  ASSERT_TRUE(bad_length.ok());
  EXPECT_NE(bad_length->tail.message().find("limit"), std::string::npos)
      << bad_length->tail;

  // Checksum mismatch (payload byte flipped).
  std::string corrupt = record;
  corrupt[corrupt.size() - 1] =
      static_cast<char>(corrupt[corrupt.size() - 1] ^ 1);
  ASSERT_TRUE(WriteFile(path, corrupt).ok());
  auto bad_sum = ScanJournal(path);
  ASSERT_TRUE(bad_sum.ok());
  EXPECT_NE(bad_sum->tail.message().find("checksum"), std::string::npos)
      << bad_sum->tail;
}

ServiceCheckpoint SampleCheckpoint(int64_t seq) {
  ServiceCheckpoint ckpt;
  ckpt.seq = seq;
  ckpt.dedup = {{0, "{\"ok\":true,\"result\":\"queued\"}"},
                {15, "{\"ok\":true,\"result\":\"cancelled\"}"},
                {seq, "{\"ok\":true}"}};
  ckpt.engine_checkpoint =
      "urrckpt 1\nseq " + std::to_string(seq) + "\nfake engine payload\n";
  return ckpt;
}

TEST(ServiceCheckpointTest, WriteReadRoundTrip) {
  const std::string dir = TempDirFor("ckpt_roundtrip");
  const ServiceCheckpoint ckpt = SampleCheckpoint(42);
  ASSERT_TRUE(WriteServiceCheckpoint(dir, ckpt).ok());
  auto list = ListServiceCheckpoints(dir);
  ASSERT_TRUE(list.ok()) << list.status();
  ASSERT_EQ(list->size(), 1u);
  EXPECT_EQ((*list)[0].first, 42);
  auto loaded = ReadServiceCheckpoint((*list)[0].second);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->seq, ckpt.seq);
  EXPECT_EQ(loaded->dedup, ckpt.dedup);
  EXPECT_EQ(loaded->engine_checkpoint, ckpt.engine_checkpoint);
}

TEST(ServiceCheckpointTest, ListOrdersNewestFirstAndSkipsTemp) {
  const std::string dir = TempDirFor("ckpt_order");
  for (const int64_t seq : {7, 300, 64}) {
    ASSERT_TRUE(WriteServiceCheckpoint(dir, SampleCheckpoint(seq)).ok());
  }
  ASSERT_TRUE(
      WriteFile(dir + "/ckpt-000000000900.tmp", "half-written garbage").ok());
  ASSERT_TRUE(WriteFile(dir + "/unrelated.txt", "not a checkpoint").ok());
  auto list = ListServiceCheckpoints(dir);
  ASSERT_TRUE(list.ok());
  ASSERT_EQ(list->size(), 3u);
  EXPECT_EQ((*list)[0].first, 300);
  EXPECT_EQ((*list)[1].first, 64);
  EXPECT_EQ((*list)[2].first, 7);
}

// Damage sweep over a whole checkpoint file: truncation at every byte and a
// bit flip in every byte must both be rejected with a non-OK Status (the
// whole-file checksum catches anything the envelope parse does not) — this
// is what lets recovery fall back to an older file instead of loading a
// half-written snapshot.
TEST(ServiceCheckpointTest, CorruptionIsAlwaysRejected) {
  const std::string dir = TempDirFor("ckpt_corrupt");
  ASSERT_TRUE(WriteServiceCheckpoint(dir, SampleCheckpoint(9)).ok());
  auto list = ListServiceCheckpoints(dir);
  ASSERT_TRUE(list.ok());
  const std::string good_path = (*list)[0].second;
  const Result<std::string> read = ReadFile(good_path);
  ASSERT_TRUE(read.ok()) << read.status();
  const std::string& bytes = *read;
  ASSERT_FALSE(bytes.empty());
  const std::string damaged_path = dir + "/ckpt-000000000010";
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    ASSERT_TRUE(WriteFile(damaged_path, bytes.substr(0, cut)).ok());
    EXPECT_FALSE(ReadServiceCheckpoint(damaged_path).ok())
        << "truncation to " << cut << " bytes was accepted";
  }
  for (size_t at = 0; at < bytes.size(); ++at) {
    std::string damaged = bytes;
    damaged[at] = static_cast<char>(damaged[at] ^ 0x04);
    ASSERT_TRUE(WriteFile(damaged_path, damaged).ok());
    EXPECT_FALSE(ReadServiceCheckpoint(damaged_path).ok())
        << "bit flip at " << at << " was accepted";
  }
  // The intact sibling still loads — the fallback recovery path.
  EXPECT_TRUE(ReadServiceCheckpoint(good_path).ok());
}

TEST(DedupCacheTest, FirstExecutionWinsAndEvictionIsFifo) {
  DedupCache cache(3);
  EXPECT_EQ(cache.Lookup(1), nullptr);
  cache.Insert(1, "first");
  cache.Insert(1, "second");  // a retry must NOT overwrite the original
  ASSERT_NE(cache.Lookup(1), nullptr);
  EXPECT_EQ(*cache.Lookup(1), "first");
  EXPECT_EQ(cache.size(), 1);

  cache.Insert(2, "b");
  cache.Insert(3, "c");
  cache.Insert(4, "d");  // evicts 1 (FIFO)
  EXPECT_EQ(cache.size(), 3);
  EXPECT_EQ(cache.Lookup(1), nullptr);
  ASSERT_NE(cache.Lookup(2), nullptr);
  EXPECT_EQ(*cache.Lookup(2), "b");
  ASSERT_NE(cache.Lookup(4), nullptr);

  // Entries() preserves insertion order — the checkpoint format relies on
  // it to rebuild the same eviction queue.
  const auto entries = cache.Entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].first, 2);
  EXPECT_EQ(entries[1].first, 3);
  EXPECT_EQ(entries[2].first, 4);
}

}  // namespace
}  // namespace urr
