// Tests for the durability layer: the write-ahead job journal (framing,
// rotation, torn-tail salvage, compaction, fault points, failed writes),
// the checkpoint stores (crc verification, prefix removal, corruption
// fault), the on-disk bytes both write, the checkpoint text codec, and Rng
// state capture/restore.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/fault_injection.h"
#include "src/common/rng.h"
#include "src/persist/checkpoint.h"
#include "src/persist/journal.h"
#include "src/persist/snapshot_io.h"
#include "src/tuning/checkpoint_codec.h"
#include "src/tuning/param_space.h"

namespace smartml {
namespace {

// "k<i>". Appending, rather than `"k" + std::to_string(i)`, keeps GCC 12's
// -Wrestrict false positive out of Release builds.
std::string Key(int i) {
  std::string key = "k";
  key += std::to_string(i);
  return key;
}

class PersistTest : public testing::Test {
 protected:
  void TearDown() override {
    ASSERT_TRUE(FaultInjection::Instance().SetSpec("").ok());
  }

  static std::string TempDir(const std::string& stem) {
    static int counter = 0;
    const std::string dir = testing::TempDir() + "/" + stem + "_" +
                            std::to_string(::getpid()) + "_" +
                            std::to_string(counter++);
    // A dead process with the same pid may have left this directory behind.
    std::filesystem::remove_all(dir);
    ::mkdir(dir.c_str(), 0755);
    return dir;
  }

  static std::vector<JournalRecord> ReplayAll(const JobJournal& journal,
                                              ReplayStats* stats = nullptr) {
    std::vector<JournalRecord> records;
    auto result = journal.Replay(
        [&](const JournalRecord& record) { records.push_back(record); });
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (stats != nullptr && result.ok()) *stats = *result;
    return records;
  }

  static std::string ReadFile(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
  }

  static void WriteFile(const std::string& path, const std::string& text) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
  }
};

// ---------------------------------------------------------------------------
// Journal basics
// ---------------------------------------------------------------------------

TEST_F(PersistTest, JournalRoundTripsRecordsInOrder) {
  const std::string dir = TempDir("journal_rt");
  auto journal = JobJournal::Open(dir);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  for (int i = 0; i < 10; ++i) {
    JournalRecord record;
    record.type = static_cast<uint8_t>(1 + i % 4);
    record.key = "run-" + std::to_string(i);
    record.payload = std::string(static_cast<size_t>(i * 7), 'x');
    ASSERT_TRUE((*journal)->Append(record).ok());
  }
  const auto records = ReplayAll(**journal);
  ASSERT_EQ(records.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(records[static_cast<size_t>(i)].key,
              "run-" + std::to_string(i));
    EXPECT_EQ(records[static_cast<size_t>(i)].payload.size(),
              static_cast<size_t>(i * 7));
  }
}

TEST_F(PersistTest, JournalSurvivesReopen) {
  const std::string dir = TempDir("journal_reopen");
  {
    auto journal = JobJournal::Open(dir);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE((*journal)->Append({1, "a", "one"}).ok());
    ASSERT_TRUE((*journal)->Append({2, "b", "two"}).ok());
  }
  auto reopened = JobJournal::Open(dir);
  ASSERT_TRUE(reopened.ok());
  ASSERT_TRUE((*reopened)->Append({3, "c", "three"}).ok());
  const auto records = ReplayAll(**reopened);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].payload, "one");
  EXPECT_EQ(records[2].payload, "three");
}

TEST_F(PersistTest, JournalRotatesSegments) {
  const std::string dir = TempDir("journal_rotate");
  JournalOptions options;
  options.segment_bytes = 256;  // Tiny, to force rotation.
  auto journal = JobJournal::Open(dir, options);
  ASSERT_TRUE(journal.ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        (*journal)->Append({1, "k", std::string(100, 'p')}).ok());
  }
  EXPECT_GT((*journal)->NumSegments(), 2u);
  ReplayStats stats;
  const auto records = ReplayAll(**journal, &stats);
  EXPECT_EQ(records.size(), 20u);
  EXPECT_EQ(stats.records, 20u);
  EXPECT_GT(stats.segments, 2u);
}

// ---------------------------------------------------------------------------
// Torn-tail salvage
// ---------------------------------------------------------------------------

TEST_F(PersistTest, TornTailSalvagesLongestValidPrefix) {
  const std::string dir = TempDir("journal_torn");
  std::string segment_path;
  {
    auto journal = JobJournal::Open(dir);
    ASSERT_TRUE(journal.ok());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(
          (*journal)->Append({1, Key(i), "payload"}).ok());
    }
    segment_path = dir + "/journal-000001.wal";
  }
  const std::string good = ReadFile(segment_path);
  ASSERT_FALSE(good.empty());
  // Truncate at EVERY byte: replay must never crash, and must salvage
  // exactly the records whose frames are complete.
  for (size_t len = 0; len < good.size(); ++len) {
    WriteFile(segment_path, good.substr(0, len));
    auto journal = JobJournal::Open(dir);
    ASSERT_TRUE(journal.ok()) << "open failed at truncation " << len;
    const auto records = ReplayAll(**journal);
    EXPECT_LE(records.size(), 5u);
    for (const auto& record : records) {
      EXPECT_EQ(record.payload, "payload") << "at truncation " << len;
    }
  }
  WriteFile(segment_path, good);
}

TEST_F(PersistTest, CorruptMiddleByteStopsAtTornFrame) {
  const std::string dir = TempDir("journal_flip");
  {
    auto journal = JobJournal::Open(dir);
    ASSERT_TRUE(journal.ok());
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE((*journal)->Append({1, "key", "0123456789"}).ok());
    }
  }
  const std::string path = dir + "/journal-000001.wal";
  const std::string good = ReadFile(path);
  // Flip each byte in turn: the crc must catch it; salvage keeps only the
  // prefix before the damaged frame and never fabricates records.
  for (size_t pos = 0; pos < good.size(); ++pos) {
    std::string bad = good;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x5a);
    WriteFile(path, bad);
    auto journal = JobJournal::Open(dir);
    ASSERT_TRUE(journal.ok());
    ReplayStats stats;
    const auto records = ReplayAll(**journal, &stats);
    EXPECT_LE(records.size(), 4u);
    for (const auto& record : records) {
      EXPECT_EQ(record.payload, "0123456789") << "at flip " << pos;
      EXPECT_EQ(record.key, "key") << "at flip " << pos;
    }
  }
  WriteFile(path, good);
}

TEST_F(PersistTest, TornSegmentDoesNotBlockLaterSegments) {
  const std::string dir = TempDir("journal_torn_mid");
  JournalOptions options;
  options.segment_bytes = 16;  // One record per segment.
  {
    auto journal = JobJournal::Open(dir, options);
    ASSERT_TRUE(journal.ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(
          (*journal)->Append({1, Key(i), "data"}).ok());
    }
    ASSERT_GE((*journal)->NumSegments(), 2u);
  }
  // Tear the FIRST segment's tail; records in later segments must still
  // replay.
  const std::string first = dir + "/journal-000001.wal";
  const std::string good = ReadFile(first);
  ASSERT_GT(good.size(), 4u);
  WriteFile(first, good.substr(0, good.size() - 3));
  auto journal = JobJournal::Open(dir, options);
  ASSERT_TRUE(journal.ok());
  ReplayStats stats;
  const auto records = ReplayAll(**journal, &stats);
  EXPECT_GE(stats.torn_records, 1u);
  bool saw_later = false;
  for (const auto& record : records) {
    if (record.key == "k2") saw_later = true;
  }
  EXPECT_TRUE(saw_later) << "torn first segment swallowed later segments";
}

// ---------------------------------------------------------------------------
// Compaction
// ---------------------------------------------------------------------------

TEST_F(PersistTest, CompactionDropsAndMutatesRecords) {
  const std::string dir = TempDir("journal_compact");
  JournalOptions options;
  options.segment_bytes = 128;
  auto journal = JobJournal::Open(dir, options);
  ASSERT_TRUE(journal.ok());
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE((*journal)
                    ->Append({static_cast<uint8_t>(i % 2 == 0 ? 1 : 2),
                              Key(i), "bulky-payload"})
                    .ok());
  }
  const size_t before = (*journal)->NumSegments();
  ASSERT_TRUE((*journal)
                  ->Compact([](JournalRecord* record) {
                    if (record->type == 2) return false;  // Drop.
                    record->payload = "slim";             // Mutate.
                    return true;
                  })
                  .ok());
  EXPECT_LT((*journal)->NumSegments(), before);
  const auto records = ReplayAll(**journal);
  ASSERT_EQ(records.size(), 6u);
  for (const auto& record : records) {
    EXPECT_EQ(record.type, 1);
    EXPECT_EQ(record.payload, "slim");
  }
  // The journal stays appendable after compaction.
  ASSERT_TRUE((*journal)->Append({3, "post", "compact"}).ok());
  EXPECT_EQ(ReplayAll(**journal).size(), 7u);
}

TEST_F(PersistTest, CompactedSegmentHoldsKeptFramesByteForByte) {
  const std::string dir = TempDir("journal_compact_bytes");
  auto journal = JobJournal::Open(dir);
  ASSERT_TRUE(journal.ok());
  const std::string bulky(100000, 'x');
  ASSERT_TRUE((*journal)->Append({1, "a", "kept as is"}).ok());
  ASSERT_TRUE((*journal)->Append({2, "b", bulky}).ok());
  ASSERT_TRUE((*journal)->Append({1, "c", bulky}).ok());
  ASSERT_TRUE((*journal)
                  ->Compact([](JournalRecord* record) {
                    if (record->type == 2) return false;
                    if (record->key == "c") record->payload = "slim";
                    return true;
                  })
                  .ok());
  // Segment 1 held the appends; compaction wrote segment 2 and opened 3.
  auto compacted = ReadFileBytes(dir + "/journal-000002.wal");
  ASSERT_TRUE(compacted.ok());
  EXPECT_EQ(*compacted, EncodeJournalFrame({1, "a", "kept as is"}) +
                            EncodeJournalFrame({1, "c", "slim"}));
}

TEST_F(PersistTest, CompactionSurvivesReopen) {
  const std::string dir = TempDir("journal_compact_reopen");
  {
    auto journal = JobJournal::Open(dir);
    ASSERT_TRUE(journal.ok());
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE((*journal)->Append({1, Key(i), "v"}).ok());
    }
    ASSERT_TRUE((*journal)
                    ->Compact([](JournalRecord* record) {
                      return record->key != "k0";
                    })
                    .ok());
  }
  auto reopened = JobJournal::Open(dir);
  ASSERT_TRUE(reopened.ok());
  const auto records = ReplayAll(**reopened);
  EXPECT_EQ(records.size(), 5u);
  for (const auto& record : records) EXPECT_NE(record.key, "k0");
}

// ---------------------------------------------------------------------------
// Journal fault points
// ---------------------------------------------------------------------------

TEST_F(PersistTest, TornWriteFaultLosesOnlyThatRecord) {
  const std::string dir = TempDir("journal_fault_torn");
  {
    auto journal = JobJournal::Open(dir);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE((*journal)->Append({1, "before", "ok"}).ok());
    ASSERT_TRUE(
        FaultInjection::Instance().SetSpec("journal_write_torn:1x").ok());
    // The torn append "succeeds" from the writer's view (power loss happens
    // after the ack in the worst case) but leaves half a frame on disk.
    (void)(*journal)->Append({1, "torn", "lost"});
    ASSERT_TRUE(FaultInjection::Instance().SetSpec("").ok());
  }
  // A reopened journal salvages the prefix...
  auto reopened = JobJournal::Open(dir);
  ASSERT_TRUE(reopened.ok());
  ReplayStats stats;
  const auto salvaged = ReplayAll(**reopened, &stats);
  ASSERT_EQ(salvaged.size(), 1u);
  EXPECT_EQ(salvaged[0].key, "before");
  EXPECT_GE(stats.torn_records, 1u);
  // ...and compaction (which the server runs right after startup replay)
  // rewrites the survivors cleanly, so appends land past the tear.
  ASSERT_TRUE(
      (*reopened)->Compact([](JournalRecord*) { return true; }).ok());
  ASSERT_TRUE((*reopened)->Append({1, "after", "ok"}).ok());
  const auto records = ReplayAll(**reopened);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].key, "before");
  EXPECT_EQ(records[1].key, "after");
}

TEST_F(PersistTest, FsyncFailureSurfacesAsIOError) {
  const std::string dir = TempDir("journal_fault_fsync");
  auto journal = JobJournal::Open(dir);
  ASSERT_TRUE(journal.ok());
  ASSERT_TRUE(FaultInjection::Instance().SetSpec("journal_fsync_fail").ok());
  const Status status = (*journal)->Append({1, "k", "v"});
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  ASSERT_TRUE(FaultInjection::Instance().SetSpec("").ok());
  // The journal keeps working once the fault clears.
  EXPECT_TRUE((*journal)->Append({1, "k2", "v2"}).ok());
}

// ---------------------------------------------------------------------------
// Checkpoint stores
// ---------------------------------------------------------------------------

TEST_F(PersistTest, MemoryStoreBasics) {
  MemoryCheckpointStore store;
  EXPECT_EQ(store.Get("missing").status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(store.Put("run-1/smac/knn", "state-a").ok());
  ASSERT_TRUE(store.Put("run-1/smac/svm", "state-b").ok());
  ASSERT_TRUE(store.Put("run-2/smac/knn", "state-c").ok());
  EXPECT_EQ(*store.Get("run-1/smac/knn"), "state-a");
  ASSERT_TRUE(store.RemovePrefix("run-1/").ok());
  EXPECT_EQ(store.Size(), 1u);
  EXPECT_TRUE(store.Get("run-2/smac/knn").ok());
  ASSERT_TRUE(store.Remove("run-2/smac/knn").ok());
  EXPECT_EQ(store.Size(), 0u);
}

TEST_F(PersistTest, FileStoreRoundTripsAndRemovesByPrefix) {
  FileCheckpointStore store(TempDir("ckpt_rt") + "/store");
  const std::string blob(1000, 'z');
  ASSERT_TRUE(store.Put("run-000001/smac/decision_tree", blob).ok());
  ASSERT_TRUE(store.Put("run-000001/smac/knn", "small").ok());
  ASSERT_TRUE(store.Put("run-000002/smac/knn", "other").ok());
  auto loaded = store.Get("run-000001/smac/decision_tree");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, blob);
  ASSERT_TRUE(store.RemovePrefix("run-000001/").ok());
  EXPECT_EQ(store.Get("run-000001/smac/knn").status().code(),
            StatusCode::kNotFound);
  EXPECT_TRUE(store.Get("run-000002/smac/knn").ok());
}

TEST_F(PersistTest, FileStoreSurvivesReopen) {
  const std::string dir = TempDir("ckpt_reopen") + "/store";
  {
    FileCheckpointStore store(dir);
    ASSERT_TRUE(store.Put("run-1/state", "persisted").ok());
  }
  FileCheckpointStore reopened(dir);
  auto loaded = reopened.Get("run-1/state");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, "persisted");
}

TEST_F(PersistTest, CorruptCheckpointFailsVerificationNotFoundStaysClean) {
  FileCheckpointStore store(TempDir("ckpt_corrupt") + "/store");
  ASSERT_TRUE(store.Put("run-1/state", "important tuner state").ok());
  ASSERT_TRUE(
      FaultInjection::Instance().SetSpec("checkpoint_corrupt").ok());
  const auto corrupted = store.Get("run-1/state");
  EXPECT_FALSE(corrupted.ok());
  EXPECT_NE(corrupted.status().code(), StatusCode::kNotFound)
      << "corruption must be an error, not silent absence";
  ASSERT_TRUE(FaultInjection::Instance().SetSpec("").ok());
  // The stored blob itself was never damaged; reads recover.
  auto clean = store.Get("run-1/state");
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(*clean, "important tuner state");
}

TEST_F(PersistTest, SanitizedKeysStayDistinctForStructuredNames) {
  EXPECT_NE(FileCheckpointStore::SanitizeKey("run-000001/smac/knn"),
            FileCheckpointStore::SanitizeKey("run-000001/smac/svm"));
  EXPECT_NE(FileCheckpointStore::SanitizeKey("run-000001/smac/knn"),
            FileCheckpointStore::SanitizeKey("run-000011/smac/knn"));
}

// ---------------------------------------------------------------------------
// Rng state + checkpoint codec
// ---------------------------------------------------------------------------

TEST_F(PersistTest, RngStateRoundTripResumesStream) {
  Rng rng(1234);
  for (int i = 0; i < 100; ++i) (void)rng.Uniform(0.0, 1.0);
  const std::array<uint64_t, 4> saved = rng.State();
  std::vector<double> expected;
  for (int i = 0; i < 50; ++i) expected.push_back(rng.Uniform(0.0, 1.0));
  Rng restored(999);  // Different seed; state overrides it entirely.
  restored.SetState(saved);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(restored.Uniform(0.0, 1.0), expected[static_cast<size_t>(i)]);
  }
}

TEST_F(PersistTest, CkptDoubleIsBitExact) {
  const std::vector<double> values = {0.0,     -0.0,   1.0 / 3.0, 1e-308,
                                      1e308,   -125.5, 0.1,       2.2250738585072014e-308};
  for (const double v : values) {
    double parsed = 0.0;
    ASSERT_TRUE(CkptParseDouble(CkptDouble(v), &parsed)) << v;
    EXPECT_EQ(std::memcmp(&parsed, &v, sizeof v), 0) << v;
  }
}

TEST_F(PersistTest, CkptTokenRoundTripsAwkwardStrings) {
  const std::vector<std::string> cases = {
      "", "plain", "with space", "percent%sign", "tab\there",
      "new\nline", std::string(1, '\0') + "nul", "trailing ",
  };
  for (const std::string& original : cases) {
    const std::string token = CkptToken(original);
    // Tokens must be whitespace-free so `istream >>` reads them whole.
    EXPECT_EQ(token.find(' '), std::string::npos);
    EXPECT_EQ(token.find('\n'), std::string::npos);
    std::string decoded;
    ASSERT_TRUE(CkptParseToken(token, &decoded));
    EXPECT_EQ(decoded, original);
  }
}

TEST_F(PersistTest, CkptConfigRoundTripsTypedValues) {
  ParamConfig config;
  config.SetDouble("gamma", 0.0316227766016838);  // Not %.12g-roundtrippable.
  config.SetInt("depth", 17);
  config.SetChoice("kernel", "rbf");
  std::ostringstream out;
  CkptAppendConfig(config, &out);
  std::istringstream in(out.str());
  ParamConfig decoded;
  ASSERT_TRUE(CkptReadConfig(&in, &decoded));
  EXPECT_EQ(decoded.ToString(), config.ToString());
  EXPECT_EQ(decoded.GetDouble("gamma", 0.0), config.GetDouble("gamma", 1.0));
  EXPECT_EQ(decoded.GetInt("depth", 0), 17);
  EXPECT_EQ(decoded.GetChoice("kernel", ""), "rbf");
}

TEST_F(PersistTest, CkptConfigRejectsGarbage) {
  for (const std::string& text :
       {std::string("nope"), std::string("cfg 2\nd x 0x1p0\n"),
        std::string("cfg 99999999999\n"), std::string("cfg 1\nz q 1\n")}) {
    std::istringstream in(text);
    ParamConfig decoded;
    EXPECT_FALSE(CkptReadConfig(&in, &decoded)) << text;
  }
}

// ---------------------------------------------------------------------------
// Durable files: on-disk bytes, leftovers, failed writes
// ---------------------------------------------------------------------------

std::string Hex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const unsigned char c : bytes) {
    out += kDigits[c >> 4];
    out += kDigits[c & 0xF];
  }
  return out;
}

// Journals and checkpoints written by one build are read by the next, so
// the bytes a journal frame, a compacted segment and a checkpoint file put
// on disk are pinned; a change to the shared writer or codec must not move
// them.
TEST_F(PersistTest, JournalFrameBytesArePinned) {
  EXPECT_EQ(Hex(EncodeJournalFrame({1, "k", "v"})),
            "070000000a6128cf01010000006b76");
}

TEST_F(PersistTest, CompactedSegmentBytesArePinned) {
  const std::string dir = TempDir("journal_pin");
  auto journal = JobJournal::Open(dir);
  ASSERT_TRUE(journal.ok());
  ASSERT_TRUE((*journal)->Append({1, "run-1", "admit"}).ok());
  ASSERT_TRUE((*journal)->Append({2, "run-1", "dispatch"}).ok());
  ASSERT_TRUE((*journal)->Append({3, "run-2", "{\"state\":\"done\"}"}).ok());
  ASSERT_TRUE((*journal)
                  ->Compact([](JournalRecord* record) {
                    if (record->type == 2) return false;
                    if (record->key == "run-2") record->payload = "done";
                    return true;
                  })
                  .ok());
  EXPECT_EQ(Hex(ReadFile(dir + "/journal-000002.wal")),
            "0f000000915860b5010500000072756e2d3161646d69740e000000a96e2300"
            "030500000072756e2d32646f6e65");
}

TEST_F(PersistTest, CheckpointFileBytesArePinned) {
  const std::string dir = TempDir("ckpt_pin") + "/store";
  FileCheckpointStore store(dir);
  ASSERT_TRUE(store.Put("run-000001/smac/knn", "smac-ckpt 1\nrng 42").ok());
  EXPECT_EQ(ReadFile(dir + "/run-000001_smac_knn.ckpt"),
            "smac-ckpt 1\nrng 42#crc32:926c8036\n");
}

// Only the KB save keeps its previous generation as `.bak`; checkpoint
// puts and journal compaction replace their files without leaving a
// `.bak` or a `.tmp` behind.
TEST_F(PersistTest, CheckpointPutsAndCompactionLeaveNoBakOrTmp) {
  const std::string dir = TempDir("durable_leftovers");
  FileCheckpointStore store(dir + "/checkpoints");
  ASSERT_TRUE(store.Put("run-1/smac/knn", "first").ok());
  ASSERT_TRUE(store.Put("run-1/smac/knn", "second").ok());
  auto journal = JobJournal::Open(dir + "/journal");
  ASSERT_TRUE(journal.ok());
  ASSERT_TRUE((*journal)->Append({1, "run-1", "admit"}).ok());
  ASSERT_TRUE((*journal)->Compact([](JournalRecord*) { return true; }).ok());
  for (const std::string sub : {"/checkpoints", "/journal"}) {
    for (const auto& entry : std::filesystem::directory_iterator(dir + sub)) {
      const std::string ext = entry.path().extension().string();
      EXPECT_NE(ext, ".bak") << entry.path();
      EXPECT_NE(ext, ".tmp") << entry.path();
    }
  }
  auto loaded = store.Get("run-1/smac/knn");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, "second");
}

// Runs in a forked child, since the file-size limit and the SIGXFSZ
// disposition are process-wide. Returns 0 when every append reported what
// it should: acks for the "acked-*" records, IOError for the one whose
// fsync fails and for the one cut short by the file-size limit.
int AppendAcrossAShortWrite(const std::string& dir) {
  auto opened = JobJournal::Open(dir);
  if (!opened.ok()) return 1;
  JobJournal& journal = **opened;
  if (!journal.Append({1, "acked-1", "a"}).ok()) return 2;
  if (!FaultInjection::Instance().SetSpec("journal_fsync_fail:1x").ok() ||
      journal.Append({1, "fsync-failed", "b"}).ok()) {
    return 3;
  }
  if (!journal.Append({1, "acked-2", "c"}).ok()) return 4;
  // Let only 16 bytes of the next frame reach the disk.
  struct stat st {};
  if (::stat((dir + "/journal-000001.wal").c_str(), &st) != 0) return 5;
  rlimit saved {};
  if (::getrlimit(RLIMIT_FSIZE, &saved) != 0) return 6;
  rlimit low = saved;
  low.rlim_cur = static_cast<rlim_t>(st.st_size) + 16;
  std::signal(SIGXFSZ, SIG_IGN);
  if (::setrlimit(RLIMIT_FSIZE, &low) != 0) return 7;
  const Status short_write =
      journal.Append({1, "short-write", std::string(4096, 'x')});
  if (::setrlimit(RLIMIT_FSIZE, &saved) != 0) return 8;
  if (short_write.code() != StatusCode::kIOError) return 9;
  if (!journal.Append({1, "acked-3", "d"}).ok()) return 10;
  return 0;
}

TEST_F(PersistTest, FailedWriteCutsItsPartialFrame) {
  const std::string dir = TempDir("journal_short_write");
  EXPECT_EXIT(std::exit(AppendAcrossAShortWrite(dir)),
              testing::ExitedWithCode(0), "");
  auto journal = JobJournal::Open(dir);
  ASSERT_TRUE(journal.ok());
  const std::vector<std::string> acked = {"acked-1", "acked-2", "acked-3"};
  auto replayed_acks = [&] {
    ReplayStats stats;
    std::vector<std::string> keys;
    for (const JournalRecord& record : ReplayAll(**journal, &stats)) {
      if (record.key.rfind("acked-", 0) == 0) keys.push_back(record.key);
    }
    EXPECT_EQ(stats.torn_records, 0u);
    return keys;
  };
  EXPECT_EQ(replayed_acks(), acked);
  ASSERT_TRUE((*journal)->Compact([](JournalRecord*) { return true; }).ok());
  EXPECT_EQ(replayed_acks(), acked);
}

}  // namespace
}  // namespace smartml
