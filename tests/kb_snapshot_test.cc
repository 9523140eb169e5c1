// Binary snapshot hardening: round-trips through the versioned format, then
// systematically damages every region of a multi-section snapshot — header
// bit-flips, per-section payload bit-flips, truncation at every section
// boundary and mid-section — asserting that strict decode rejects each with
// a checksum/truncation error while salvage keeps exactly the undamaged
// records. Also covers the .bak and legacy-text fallbacks in LoadFromFile,
// and that a KB loads identically from either format.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/kb/kb_snapshot.h"
#include "src/kb/knowledge_base.h"
#include "src/persist/snapshot_io.h"

namespace smartml {
namespace {

KbRecord MakeRecord(int i) {
  KbRecord record;
  record.dataset_name = "dataset_" + std::to_string(i);
  for (size_t d = 0; d < kNumMetaFeatures; ++d) {
    record.meta_features[d] = 0.25 * static_cast<double>(i) + 0.01 * d;
  }
  if (i % 2 == 0) {
    record.has_landmarks = true;
    for (size_t l = 0; l < kNumLandmarkers; ++l) {
      record.landmarks[l] = 0.1 * static_cast<double>(i + 1) + 0.05 * l;
    }
  }
  KbAlgorithmResult result;
  result.algorithm = i % 3 == 0 ? "random_forest" : "svm";
  result.accuracy = 0.5 + 0.001 * i;
  result.best_config.SetDouble("C", 1.0 + i);
  record.results.push_back(result);
  return record;
}

std::vector<KbRecord> MakeRecords(int n) {
  std::vector<KbRecord> out;
  out.reserve(n);
  for (int i = 0; i < n; ++i) out.push_back(MakeRecord(i));
  return out;
}

std::string TempPath(const std::string& stem) {
  return testing::TempDir() + "/" + stem + "_" +
         std::to_string(::getpid()) + ".kb";
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(KbSnapshot, RoundTripsAllFields) {
  const auto records = MakeRecords(10);
  const std::string bytes = EncodeKbSnapshot(records);
  ASSERT_TRUE(LooksLikeKbSnapshot(bytes));

  auto decoded = DecodeKbSnapshot(bytes, /*lenient=*/false);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->records.size(), records.size());
  EXPECT_EQ(decoded->dropped_records, 0u);
  for (size_t i = 0; i < records.size(); ++i) {
    const KbRecord& in = records[i];
    const KbRecord& out = decoded->records[i];
    EXPECT_EQ(out.dataset_name, in.dataset_name);
    EXPECT_EQ(out.meta_features, in.meta_features);  // Bit-exact doubles.
    EXPECT_EQ(out.has_landmarks, in.has_landmarks);
    if (in.has_landmarks) {
      EXPECT_EQ(out.landmarks, in.landmarks);
    }
    ASSERT_EQ(out.results.size(), in.results.size());
    EXPECT_EQ(out.results[0].algorithm, in.results[0].algorithm);
    EXPECT_EQ(out.results[0].accuracy, in.results[0].accuracy);
    EXPECT_EQ(out.results[0].best_config.ToString(),
              in.results[0].best_config.ToString());
  }
}

TEST(KbSnapshot, MultiSectionEncodingSplitsAtBoundary) {
  // One over the per-section cap forces a second section.
  const auto records =
      MakeRecords(static_cast<int>(kKbSnapshotRecordsPerSection) + 1);
  const std::string bytes = EncodeKbSnapshot(records);
  auto decoded = DecodeKbSnapshot(bytes, /*lenient=*/false);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->records.size(), records.size());
}

// Damaging any single byte of a section payload must be caught by that
// section's crc: strict rejects with a checksum error, salvage drops the
// whole section (bit-rotten bytes are never trusted).
TEST(KbSnapshot, PayloadBitFlipAnywhereIsRejectedThenSalvaged) {
  const auto records = MakeRecords(12);
  const std::string clean = EncodeKbSnapshot(records);
  // 12 records fit one section: the payload spans [file header 32B +
  // section header 24B, end).
  constexpr size_t kPayloadStart = 32 + 24;

  for (size_t offset = kPayloadStart; offset < clean.size(); offset += 97) {
    std::string damaged = clean;
    damaged[offset] = static_cast<char>(damaged[offset] ^ 0x40);

    auto strict = DecodeKbSnapshot(damaged, /*lenient=*/false);
    ASSERT_FALSE(strict.ok()) << "offset " << offset;
    EXPECT_NE(strict.status().ToString().find("checksum"), std::string::npos)
        << strict.status().ToString();

    auto salvage = DecodeKbSnapshot(damaged, /*lenient=*/true);
    ASSERT_TRUE(salvage.ok()) << salvage.status().ToString();
    // A corrupt section cannot be trusted at all: everything in it drops.
    EXPECT_EQ(salvage->records.size(), 0u) << "offset " << offset;
    EXPECT_EQ(salvage->dropped_records, records.size());
    EXPECT_EQ(salvage->damaged_sections, 1u);
  }
}

// Flips inside the section *header* surface as other kinds of damage (lost
// framing, truncation, record-count mismatch). Strict must reject every one
// of them; salvage must never crash and never fabricate records.
TEST(KbSnapshot, SectionHeaderBitFlipIsAlwaysRejectedInStrictMode) {
  const auto records = MakeRecords(12);
  const std::string clean = EncodeKbSnapshot(records);
  for (size_t offset = 32; offset < 32 + 24; ++offset) {
    std::string damaged = clean;
    damaged[offset] = static_cast<char>(damaged[offset] ^ 0x04);
    auto strict = DecodeKbSnapshot(damaged, /*lenient=*/false);
    EXPECT_FALSE(strict.ok()) << "offset " << offset;
    auto salvage = DecodeKbSnapshot(damaged, /*lenient=*/true);
    if (salvage.ok()) {
      EXPECT_LE(salvage->records.size(), records.size()) << "offset " << offset;
    }
  }
}

TEST(KbSnapshot, BitFlipDamagesOnlyItsOwnSection) {
  // Two sections; a flip in the second leaves the first fully salvageable.
  const int n = static_cast<int>(kKbSnapshotRecordsPerSection) + 7;
  const auto records = MakeRecords(n);
  std::string damaged = EncodeKbSnapshot(records);
  damaged[damaged.size() - 3] ^= 0x10;  // Inside the last section's payload.

  ASSERT_FALSE(DecodeKbSnapshot(damaged, /*lenient=*/false).ok());
  auto salvage = DecodeKbSnapshot(damaged, /*lenient=*/true);
  ASSERT_TRUE(salvage.ok());
  EXPECT_EQ(salvage->records.size(), kKbSnapshotRecordsPerSection);
  EXPECT_EQ(salvage->dropped_records, 7u);
  EXPECT_EQ(salvage->damaged_sections, 1u);
  EXPECT_EQ(salvage->records[0].dataset_name, "dataset_0");
}

TEST(KbSnapshot, HeaderBitFlipIsRejected) {
  const std::string clean = EncodeKbSnapshot(MakeRecords(5));
  for (const size_t offset : {size_t{9}, size_t{13}, size_t{20}}) {
    std::string damaged = clean;
    damaged[offset] = static_cast<char>(damaged[offset] ^ 0x04);
    auto strict = DecodeKbSnapshot(damaged, /*lenient=*/false);
    ASSERT_FALSE(strict.ok()) << "offset " << offset;
  }
}

// Truncation at every point of the file: strict always rejects; salvage
// keeps a whole-record prefix and never crashes or over-reads.
TEST(KbSnapshot, TruncationAtEveryLengthSalvagesAPrefix) {
  const auto records = MakeRecords(12);
  const std::string clean = EncodeKbSnapshot(records);
  auto full = DecodeKbSnapshot(clean, /*lenient=*/false);
  ASSERT_TRUE(full.ok());

  for (size_t keep = 0; keep < clean.size(); keep += 31) {
    const std::string torn = clean.substr(0, keep);
    if (LooksLikeKbSnapshot(torn)) {
      auto strict = DecodeKbSnapshot(torn, /*lenient=*/false);
      EXPECT_FALSE(strict.ok()) << "keep " << keep;
      auto salvage = DecodeKbSnapshot(torn, /*lenient=*/true);
      if (salvage.ok()) {
        // The salvaged prefix must consist of intact leading records.
        ASSERT_LE(salvage->records.size(), records.size());
        for (size_t i = 0; i < salvage->records.size(); ++i) {
          EXPECT_EQ(salvage->records[i].dataset_name,
                    records[i].dataset_name);
        }
        EXPECT_GE(salvage->dropped_records,
                  records.size() - salvage->records.size());
      }
    }
  }
}

TEST(KbSnapshot, KnowledgeBaseSniffsBothFormats) {
  KnowledgeBase kb;
  for (int i = 0; i < 6; ++i) kb.AddRecord(MakeRecord(i));

  // Binary path.
  const std::string binary = EncodeKbSnapshot(kb.SnapshotRecords());
  auto from_binary = KnowledgeBase::Deserialize(binary);
  ASSERT_TRUE(from_binary.ok()) << from_binary.status().ToString();
  EXPECT_EQ(from_binary->NumRecords(), 6u);

  // Text path (with its trailing crc line) still parses transparently.
  auto from_text = KnowledgeBase::Deserialize(kb.Serialize());
  ASSERT_TRUE(from_text.ok()) << from_text.status().ToString();
  EXPECT_EQ(from_text->NumRecords(), 6u);

  // And the two agree on a lookup. Query from an endpoint: the text format
  // keeps only 10 significant digits, so an exact-tie query could legally
  // reorder tied neighbours there — the binary snapshot is bit-exact.
  const auto q = MakeRecord(0).meta_features;
  const auto a = from_binary->NearestRecords(q, 3);
  const auto b = from_text->NearestRecords(q, 3);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].record.dataset_name, b[i].record.dataset_name);
  }
}

TEST(KbSnapshot, TornBinaryFileFallsBackToTextBak) {
  // Main file: torn beyond salvage (header only). .bak: legacy text format.
  // LoadFromFile must sniff both and recover the .bak contents.
  const std::string path = TempPath("kb_snapshot_bak");
  KnowledgeBase kb;
  for (int i = 0; i < 4; ++i) kb.AddRecord(MakeRecord(i));
  WriteAll(path + ".bak", kb.Serialize());

  const std::string binary = EncodeKbSnapshot(kb.SnapshotRecords());
  WriteAll(path, binary.substr(0, 20));  // Mid-header tear: nothing usable.

  auto loaded = KnowledgeBase::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->NumRecords(), 4u);
  std::remove(path.c_str());
  std::remove((path + ".bak").c_str());
}

TEST(KbSnapshot, CorruptSectionOnDiskSalvagesIntactSections) {
  const std::string path = TempPath("kb_snapshot_corrupt");
  const int n = static_cast<int>(kKbSnapshotRecordsPerSection) + 5;
  KnowledgeBase kb;
  for (int i = 0; i < n; ++i) kb.AddRecord(MakeRecord(i));
  std::string bytes = EncodeKbSnapshot(kb.SnapshotRecords());
  bytes[bytes.size() - 2] ^= 0x08;  // Bit rot in the final section.
  WriteAll(path, bytes);

  auto loaded = KnowledgeBase::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->NumRecords(), kKbSnapshotRecordsPerSection);
  std::remove(path.c_str());
}

TEST(KbSnapshot, UnsupportedVersionIsRejected) {
  std::string bytes = EncodeKbSnapshot(MakeRecords(2));
  bytes[8] = 9;  // Version field (little-endian u32 right after the magic).
  // Recompute nothing: the header crc now mismatches too, which is fine —
  // both failure modes must reject in strict mode.
  auto strict = DecodeKbSnapshot(bytes, /*lenient=*/false);
  EXPECT_FALSE(strict.ok());
}

/// A 300-record KB with meta-features spread over four orders of magnitude,
/// two algorithms per record and landmarks on every other record. Values
/// are rounded to three decimals (short decimals; TextRoundTripIsLossless
/// covers values with no short form).
KnowledgeBase MakeSpreadKb(Rng* rng) {
  auto value = [rng](double lo, double hi) {
    return std::round(rng->Uniform(lo, hi) * 1000.0) / 1000.0;
  };
  KnowledgeBase kb;
  for (int i = 0; i < 300; ++i) {
    KbRecord record;
    record.dataset_name = "spread_" + std::to_string(i);
    for (size_t d = 0; d < kNumMetaFeatures; ++d) {
      const double scale = std::pow(10.0, static_cast<double>(d % 4));
      record.meta_features[d] = value(-scale, scale);
    }
    if (i % 2 == 0) {
      record.has_landmarks = true;
      for (double& lm : record.landmarks) lm = value(0.0, 1.0);
    }
    for (const char* algorithm : {"random_forest", "svm"}) {
      KbAlgorithmResult result;
      result.algorithm = algorithm;
      result.accuracy = value(0.5, 1.0);
      result.best_config.SetDouble("C", value(0.01, 100.0));
      record.results.push_back(result);
    }
    kb.AddRecord(record);
  }
  return kb;
}

void ExpectSameNeighbors(const std::vector<KbNeighbor>& a,
                         const std::vector<KbNeighbor>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].record.dataset_name, b[i].record.dataset_name);
    EXPECT_EQ(a[i].distance, b[i].distance);
  }
}

void ExpectSameNominations(const std::vector<Nomination>& a,
                           const std::vector<Nomination>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].algorithm, b[i].algorithm);
    EXPECT_EQ(a[i].score, b[i].score);
    ASSERT_EQ(a[i].warm_start_configs.size(), b[i].warm_start_configs.size());
    for (size_t c = 0; c < a[i].warm_start_configs.size(); ++c) {
      EXPECT_EQ(a[i].warm_start_configs[c].ToString(),
                b[i].warm_start_configs[c].ToString());
    }
  }
}

// Both formats decode to records and load through one bulk rebuild, so a KB
// saved as text answers every lookup exactly like its binary snapshot — no
// frozen-normalizer tail from a record-by-record load.
TEST(KbSnapshot, TextAndBinaryLoadsAreIdentical) {
  Rng rng(2024);
  const KnowledgeBase kb = MakeSpreadKb(&rng);
  auto from_binary =
      KnowledgeBase::Deserialize(EncodeKbSnapshot(kb.SnapshotRecords()));
  ASSERT_TRUE(from_binary.ok()) << from_binary.status().ToString();
  auto from_text = KnowledgeBase::Deserialize(kb.Serialize());
  ASSERT_TRUE(from_text.ok()) << from_text.status().ToString();

  const auto binary_records = from_binary->SnapshotRecords();
  const auto text_records = from_text->SnapshotRecords();
  ASSERT_EQ(binary_records.size(), 300u);
  ASSERT_EQ(text_records.size(), 300u);
  for (size_t i = 0; i < binary_records.size(); ++i) {
    EXPECT_EQ(binary_records[i].meta_features, text_records[i].meta_features);
    EXPECT_EQ(binary_records[i].landmarks, text_records[i].landmarks);
  }

  const KbIndexStats a = from_binary->IndexStats();
  const KbIndexStats b = from_text->IndexStats();
  EXPECT_EQ(a.indexed_records, 300u);
  EXPECT_EQ(a.tail_records, 0u);
  EXPECT_EQ(a.strategy, b.strategy);
  EXPECT_EQ(a.tree_active, b.tree_active);
  EXPECT_EQ(a.records, b.records);
  EXPECT_EQ(a.indexed_records, b.indexed_records);
  EXPECT_EQ(a.tail_records, b.tail_records);
  EXPECT_EQ(a.tree_depth, b.tree_depth);
  EXPECT_EQ(a.tree_nodes, b.tree_nodes);

  NominationOptions plain;
  NominationOptions combined;
  combined.landmark_weight = 2.0;
  for (int q = 0; q < 200; ++q) {
    MetaFeatureVector mf{};
    for (size_t d = 0; d < kNumMetaFeatures; ++d) {
      const double scale = std::pow(10.0, static_cast<double>(d % 4));
      mf[d] = rng.Uniform(-scale, scale);
    }
    LandmarkVector lm{};
    for (double& v : lm) v = rng.Uniform();
    ExpectSameNeighbors(from_binary->NearestRecords(mf, 3),
                        from_text->NearestRecords(mf, 3));
    ExpectSameNeighbors(from_binary->NearestRecords(mf, &lm, 2.0, 3),
                        from_text->NearestRecords(mf, &lm, 2.0, 3));
    ExpectSameNominations(from_binary->Nominate(mf, plain),
                          from_text->Nominate(mf, plain));
    ExpectSameNominations(from_binary->Nominate(mf, lm, combined),
                          from_text->Nominate(mf, lm, combined));
  }
}

// The text format writes every double with 17 significant digits, so a KB
// converted binary -> text -> binary keeps every stored meta-feature,
// landmark and accuracy, and therefore every neighbour distance.
TEST(KbSnapshot, TextRoundTripIsLossless) {
  Rng rng(77);
  std::vector<KbRecord> records;
  for (int i = 0; i < 300; ++i) {
    KbRecord record;
    record.dataset_name = "seventh_" + std::to_string(i);
    for (double& v : record.meta_features) v = rng.Uniform(-50.0, 50.0) / 7.0;
    record.has_landmarks = true;
    for (double& v : record.landmarks) v = rng.Uniform() / 7.0;
    KbAlgorithmResult result;
    result.algorithm = "random_forest";
    result.accuracy = rng.Uniform(0.5, 1.0) / 7.0;
    record.results.push_back(result);
    records.push_back(record);
  }
  auto binary = KnowledgeBase::Deserialize(EncodeKbSnapshot(records));
  ASSERT_TRUE(binary.ok()) << binary.status().ToString();
  auto text = KnowledgeBase::Deserialize(binary->Serialize());
  ASSERT_TRUE(text.ok()) << text.status().ToString();

  const auto back = text->SnapshotRecords();
  ASSERT_EQ(back.size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(back[i].meta_features, records[i].meta_features) << i;
    EXPECT_EQ(back[i].landmarks, records[i].landmarks) << i;
    ASSERT_EQ(back[i].results.size(), 1u);
    EXPECT_EQ(back[i].results[0].accuracy, records[i].results[0].accuracy)
        << i;
  }
  for (int q = 0; q < 200; ++q) {
    MetaFeatureVector mf{};
    for (double& v : mf) v = rng.Uniform(-50.0, 50.0) / 7.0;
    ExpectSameNeighbors(binary->NearestRecords(mf, 3),
                        text->NearestRecords(mf, 3));
  }
}

// Both formats store each warm-start configuration with 17 significant
// digits, so its doubles survive a text save, a binary save and a
// text -> binary -> text conversion bit for bit.
TEST(KbSnapshot, StoredConfigsRoundTripExactly) {
  Rng rng(79);
  std::vector<KbRecord> records;
  KnowledgeBase kb;
  for (int i = 0; i < 100; ++i) {
    KbRecord record = MakeRecord(i);
    ParamConfig& config = record.results[0].best_config;
    config.SetDouble("C", rng.Uniform(1.0, 1000.0) / 7.0);
    config.SetDouble("gamma", rng.Uniform() / 7.0);
    config.SetInt("degree", i % 5 + 1);
    config.SetChoice("kernel", "rbf");
    records.push_back(record);
    kb.AddRecord(record);
  }
  // ParamConfig::operator== compares the stored values themselves.
  const auto expect_exact = [&](const std::vector<KbRecord>& back) {
    ASSERT_EQ(back.size(), records.size());
    for (size_t i = 0; i < records.size(); ++i) {
      ASSERT_EQ(back[i].results.size(), 1u) << i;
      const ParamConfig& in = records[i].results[0].best_config;
      const ParamConfig& out = back[i].results[0].best_config;
      EXPECT_EQ(out.GetDouble("C", 0.0), in.GetDouble("C", 0.0)) << i;
      EXPECT_EQ(out.GetDouble("gamma", 0.0), in.GetDouble("gamma", 0.0)) << i;
      EXPECT_TRUE(out == in) << i;
    }
  };

  auto text = KnowledgeBase::Deserialize(kb.Serialize());
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  expect_exact(text->SnapshotRecords());

  auto binary = DecodeKbSnapshot(EncodeKbSnapshot(records), /*lenient=*/false);
  ASSERT_TRUE(binary.ok()) << binary.status().ToString();
  expect_exact(binary->records);

  auto converted =
      KnowledgeBase::Deserialize(EncodeKbSnapshot(text->SnapshotRecords()));
  ASSERT_TRUE(converted.ok()) << converted.status().ToString();
  auto back_to_text = KnowledgeBase::Deserialize(converted->Serialize());
  ASSERT_TRUE(back_to_text.ok()) << back_to_text.status().ToString();
  expect_exact(back_to_text->SnapshotRecords());
}

}  // namespace
}  // namespace smartml
