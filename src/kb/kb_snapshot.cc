#include "src/kb/kb_snapshot.h"

#include <cstring>

#include "src/persist/snapshot_io.h"

namespace smartml {

namespace {

constexpr uint32_t kSectionKindRecords = 1;

void EncodeRecord(std::string* out, const KbRecord& record) {
  AppendLengthPrefixed(out, record.dataset_name);
  out->append(reinterpret_cast<const char*>(record.meta_features.data()),
              kNumMetaFeatures * sizeof(double));
  AppendU8(out, record.has_landmarks ? 1 : 0);
  if (record.has_landmarks) {
    AppendU32(out, static_cast<uint32_t>(kNumLandmarkers));
    out->append(reinterpret_cast<const char*>(record.landmarks.data()),
                kNumLandmarkers * sizeof(double));
  }
  AppendU32(out, static_cast<uint32_t>(record.results.size()));
  for (const KbAlgorithmResult& result : record.results) {
    AppendLengthPrefixed(out, result.algorithm);
    AppendF64(out, result.accuracy);
    AppendLengthPrefixed(out, result.best_config.ToExactString());
  }
}

/// Parses one record; false on any truncation or inconsistency (the reader
/// position is then unspecified and the caller stops consuming the payload).
bool DecodeRecord(ByteReader* in, KbRecord* record) {
  std::string_view name;
  if (!in->ReadLengthPrefixed(&name)) return false;
  record->dataset_name.assign(name);
  if (in->remaining() < kNumMetaFeatures * sizeof(double)) return false;
  for (double& v : record->meta_features) {
    if (!in->ReadF64(&v)) return false;
  }
  uint8_t has_landmarks = 0;
  if (!in->ReadU8(&has_landmarks)) return false;
  record->has_landmarks = has_landmarks != 0;
  if (record->has_landmarks) {
    uint32_t count = 0;
    if (!in->ReadU32(&count) || count != kNumLandmarkers) return false;
    for (double& v : record->landmarks) {
      if (!in->ReadF64(&v)) return false;
    }
  }
  uint32_t result_count = 0;
  if (!in->ReadU32(&result_count)) return false;
  record->results.clear();
  record->results.reserve(std::min<size_t>(result_count, 256));
  for (uint32_t i = 0; i < result_count; ++i) {
    KbAlgorithmResult result;
    std::string_view algorithm;
    std::string_view config;
    if (!in->ReadLengthPrefixed(&algorithm) ||
        !in->ReadF64(&result.accuracy) || !in->ReadLengthPrefixed(&config)) {
      return false;
    }
    result.algorithm.assign(algorithm);
    if (!config.empty()) {
      auto parsed = ParamConfig::FromString(std::string(config));
      if (!parsed.ok()) return false;
      result.best_config = std::move(*parsed);
    }
    record->results.push_back(std::move(result));
  }
  return true;
}

}  // namespace

bool LooksLikeKbSnapshot(std::string_view data) {
  return HasSnapshotMagic(data, kKbSnapshotMagic);
}

std::string EncodeKbSnapshot(const std::vector<KbRecord>& records) {
  std::vector<SnapshotSection> sections;
  sections.reserve(records.size() / kKbSnapshotRecordsPerSection + 1);
  size_t i = 0;
  while (i < records.size()) {
    SnapshotSection section;
    section.kind = kSectionKindRecords;
    const size_t end =
        std::min(records.size(), i + kKbSnapshotRecordsPerSection);
    section.record_count = static_cast<uint32_t>(end - i);
    for (; i < end; ++i) EncodeRecord(&section.payload, records[i]);
    sections.push_back(std::move(section));
  }
  return EncodeSnapshotFile(kKbSnapshotMagic, kKbSnapshotVersion,
                            records.size(), sections);
}

StatusOr<KbSnapshotDecodeResult> DecodeKbSnapshot(std::string_view data,
                                                  bool lenient) {
  auto file = DecodeSnapshotFile(data, kKbSnapshotMagic);
  if (!file.ok()) return file.status();
  if (file->version != kKbSnapshotVersion) {
    return Status::InvalidArgument(
        "KB snapshot: unsupported version " + std::to_string(file->version));
  }
  if (!lenient && !file->header_crc_ok) {
    return Status::InvalidArgument(
        "KB snapshot: header checksum mismatch (torn or corrupt)");
  }
  KbSnapshotDecodeResult result;
  result.records.reserve(file->record_count);
  for (const SnapshotSectionView& section : file->sections) {
    if (section.kind != kSectionKindRecords) continue;  // Forward compat.
    if (section.corrupt) {
      if (!lenient) {
        return Status::InvalidArgument(
            "KB snapshot: section checksum mismatch (torn or corrupt)");
      }
      // Every byte is present but the crc disagrees: bit rot. The payload
      // cannot be trusted at all — drop the whole section.
      result.dropped_records += section.record_count;
      ++result.damaged_sections;
      continue;
    }
    if (section.truncated && !lenient) {
      return Status::InvalidArgument("KB snapshot: truncated section");
    }
    ByteReader reader(section.payload);
    uint32_t parsed = 0;
    for (uint32_t i = 0; i < section.record_count; ++i) {
      KbRecord record;
      if (!DecodeRecord(&reader, &record)) {
        if (!lenient) {
          return Status::InvalidArgument(
              "KB snapshot: malformed record in section");
        }
        break;  // Torn tail: keep the whole-record prefix.
      }
      result.records.push_back(std::move(record));
      ++parsed;
    }
    if (parsed < section.record_count) {
      result.dropped_records += section.record_count - parsed;
      ++result.damaged_sections;
    } else if (!lenient && reader.remaining() != 0) {
      return Status::InvalidArgument(
          "KB snapshot: trailing bytes after final record in section");
    }
  }
  if (!lenient) {
    if (file->sections.size() != file->section_count) {
      return Status::InvalidArgument("KB snapshot: missing sections");
    }
    if (result.records.size() != file->record_count) {
      return Status::InvalidArgument(
          "KB snapshot: record count mismatch with header");
    }
  } else if (result.records.size() < file->record_count) {
    // Sections lost entirely (torn before their header survived) are part
    // of the dropped tally too.
    result.dropped_records =
        std::max<size_t>(result.dropped_records,
                         file->record_count - result.records.size());
  }
  return result;
}

}  // namespace smartml
