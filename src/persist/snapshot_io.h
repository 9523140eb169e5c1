// Shared durable-file plumbing: little-endian primitive codecs, a
// bounds-checked byte reader, crc-framed section files, the one atomic
// file writer and the one whole-file reader.
//
// Users: the knowledge base's versioned snapshot (src/kb/kb_snapshot.cc)
// encodes with the section framing; KnowledgeBase::SaveToFile, the tuner
// checkpoint store (FileCheckpointStore::Put) and journal compaction
// (JobJournal::Compact) write through AtomicWriteFile; KB loads, checkpoint
// reads and journal replay read through ReadFileBytes; journal frames are
// encoded with AppendU32 and decoded with ByteReader. The section framing:
//
//   [file header  32B]  magic[8] u32-version u32-flags u64-records
//                       u32-section-count u32-header-crc
//   [section      24B]  "SECT" u32-kind u64-payload-len u32-records
//                       u32-payload-crc
//   [payload  len B ]   kind-specific bytes
//   ... sections repeat back-to-back ...
//
// A torn tail truncates the last section (detectable: length runs past
// EOF); silent corruption flips payload bytes (detectable: crc mismatch).
// Readers get both signals per section and decide how much to salvage.
#ifndef SMARTML_PERSIST_SNAPSHOT_IO_H_
#define SMARTML_PERSIST_SNAPSHOT_IO_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"

namespace smartml {

// ---------------------------------------------------------------------------
// Little-endian primitive codecs. Snapshots are defined little-endian on
// disk; the header flags record the byte order so a big-endian build fails
// loudly instead of mis-reading (the encoder static_asserts LE for now).

void AppendU8(std::string* out, uint8_t v);
void AppendU32(std::string* out, uint32_t v);
void AppendU64(std::string* out, uint64_t v);
void AppendF64(std::string* out, double v);
/// u32 length prefix + raw bytes.
void AppendLengthPrefixed(std::string* out, std::string_view bytes);

/// Sequential bounds-checked reader over a byte view. Every Read* returns
/// false (leaving the cursor untouched) instead of running past the end, so
/// truncated payloads degrade into "no more records" rather than UB.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  bool ReadU8(uint8_t* v);
  bool ReadU32(uint32_t* v);
  bool ReadU64(uint64_t* v);
  bool ReadF64(double* v);
  /// Views the next `n` bytes.
  bool ReadBytes(size_t n, std::string_view* bytes);
  /// Reads a u32 length prefix then that many bytes.
  bool ReadLengthPrefixed(std::string_view* bytes);

  size_t remaining() const { return data_.size() - pos_; }
  size_t position() const { return pos_; }

 private:
  bool ReadRaw(void* dst, size_t n);

  std::string_view data_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Section framing.

/// One section to encode: kind-specific payload plus its record count.
struct SnapshotSection {
  uint32_t kind = 0;
  uint32_t record_count = 0;
  std::string payload;
};

/// One decoded section. `payload` views into the snapshot buffer. Exactly
/// one of the degradation flags is set for damaged sections: `truncated`
/// when the stated payload length runs past the end of the file (torn
/// tail — the surviving prefix of `payload` is returned), `corrupt` when
/// the bytes are all present but the crc does not match (bit rot — the
/// payload cannot be trusted at all).
struct SnapshotSectionView {
  uint32_t kind = 0;
  uint32_t record_count = 0;
  std::string_view payload;
  bool truncated = false;
  bool corrupt = false;
};

/// Parsed file header plus sections.
struct SnapshotFileView {
  uint32_t version = 0;
  uint32_t flags = 0;
  uint64_t record_count = 0;
  /// Declared section count (sections.size() can be smaller on a torn file).
  uint32_t section_count = 0;
  bool header_crc_ok = false;
  std::vector<SnapshotSectionView> sections;
};

/// Snapshot files declare little-endian payloads with this flag bit.
inline constexpr uint32_t kSnapshotFlagLittleEndian = 1u;

/// True when `data` starts with the 8-byte snapshot magic for `magic`.
bool HasSnapshotMagic(std::string_view data, std::string_view magic);

/// Serializes a complete snapshot file (header + crc-framed sections).
/// `magic` must be exactly 8 bytes.
std::string EncodeSnapshotFile(std::string_view magic, uint32_t version,
                               uint64_t record_count,
                               const std::vector<SnapshotSection>& sections);

/// Parses the header and walks the sections, verifying each payload crc.
/// Fails only when the magic is absent or the header itself is unusable;
/// damaged sections come back flagged rather than failing the whole parse,
/// so callers choose between strict (reject on any flag) and salvage modes.
StatusOr<SnapshotFileView> DecodeSnapshotFile(std::string_view data,
                                              std::string_view magic);

// ---------------------------------------------------------------------------
// Atomic file replacement: write `path`.tmp, fsync, rename into place, fsync
// the directory. A crash at any point leaves either the old or the new file
// at `path`, never a torn one (at worst an orphaned .tmp).
//
// `keep_bak` keeps the previous file as `path`.bak before the rename; only
// the KB save wants it (its loader falls back to the .bak). `crash_fault` /
// `rename_fault` name optional fault-injection points (nullptr disables):
// the first simulates dying mid-write (torn tmp left behind, `path`
// untouched), the second a failing final rename (the .bak, if any, is
// restored to `path` so readers never see it vanish).
Status AtomicWriteFile(const std::string& path, std::string_view payload,
                       bool keep_bak, const char* crash_fault = nullptr,
                       const char* rename_fault = nullptr);

/// Fsyncs directory `dir` so renames and unlinks in it are durable (best
/// effort; not all filesystems need it).
void FsyncDir(const std::string& dir);

/// Reads a whole file into memory with read(2) straight into the returned
/// string (one copy, no stdio buffering). IOError when the file cannot be
/// opened or ends before its stat size.
StatusOr<std::string> ReadFileBytes(const std::string& path);

}  // namespace smartml

#endif  // SMARTML_PERSIST_SNAPSHOT_IO_H_
