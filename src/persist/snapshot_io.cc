#include "src/persist/snapshot_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstring>

#include "src/common/crc32.h"
#include "src/common/fault_injection.h"

namespace smartml {

static_assert(std::endian::native == std::endian::little,
              "snapshot codecs assume a little-endian host; add byte "
              "swapping before porting to big-endian targets");

namespace {
constexpr size_t kMagicLen = 8;
constexpr size_t kFileHeaderLen = kMagicLen + 4 + 4 + 8 + 4 + 4;  // 32
constexpr char kSectionMagic[4] = {'S', 'E', 'C', 'T'};
constexpr size_t kSectionHeaderLen = 4 + 4 + 8 + 4 + 4;  // 24
}  // namespace

void AppendU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void AppendU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void AppendU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void AppendF64(std::string* out, double v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void AppendLengthPrefixed(std::string* out, std::string_view bytes) {
  AppendU32(out, static_cast<uint32_t>(bytes.size()));
  out->append(bytes);
}

bool ByteReader::ReadRaw(void* dst, size_t n) {
  if (data_.size() - pos_ < n) return false;
  std::memcpy(dst, data_.data() + pos_, n);
  pos_ += n;
  return true;
}

bool ByteReader::ReadU8(uint8_t* v) { return ReadRaw(v, sizeof(*v)); }
bool ByteReader::ReadU32(uint32_t* v) { return ReadRaw(v, sizeof(*v)); }
bool ByteReader::ReadU64(uint64_t* v) { return ReadRaw(v, sizeof(*v)); }
bool ByteReader::ReadF64(double* v) { return ReadRaw(v, sizeof(*v)); }

bool ByteReader::ReadBytes(size_t n, std::string_view* bytes) {
  if (data_.size() - pos_ < n) return false;
  *bytes = data_.substr(pos_, n);
  pos_ += n;
  return true;
}

bool ByteReader::ReadLengthPrefixed(std::string_view* bytes) {
  const size_t start = pos_;
  uint32_t len = 0;
  if (ReadU32(&len) && ReadBytes(len, bytes)) return true;
  pos_ = start;
  return false;
}

bool HasSnapshotMagic(std::string_view data, std::string_view magic) {
  return magic.size() == kMagicLen && data.size() >= kMagicLen &&
         data.substr(0, kMagicLen) == magic;
}

std::string EncodeSnapshotFile(std::string_view magic, uint32_t version,
                               uint64_t record_count,
                               const std::vector<SnapshotSection>& sections) {
  std::string out;
  out.append(magic.data(), kMagicLen);
  AppendU32(&out, version);
  AppendU32(&out, kSnapshotFlagLittleEndian);
  AppendU64(&out, record_count);
  AppendU32(&out, static_cast<uint32_t>(sections.size()));
  AppendU32(&out, Crc32(std::string_view(out.data(), out.size())));
  for (const SnapshotSection& section : sections) {
    out.append(kSectionMagic, sizeof(kSectionMagic));
    AppendU32(&out, section.kind);
    AppendU64(&out, static_cast<uint64_t>(section.payload.size()));
    AppendU32(&out, section.record_count);
    AppendU32(&out, Crc32(section.payload));
    out.append(section.payload);
  }
  return out;
}

StatusOr<SnapshotFileView> DecodeSnapshotFile(std::string_view data,
                                              std::string_view magic) {
  if (!HasSnapshotMagic(data, magic)) {
    return Status::InvalidArgument("snapshot: missing magic");
  }
  if (data.size() < kFileHeaderLen) {
    return Status::InvalidArgument("snapshot: truncated header");
  }
  ByteReader header(data.substr(kMagicLen, kFileHeaderLen - kMagicLen));
  SnapshotFileView view;
  uint32_t header_crc = 0;
  (void)header.ReadU32(&view.version);
  (void)header.ReadU32(&view.flags);
  (void)header.ReadU64(&view.record_count);
  (void)header.ReadU32(&view.section_count);
  (void)header.ReadU32(&header_crc);
  view.header_crc_ok = header_crc == Crc32(data.substr(0, kFileHeaderLen - 4));
  if ((view.flags & kSnapshotFlagLittleEndian) == 0) {
    return Status::InvalidArgument("snapshot: unsupported byte order");
  }
  size_t pos = kFileHeaderLen;
  while (pos < data.size() && view.sections.size() < view.section_count) {
    if (data.size() - pos < kSectionHeaderLen) break;  // Torn section header.
    if (std::memcmp(data.data() + pos, kSectionMagic, sizeof(kSectionMagic)) !=
        0) {
      break;  // Framing lost; nothing past this point is trustworthy.
    }
    ByteReader section_header(
        data.substr(pos + sizeof(kSectionMagic),
                    kSectionHeaderLen - sizeof(kSectionMagic)));
    SnapshotSectionView section;
    uint64_t payload_len = 0;
    uint32_t payload_crc = 0;
    (void)section_header.ReadU32(&section.kind);
    (void)section_header.ReadU64(&payload_len);
    (void)section_header.ReadU32(&section.record_count);
    (void)section_header.ReadU32(&payload_crc);
    pos += kSectionHeaderLen;
    const size_t available = data.size() - pos;
    if (payload_len > available) {
      // Torn tail: keep the surviving prefix so salvage can parse whole
      // records out of it. This is always the final section.
      section.truncated = true;
      section.payload = data.substr(pos, available);
      pos = data.size();
    } else {
      section.payload = data.substr(pos, payload_len);
      section.corrupt = Crc32(section.payload) != payload_crc;
      pos += payload_len;
    }
    view.sections.push_back(section);
  }
  return view;
}

void FsyncDir(const std::string& dir) {
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd >= 0) {
    (void)::fsync(dir_fd);
    ::close(dir_fd);
  }
}

Status AtomicWriteFile(const std::string& path, std::string_view payload,
                       bool keep_bak, const char* crash_fault,
                       const char* rename_fault) {
  const std::string tmp_path = path + ".tmp";
  const int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IOError("cannot open '" + tmp_path + "' for writing");
  }
  // The crash fault simulates kill -9 mid-write: leave a torn temp file and
  // bail before the fsync/rename, so `path` itself is never touched.
  const bool crash = crash_fault != nullptr && FaultShouldFire(crash_fault);
  const size_t to_write = crash ? payload.size() / 2 : payload.size();
  size_t written = 0;
  while (written < to_write) {
    const ssize_t n = ::write(fd, payload.data() + written, to_write - written);
    if (n <= 0) {
      ::close(fd);
      return Status::IOError("write failed: " + tmp_path);
    }
    written += static_cast<size_t>(n);
  }
  if (crash) {
    ::close(fd);
    return Status::IOError(
        "fault injection: simulated crash during save (torn temp left at '" +
        tmp_path + "')");
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    return Status::IOError("fsync failed: " + tmp_path);
  }
  if (::close(fd) != 0) {
    return Status::IOError("close failed: " + tmp_path);
  }
  // With keep_bak, move the previous good file to .bak first. rename() is
  // atomic, so a crash between these steps leaves either the .bak (old
  // state) or `path` (old or new state) loadable — never a torn main file.
  const std::string bak_path = path + ".bak";
  const bool moved_to_bak =
      keep_bak && ::rename(path.c_str(), bak_path.c_str()) == 0;
  // The rename fault simulates the final rename failing (e.g. EIO on a
  // dying disk) after the old file already moved to .bak.
  if ((rename_fault != nullptr && FaultShouldFire(rename_fault)) ||
      ::rename(tmp_path.c_str(), path.c_str()) != 0) {
    // Put the last-good file back so readers of `path` never see it vanish
    // because of a failed save.
    if (moved_to_bak) (void)::rename(bak_path.c_str(), path.c_str());
    return Status::IOError("rename failed: " + tmp_path + " -> " + path);
  }
  const size_t slash = path.find_last_of('/');
  FsyncDir(slash == std::string::npos ? "." : path.substr(0, slash));
  return Status::OK();
}

StatusOr<std::string> ReadFileBytes(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IOError("cannot open '" + path + "'");
  struct stat st {};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return Status::IOError("cannot stat '" + path + "'");
  }
  const size_t size = static_cast<size_t>(st.st_size);
  std::string out(size, '\0');
  size_t off = 0;
  while (off < size) {
    const ssize_t n = ::read(fd, out.data() + off, size - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      ::close(fd);
      return Status::IOError("read failed: " + path);
    }
    off += static_cast<size_t>(n);
  }
  ::close(fd);
  return out;
}

}  // namespace smartml
