#include "src/persist/checkpoint.h"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <vector>

#include "src/common/crc32.h"
#include "src/common/fault_injection.h"
#include "src/persist/snapshot_io.h"

namespace smartml {

namespace {

constexpr char kCrcPrefix[] = "#crc32:";

/// Appends a "#crc32:XXXXXXXX\n" trailer over everything before it.
std::string WithCrcTrailer(const std::string& body) {
  char line[24];
  std::snprintf(line, sizeof(line), "%s%08x\n", kCrcPrefix, Crc32(body));
  return body + line;
}

/// Splits and verifies the trailer; returns false on missing/bad crc. The
/// trailer is fixed-width ("#crc32:" + 8 hex + '\n' = 16 bytes), so it is
/// sliced from the end — bodies are arbitrary bytes and need not end in a
/// newline.
bool StripCrcTrailer(const std::string& text, std::string* body) {
  const size_t trailer_len = std::strlen(kCrcPrefix) + 9;
  if (text.size() < trailer_len || text.back() != '\n') return false;
  const size_t trailer = text.size() - trailer_len;
  if (text.compare(trailer, std::strlen(kCrcPrefix), kCrcPrefix) != 0) {
    return false;
  }
  const uint32_t expected = static_cast<uint32_t>(
      std::strtoul(text.c_str() + trailer + std::strlen(kCrcPrefix), nullptr,
                   16));
  *body = text.substr(0, trailer);
  return Crc32(*body) == expected;
}

}  // namespace

// ---------------------------------------------------------------------------
// MemoryCheckpointStore

Status MemoryCheckpointStore::Put(const std::string& key,
                                  const std::string& blob) {
  std::lock_guard<std::mutex> lock(mu_);
  blobs_[key] = blob;
  return Status::OK();
}

StatusOr<std::string> MemoryCheckpointStore::Get(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = blobs_.find(key);
  if (it == blobs_.end()) {
    return Status::NotFound("no checkpoint for '" + key + "'");
  }
  return it->second;
}

Status MemoryCheckpointStore::Remove(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  blobs_.erase(key);
  return Status::OK();
}

Status MemoryCheckpointStore::RemovePrefix(const std::string& prefix) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = blobs_.lower_bound(prefix);
  while (it != blobs_.end() && it->first.compare(0, prefix.size(), prefix) == 0) {
    it = blobs_.erase(it);
  }
  return Status::OK();
}

size_t MemoryCheckpointStore::Size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return blobs_.size();
}

// ---------------------------------------------------------------------------
// FileCheckpointStore

FileCheckpointStore::FileCheckpointStore(std::string dir)
    : dir_(std::move(dir)) {
  ::mkdir(dir_.c_str(), 0755);  // best effort; Put reports real failures
}

std::string FileCheckpointStore::SanitizeKey(const std::string& key) {
  std::string out;
  out.reserve(key.size());
  for (const char c : key) {
    const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '.' || c == '-';
    out.push_back(safe ? c : '_');
  }
  if (out.empty()) out.push_back('_');
  return out + ".ckpt";
}

std::string FileCheckpointStore::PathFor(const std::string& key) const {
  return dir_ + "/" + SanitizeKey(key);
}

Status FileCheckpointStore::Put(const std::string& key,
                                const std::string& blob) {
  std::lock_guard<std::mutex> lock(mu_);
  return AtomicWriteFile(PathFor(key), WithCrcTrailer(blob),
                         /*keep_bak=*/false);
}

StatusOr<std::string> FileCheckpointStore::Get(const std::string& key) {
  auto bytes = ReadFileBytes(PathFor(key));
  if (!bytes.ok()) return Status::NotFound("no checkpoint for '" + key + "'");
  std::string text = std::move(*bytes);
  // checkpoint_corrupt simulates silent bit rot: flip one byte so the crc
  // trailer must catch it and the caller falls back to a fresh start.
  if (!text.empty() && FaultShouldFire("checkpoint_corrupt")) {
    text[text.size() / 2] ^= 0x20;
  }
  std::string body;
  if (!StripCrcTrailer(text, &body)) {
    return Status::InvalidArgument("checkpoint '" + key +
                                   "': checksum mismatch (torn or corrupt)");
  }
  return body;
}

Status FileCheckpointStore::Remove(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  (void)::unlink(PathFor(key).c_str());
  return Status::OK();
}

Status FileCheckpointStore::RemovePrefix(const std::string& prefix) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string sanitized = SanitizeKey(prefix);
  // SanitizeKey appends ".ckpt"; the filename prefix is everything before it.
  const std::string file_prefix =
      sanitized.substr(0, sanitized.size() - std::strlen(".ckpt"));
  DIR* d = ::opendir(dir_.c_str());
  if (d == nullptr) return Status::OK();
  std::vector<std::string> doomed;
  while (struct dirent* ent = ::readdir(d)) {
    const std::string name = ent->d_name;
    if (name.compare(0, file_prefix.size(), file_prefix) == 0) {
      doomed.push_back(name);
    }
  }
  ::closedir(d);
  for (const std::string& name : doomed) {
    (void)::unlink((dir_ + "/" + name).c_str());
  }
  return Status::OK();
}

}  // namespace smartml
