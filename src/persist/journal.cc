#include "src/persist/journal.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "src/common/crc32.h"
#include "src/common/fault_injection.h"
#include "src/common/logging.h"
#include "src/obs/metrics.h"
#include "src/persist/snapshot_io.h"

namespace smartml {

namespace {

/// Decodes one segment's bytes into records, handing each to `fn` as a
/// mutable record whose buffers are reused for the next one. A torn or
/// crc-bad frame ends the segment: everything before it is the salvaged
/// prefix, everything from it on is dropped and counted in `torn`.
template <typename Fn>
void DecodeSegment(std::string_view bytes, Fn&& fn, size_t* records,
                   size_t* torn) {
  ByteReader frames(bytes);
  size_t decoded_end = 0;
  uint32_t body_len = 0;
  uint32_t expected_crc = 0;
  std::string_view body;
  JournalRecord record;
  while (frames.ReadU32(&body_len) && frames.ReadU32(&expected_crc) &&
         frames.ReadBytes(body_len, &body) && Crc32(body) == expected_crc) {
    // body = u8 type | u32 key_len | key | payload
    ByteReader fields(body);
    std::string_view key;
    if (!fields.ReadU8(&record.type) || !fields.ReadLengthPrefixed(&key)) {
      break;
    }
    record.key.assign(key);
    record.payload.assign(body.substr(fields.position()));
    fn(record);
    ++*records;
    decoded_end = frames.position();
  }
  if (decoded_end < bytes.size()) ++*torn;
}

/// Appends `record` to *out as one frame.
void AppendJournalFrame(const JournalRecord& record, std::string* out) {
  // u32 body_len | u32 crc32(body) | body, built in place: the header is
  // written once the body behind it is complete.
  const size_t header = out->size();
  const size_t body_len = 5 + record.key.size() + record.payload.size();
  out->reserve(header + 8 + body_len);
  out->append(8, '\0');
  AppendU8(out, record.type);
  AppendLengthPrefixed(out, record.key);
  out->append(record.payload);
  const uint32_t fields[2] = {
      static_cast<uint32_t>(body_len),
      Crc32(std::string_view(*out).substr(header + 8))};
  std::memcpy(out->data() + header, fields, sizeof(fields));
}

// Resolved once against the global registry; every member is a stable
// pointer whose updates are plain atomics.
struct JournalMetrics {
  Counter* appends;
  Counter* bytes_written;
  Counter* rotations;
  Counter* compactions;
  Counter* replayed;
  Counter* torn;
  Gauge* segments;

  JournalMetrics() {
    MetricsRegistry& registry = GlobalMetrics();
    appends = registry.GetCounter("smartml_journal_appends_total",
                                  "Journal records appended");
    bytes_written = registry.GetCounter("smartml_journal_bytes_written_total",
                                        "Bytes written to journal segments");
    rotations = registry.GetCounter("smartml_journal_rotations_total",
                                    "Journal segment rotations");
    compactions = registry.GetCounter("smartml_journal_compactions_total",
                                      "Journal compaction passes");
    replayed = registry.GetCounter("smartml_journal_replayed_records_total",
                                   "Records decoded during journal replay");
    torn = registry.GetCounter(
        "smartml_journal_torn_records_total",
        "Torn/corrupt journal frames dropped by salvage");
    segments = registry.GetGauge("smartml_journal_segments",
                                 "Journal segment files on disk");
  }

  static const JournalMetrics& Get() {
    static const JournalMetrics metrics;
    return metrics;
  }
};

}  // namespace

std::string EncodeJournalFrame(const JournalRecord& record) {
  std::string frame;
  AppendJournalFrame(record, &frame);
  return frame;
}

JobJournal::JobJournal(std::string dir, const JournalOptions& options)
    : dir_(std::move(dir)), options_(options) {}

JobJournal::~JobJournal() {
  std::lock_guard<std::mutex> lock(mu_);
  if (active_fd_ >= 0) ::close(active_fd_);
}

std::string JobJournal::SegmentPath(unsigned number) const {
  char name[32];
  std::snprintf(name, sizeof(name), "journal-%06u.wal", number);
  return dir_ + "/" + name;
}

StatusOr<std::unique_ptr<JobJournal>> JobJournal::Open(
    const std::string& dir, const JournalOptions& options) {
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IOError("cannot create journal dir '" + dir + "'");
  }
  std::unique_ptr<JobJournal> journal(new JobJournal(dir, options));
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    return Status::IOError("cannot open journal dir '" + dir + "'");
  }
  while (struct dirent* ent = ::readdir(d)) {
    unsigned number = 0;
    char trailing = 0;
    if (std::sscanf(ent->d_name, "journal-%06u.wal%c", &number, &trailing) ==
        1) {
      journal->segments_.push_back(number);
    }
  }
  ::closedir(d);
  std::sort(journal->segments_.begin(), journal->segments_.end());
  {
    std::lock_guard<std::mutex> lock(journal->mu_);
    if (journal->segments_.empty()) journal->segments_.push_back(1);
    SMARTML_RETURN_NOT_OK(journal->OpenActiveLocked());
  }
  return journal;
}

Status JobJournal::OpenActiveLocked() {
  const std::string path = SegmentPath(segments_.back());
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) return Status::IOError("cannot open '" + path + "'");
  struct stat st {};
  active_bytes_ = ::fstat(fd, &st) == 0 ? static_cast<size_t>(st.st_size) : 0;
  if (active_fd_ >= 0) ::close(active_fd_);
  active_fd_ = fd;
  JournalMetrics::Get().segments->Set(static_cast<int64_t>(segments_.size()));
  return Status::OK();
}

Status JobJournal::Append(const JournalRecord& record) {
  std::lock_guard<std::mutex> lock(mu_);
  return AppendLocked(record);
}

Status JobJournal::AppendLocked(const JournalRecord& record) {
  if (active_fd_ < 0) return Status::FailedPrecondition("journal closed");
  std::string frame = EncodeJournalFrame(record);
  // journal_write_torn simulates power loss mid-append: half the frame hits
  // the disk, no fsync, and the caller proceeds as if the write succeeded.
  // Replay must salvage everything before this frame.
  const bool torn = FaultShouldFire("journal_write_torn");
  const size_t to_write = torn ? frame.size() / 2 : frame.size();
  size_t written = 0;
  while (written < to_write) {
    const ssize_t n =
        ::write(active_fd_, frame.data() + written, to_write - written);
    if (n <= 0) {
      // Cut the partial frame (e.g. after ENOSPC): replay stops at a torn
      // frame, so the next acked append must not land behind it. When the
      // cut fails, seal the segment with the tear as its tail instead.
      if (::ftruncate(active_fd_, static_cast<off_t>(active_bytes_)) != 0) {
        segments_.push_back(segments_.back() + 1);
        SMARTML_RETURN_NOT_OK(OpenActiveLocked());
      }
      return Status::IOError("journal write failed");
    }
    written += static_cast<size_t>(n);
  }
  // The whole frame is on disk even if its fsync fails below, so count it
  // before anything can cut back to active_bytes_.
  active_bytes_ += to_write;
  if (torn) return Status::OK();  // ack-then-crash: the caller never learns
  if (FaultShouldFire("journal_fsync_fail") || ::fsync(active_fd_) != 0) {
    return Status::IOError("journal fsync failed");
  }
  const JournalMetrics& metrics = JournalMetrics::Get();
  metrics.appends->Increment();
  metrics.bytes_written->Increment(frame.size());
  if (active_bytes_ >= options_.segment_bytes) {
    segments_.push_back(segments_.back() + 1);
    SMARTML_RETURN_NOT_OK(OpenActiveLocked());
    metrics.rotations->Increment();
  }
  return Status::OK();
}

StatusOr<ReplayStats> JobJournal::Replay(
    const std::function<void(const JournalRecord&)>& fn) const {
  std::vector<unsigned> segments;
  {
    std::lock_guard<std::mutex> lock(mu_);
    segments = segments_;
  }
  ReplayStats stats;
  for (const unsigned number : segments) {
    // Appends cut failed writes back under mu_; never read mid-cut.
    std::unique_lock<std::mutex> lock(mu_);
    auto bytes = ReadFileBytes(SegmentPath(number));
    lock.unlock();
    if (!bytes.ok()) continue;  // segment vanished (compaction) — skip
    ++stats.segments;
    DecodeSegment(*bytes, fn, &stats.records, &stats.torn_records);
  }
  JournalMetrics::Get().replayed->Increment(stats.records);
  JournalMetrics::Get().torn->Increment(stats.torn_records);
  return stats;
}

Status JobJournal::Compact(const std::function<bool(JournalRecord*)>& keep) {
  std::lock_guard<std::mutex> lock(mu_);
  if (active_fd_ < 0) return Status::FailedPrecondition("journal closed");

  // Collect survivors from every segment, active included.
  std::string compacted;
  size_t dropped = 0;
  for (const unsigned number : segments_) {
    auto bytes = ReadFileBytes(SegmentPath(number));
    if (!bytes.ok()) continue;
    size_t records = 0, torn = 0;
    DecodeSegment(
        *bytes,
        [&](JournalRecord& record) {
          if (keep(&record)) {
            AppendJournalFrame(record, &compacted);
          } else {
            ++dropped;
          }
        },
        &records, &torn);
  }

  const unsigned compacted_number = segments_.back() + 1;
  const unsigned next_active = compacted_number + 1;

  // Durably write the compacted segment before deleting anything. A crash
  // after the rename but before the deletes leaves duplicates, which
  // replayers tolerate (records aggregate per key).
  if (!compacted.empty()) {
    SMARTML_RETURN_NOT_OK(AtomicWriteFile(SegmentPath(compacted_number),
                                          compacted, /*keep_bak=*/false));
  }

  ::close(active_fd_);
  active_fd_ = -1;
  for (const unsigned number : segments_) {
    (void)::unlink(SegmentPath(number).c_str());
  }
  FsyncDir(dir_);

  segments_.clear();
  if (!compacted.empty()) segments_.push_back(compacted_number);
  segments_.push_back(next_active);
  SMARTML_RETURN_NOT_OK(OpenActiveLocked());
  JournalMetrics::Get().compactions->Increment();
  SMARTML_LOG_INFO << "journal compacted: " << dropped << " records dropped, "
                   << compacted.size() << " bytes retained";
  return Status::OK();
}

size_t JobJournal::NumSegments() const {
  std::lock_guard<std::mutex> lock(mu_);
  return segments_.size();
}

}  // namespace smartml
