// Write-ahead job journal.
//
// An append-only, crc-framed record stream that JobManager writes on every
// admission, dispatch, terminal transition, and cancellation request, so a
// restarted server can replay the journal and reconstruct the queue: jobs
// that never started are re-queued, jobs that were mid-flight are re-queued
// and resume from their tuner checkpoints, and terminal jobs stay pollable.
//
// On-disk format. A journal directory holds numbered segment files
// `journal-%06u.wal`; the highest number is the active segment, everything
// below it is sealed. Each segment is a sequence of frames:
//
//   u32 body_len (LE) | u32 crc32(body) (LE) | body
//   body = u8 type | u32 key_len (LE) | key bytes | payload bytes
//
// Append writes one frame and fsyncs before acknowledging. A write that
// fails part-way (ENOSPC, a file-size limit) cuts its partial frame off
// again — or, if the cut fails, continues in a fresh segment — so later
// acknowledged records never sit behind a torn frame. Replay reads segments
// in numeric order and, when a frame is torn or fails its crc (power loss
// mid-append), salvages the longest valid prefix of that segment and keeps
// going with the next one — a torn tail only ever costs the final
// unacknowledged record.
//
// Rotation caps segment size; compaction rewrites the sealed segments
// through a caller-supplied filter (dropping records of terminal jobs) into
// a single fresh segment via AtomicWriteFile (src/persist/snapshot_io.h).
// A crash mid-compaction can leave both old and compacted segments
// visible; replayers tolerate this because they aggregate records per key,
// so duplicates are benign.
//
// Every journal counts into the process registry's smartml_journal_*
// families (appends, bytes written, rotations, compactions, replayed and
// torn records, segments on disk).
//
// Fault points (see fault_injection.h): `journal_write_torn` truncates a
// frame mid-write and skips the fsync, `journal_fsync_fail` simulates the
// fsync itself failing.
#ifndef SMARTML_PERSIST_JOURNAL_H_
#define SMARTML_PERSIST_JOURNAL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace smartml {

/// One journal entry. `type` is caller-defined (JobManager uses the
/// JobJournalRecordType enum in job_manager.h), `key` identifies the entity
/// (a run or batch id), `payload` is an opaque blob (JSON in practice —
/// the journal itself never parses it).
struct JournalRecord {
  uint8_t type = 0;
  std::string key;
  std::string payload;
};

struct JournalOptions {
  /// Rotate the active segment once it exceeds this many bytes.
  size_t segment_bytes = 1 << 20;
};

/// What Replay found. `torn_records` counts frames dropped by salvage.
struct ReplayStats {
  size_t records = 0;
  size_t torn_records = 0;
  size_t segments = 0;
};

/// The journal. All methods are thread-safe; Append serializes internally.
class JobJournal {
 public:
  /// Opens (creating if needed) the journal in `dir`. Existing segments are
  /// kept; new appends go to the highest-numbered one.
  static StatusOr<std::unique_ptr<JobJournal>> Open(
      const std::string& dir, const JournalOptions& options = {});

  ~JobJournal();
  JobJournal(const JobJournal&) = delete;
  JobJournal& operator=(const JobJournal&) = delete;

  /// Appends one record and fsyncs. IOError means the record may not be
  /// durable; callers decide whether that is fatal (JobManager logs and
  /// keeps serving — a degraded journal beats a dead server). A failed
  /// write leaves no partial frame, so later acked records stay replayable.
  Status Append(const JournalRecord& record);

  /// Streams every decodable record, oldest first, through `fn`. Torn tails
  /// are salvaged per segment (see file comment).
  StatusOr<ReplayStats> Replay(
      const std::function<void(const JournalRecord&)>& fn) const;

  /// Rewrites all sealed segments plus the current active one through
  /// `keep`: records for which it returns false are dropped, and it may
  /// mutate the record in place (JobManager strips bulky dataset payloads
  /// from admit records of finished jobs). A fresh active segment is opened
  /// afterwards.
  Status Compact(const std::function<bool(JournalRecord*)>& keep);

  const std::string& dir() const { return dir_; }

  /// Segment count on disk (test/metrics helper).
  size_t NumSegments() const;

 private:
  JobJournal(std::string dir, const JournalOptions& options);

  Status OpenActiveLocked();
  Status AppendLocked(const JournalRecord& record);
  std::string SegmentPath(unsigned number) const;

  std::string dir_;
  JournalOptions options_;

  mutable std::mutex mu_;
  std::vector<unsigned> segments_;  // sorted ascending; back() is active
  int active_fd_ = -1;
  size_t active_bytes_ = 0;
};

/// Encodes one record as a framed byte string (exposed for tests that
/// hand-craft journal segments).
std::string EncodeJournalFrame(const JournalRecord& record);

}  // namespace smartml

#endif  // SMARTML_PERSIST_JOURNAL_H_
