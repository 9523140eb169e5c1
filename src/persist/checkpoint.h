// Checkpoint storage for resumable tuning runs.
//
// A CheckpointSink is a tiny blob store keyed by opaque strings. Tuners
// (SMAC, genetic, random search) periodically serialize their search state
// through it so a run interrupted by a crash or restart can continue from
// the last checkpoint instead of starting over. The sink is deliberately
// dumb — put/get/remove — so the serialization format stays with the
// tuners (tuning/checkpoint_codec.h) and the store can be swapped
// (file-backed in the server, in-memory in tests).
//
// FileCheckpointStore writes every Put through AtomicWriteFile
// (src/persist/snapshot_io.h: tmp file, fsync, rename into place, no .bak),
// and every blob carries a crc32 trailer that Get verifies. A torn or
// corrupt checkpoint is reported as an error, which callers treat as "no
// checkpoint" — resuming from nothing is always safe, resuming from garbage
// never is.
#ifndef SMARTML_PERSIST_CHECKPOINT_H_
#define SMARTML_PERSIST_CHECKPOINT_H_

#include <map>
#include <mutex>
#include <string>

#include "src/common/status.h"

namespace smartml {

/// Abstract blob store for tuner checkpoints. Implementations must be safe
/// to call from multiple threads (candidates tune in parallel, each writing
/// its own key).
class CheckpointSink {
 public:
  virtual ~CheckpointSink() = default;

  /// Durably stores `blob` under `key`, replacing any previous value.
  virtual Status Put(const std::string& key, const std::string& blob) = 0;

  /// Returns the blob stored under `key`, NotFound when absent, or an error
  /// when the stored blob failed verification.
  virtual StatusOr<std::string> Get(const std::string& key) = 0;

  /// Deletes the blob under `key` (no error when absent).
  virtual Status Remove(const std::string& key) = 0;

  /// Deletes every blob whose key starts with `prefix`. Used to clear all of
  /// a job's checkpoints once the job reaches a terminal state.
  virtual Status RemovePrefix(const std::string& prefix) = 0;
};

/// In-memory sink for tests: a mutex-guarded map, no durability.
class MemoryCheckpointStore : public CheckpointSink {
 public:
  Status Put(const std::string& key, const std::string& blob) override;
  StatusOr<std::string> Get(const std::string& key) override;
  Status Remove(const std::string& key) override;
  Status RemovePrefix(const std::string& prefix) override;

  /// Number of stored blobs (test helper).
  size_t Size() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::string> blobs_;
};

/// File-backed sink: one file per key under `dir`, crc-trailed, written via
/// AtomicWriteFile. Keys are sanitized into flat filenames ('/' and any
/// other non-[A-Za-z0-9._-] byte become '_'), so distinct keys that collide
/// after sanitization would overwrite each other — callers use structured
/// keys ("run-000001/smac/DecisionTree") whose sanitized forms stay unique.
///
/// Fault point `checkpoint_corrupt`: Get flips one byte of the blob before
/// crc verification, simulating silent on-disk corruption.
class FileCheckpointStore : public CheckpointSink {
 public:
  /// Creates `dir` (one level) if missing.
  explicit FileCheckpointStore(std::string dir);

  Status Put(const std::string& key, const std::string& blob) override;
  StatusOr<std::string> Get(const std::string& key) override;
  Status Remove(const std::string& key) override;
  Status RemovePrefix(const std::string& prefix) override;

  const std::string& dir() const { return dir_; }

  /// The flat filename a key maps to (exposed for tests).
  static std::string SanitizeKey(const std::string& key);

 private:
  std::string PathFor(const std::string& key) const;

  std::string dir_;
  std::mutex mu_;  // serializes writers to the same directory
};

}  // namespace smartml

#endif  // SMARTML_PERSIST_CHECKPOINT_H_
