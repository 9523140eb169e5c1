// The continuously-updated knowledge base.
//
// Stores, per processed dataset, its 25 meta-features and the best observed
// (accuracy, hyperparameter configuration) per algorithm. For a new dataset
// it nominates candidate algorithms by a weighted nearest-neighbour scheme:
// Euclidean distance over z-normalized meta-features combined with the
// magnitude of the best performances on the similar datasets (paper §2), and
// returns the stored configurations as SMAC warm starts. Every completed
// SmartML run is folded back in, which is what makes the framework "smarter
// over time".
//
// Thread safety: all member functions are safe to call concurrently — a
// shared_mutex lets many readers (Find, NearestRecords, Nominate, Serialize,
// snapshots) proceed in parallel with each other while AddRecord takes the
// lock exclusively. Every lookup returns copies, never pointers into the
// internal record vector, so results stay valid after the lock is released
// even while writers reallocate the storage.
//
// Lookup fast path: the z-normalized meta-feature matrix is cached inside
// the KB and rebuilt only when a write invalidates it, and above a size
// threshold lookups go through a k-d tree over that matrix instead of the
// O(N·d) scan. The tree returns byte-identical neighbour lists (order, ties,
// distances) to the linear scan — the scan stays available as a correctness
// oracle and A/B baseline via SetLookupStrategy. Index maintenance is
// bounded: a live AddRecord between full rebuilds freezes the normalizer
// and lands in a small linear-scanned tail that is merged into every query,
// so AddRecord stays cheap at large N while results remain exact.
//
// Persistence: the on-disk default is a versioned binary snapshot (magic +
// header, crc per section, mmap-friendly load — see src/kb/kb_snapshot.h)
// written with the tmp+fsync+rename discipline; the legacy text format is
// still read transparently and can be written for interchange. Both formats
// decode to records and load through one bulk rebuild (normalizer fitted
// over every record, no tail), so a KB gives the same neighbours whichever
// format it was saved in.
#ifndef SMARTML_KB_KNOWLEDGE_BASE_H_
#define SMARTML_KB_KNOWLEDGE_BASE_H_

#include <optional>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/kb/kd_tree.h"
#include "src/metafeatures/landmarking.h"
#include "src/metafeatures/metafeatures.h"
#include "src/tuning/param_space.h"

namespace smartml {

/// Best observed outcome of one algorithm on one dataset.
struct KbAlgorithmResult {
  std::string algorithm;
  double accuracy = 0.0;  ///< Validation accuracy in [0, 1].
  ParamConfig best_config;
};

/// One dataset's entry.
struct KbRecord {
  std::string dataset_name;
  MetaFeatureVector meta_features{};
  /// Optional landmarking extension (empty when not computed).
  bool has_landmarks = false;
  LandmarkVector landmarks{};
  std::vector<KbAlgorithmResult> results;
};

/// One nominated algorithm for a new dataset.
struct Nomination {
  std::string algorithm;
  double score = 0.0;  ///< Similarity x performance evidence (higher=better).
  /// Best stored configs from the contributing neighbours, best first —
  /// used to initialize SMAC.
  std::vector<ParamConfig> warm_start_configs;
};

/// One nearest-neighbour hit: a copy of the record plus its distance in the
/// combined (normalized meta-feature [+ landmark]) space. Being a copy, it
/// stays valid regardless of concurrent knowledge-base writers.
struct KbNeighbor {
  KbRecord record;
  double distance = 0.0;
};

/// Tuning knobs for the similarity scheme (exposed for the ablation bench).
struct NominationOptions {
  size_t max_algorithms = 3;   ///< How many algorithms to nominate.
  size_t max_neighbors = 3;    ///< k in the nearest-neighbour lookup.
  /// Exponent on the performance magnitude; 0 disables performance
  /// weighting (distance-only ablation).
  double performance_weight = 1.0;
  /// Sharpness of the distance kernel weight = 1/(1+dist)^sharpness.
  double distance_sharpness = 2.0;
  /// Contribution of landmark distance to the combined distance (0 = off;
  /// used only for query/record pairs that both carry landmarks). Landmark
  /// distances live in [0, 2], so weights of 1-5 are reasonable.
  double landmark_weight = 0.0;
};

/// How NearestRecords resolves a query.
enum class KbLookupStrategy {
  /// k-d tree once the KB crosses the size threshold, linear scan below it
  /// (tree overhead isn't worth it on tiny KBs). The default.
  kAuto,
  /// Always the O(N·d) scan — the correctness oracle and A/B baseline.
  kLinearScan,
  /// Always the tree (any size > 0) — used by equivalence tests and the
  /// kd-tree benchmark leg.
  kKdTree,
};

/// On-disk representation for SaveToFile.
enum class KbFileFormat {
  kBinary,  ///< Versioned snapshot (magic, crc per section). The default.
  kText,    ///< Legacy line-oriented format, kept for interchange.
};

/// Point-in-time description of the lookup index (surfaced in /v1/health).
struct KbIndexStats {
  KbLookupStrategy strategy = KbLookupStrategy::kAuto;
  bool tree_active = false;   ///< Whether queries currently use the tree.
  size_t records = 0;         ///< Total records.
  size_t indexed_records = 0; ///< Records covered by the built tree.
  size_t tail_records = 0;    ///< Appends since the last bounded rebuild.
  size_t tree_depth = 0;
  size_t tree_nodes = 0;
};

/// Knobs for Compact(): near-duplicate merging + size-capped eviction.
struct KbCompactionOptions {
  /// Records within this distance in the z-normalized meta-feature space
  /// are considered the same dataset observed twice and merged
  /// (best-per-algorithm wins, landmarks kept when either side has them).
  double dedup_epsilon = 1e-9;
  /// When > 0 and the KB still exceeds this after dedup, the lowest-quality
  /// records (best stored accuracy, ties evict the older record) are
  /// dropped until the cap holds.
  size_t max_records = 0;
};

struct KbCompactionStats {
  size_t before = 0;
  size_t merged = 0;   ///< Near-duplicates folded into a surviving record.
  size_t evicted = 0;  ///< Records dropped by the quality-weighted cap.
  size_t after = 0;
};

class KnowledgeBase {
 public:
  KnowledgeBase() = default;
  // Copy/move synchronize on the source (and destination) mutex and copy or
  // move the whole State; the mutex itself is never copied or moved. A
  // moved-from KB is left in the default (empty) state.
  KnowledgeBase(const KnowledgeBase& other);
  KnowledgeBase& operator=(const KnowledgeBase& other);
  KnowledgeBase(KnowledgeBase&& other) noexcept;
  KnowledgeBase& operator=(KnowledgeBase&& other) noexcept;

  /// Inserts or merges a record. Merging keeps, per algorithm, the result
  /// with the higher accuracy (this is the paper's incremental update).
  /// Takes the lock exclusively. A record with a non-finite meta-feature is
  /// refused (InvalidArgument), counted in smartml_kb_rejected_records_total
  /// and logged: stored, it would make every later lookup's distances NaN.
  Status AddRecord(const KbRecord& record);

  size_t NumRecords() const;

  /// Consistent copy of all records (safe under concurrent writers).
  std::vector<KbRecord> SnapshotRecords() const;

  /// Copy of the record for `dataset_name`, or nullopt. The copy stays
  /// valid after return even while concurrent writers grow the KB.
  std::optional<KbRecord> Find(const std::string& dataset_name) const;

  /// Nominates algorithms for a dataset with meta-features `mf`.
  /// Empty-KB behaviour: returns an empty list (the caller falls back to a
  /// default roster). A query with a non-finite meta-feature gets the same.
  std::vector<Nomination> Nominate(const MetaFeatureVector& mf,
                                   const NominationOptions& options) const;

  /// Nomination with the landmarking extension: the query's landmark vector
  /// contributes `options.landmark_weight` x landmark-distance to the
  /// combined distance for records that also carry landmarks.
  std::vector<Nomination> Nominate(const MetaFeatureVector& mf,
                                   const LandmarkVector& landmarks,
                                   const NominationOptions& options) const;

  /// The k nearest records (copies) and their distances (normalized space).
  /// Ties in distance resolve in insertion order, deterministically — the
  /// guarantee holds identically on the linear and the k-d tree path.
  std::vector<KbNeighbor> NearestRecords(const MetaFeatureVector& mf,
                                         size_t k) const;

  /// Nearest records under the combined (meta-feature + landmark) distance.
  /// Always served by the linear scan: the landmark term is not part of the
  /// indexed space.
  std::vector<KbNeighbor> NearestRecords(const MetaFeatureVector& mf,
                                         const LandmarkVector* landmarks,
                                         double landmark_weight,
                                         size_t k) const;

  /// Switches the lookup strategy (rebuilding the index to match) — the
  /// oracle tests and bench_micro A/B the tree against the scan with this.
  void SetLookupStrategy(KbLookupStrategy strategy);
  KbLookupStrategy lookup_strategy() const;

  /// Consistent view of the index state.
  KbIndexStats IndexStats() const;

  /// Merges near-identical records and enforces the size cap (see
  /// KbCompactionOptions). Deterministic: the earliest record of a
  /// near-duplicate cluster survives; eviction drops lowest quality first.
  /// Takes the lock exclusively; safe to run from a background thread.
  KbCompactionStats Compact(const KbCompactionOptions& options);

  /// Text serialization (versioned, line oriented) with a trailing
  /// "crc32 <8 hex digits>" integrity line covering everything before it.
  /// This is the interchange format; SaveToFile writes the binary snapshot.
  std::string Serialize() const;

  /// Strict parse of either format: binary snapshots are detected by their
  /// magic, anything else takes the text path (a trailing crc32 line, when
  /// present, must match; files written before checksumming still load).
  static StatusOr<KnowledgeBase> Deserialize(const std::string& bytes);

  /// Lenient parse for crash recovery, format-sniffing like Deserialize.
  /// Keeps every complete record up to the damage and reports how many
  /// units were dropped via `*skipped` (may be null): torn text lines on
  /// the text path, lost records on the binary path. Fails only when even
  /// the header is unusable.
  static StatusOr<KnowledgeBase> DeserializeSalvage(const std::string& bytes,
                                                    size_t* skipped);

  /// Crash-safe save: write `path`.tmp, fsync, keep the previous file as
  /// `path`.bak, atomically rename into place. A crash at any point leaves
  /// either the old file or the new file loadable (never a torn `path`).
  /// Writes the binary snapshot by default; pass kText for interchange.
  Status SaveToFile(const std::string& path,
                    KbFileFormat format = KbFileFormat::kBinary) const;

  /// Load with recovery: verifies checksums (per section for binary
  /// snapshots, the trailing crc line for text); on a torn/corrupt file it
  /// salvages the intact records with a warning, and falls back to
  /// `path`.bak when the main file is missing or beyond salvage. Each
  /// recovery increments the `smartml_kb_recoveries_total` counter.
  static StatusOr<KnowledgeBase> LoadFromFile(const std::string& path);

 private:
  /// Everything the mutex guards: the records plus the lookup index derived
  /// from them. Copies and moves transfer it as one value, so no field can
  /// be left behind.
  struct State {
    std::vector<KbRecord> records;
    MetaFeatureNormalizer normalizer;
    /// Cached z-normalized meta-features, index-aligned with records —
    /// rebuilt by RebuildIndexLocked() so lookups never re-normalize per
    /// record. Entries [0, tree_records) are frozen between full rebuilds
    /// (the tree's split planes reference them); the rest is the tail.
    std::vector<MetaFeatureVector> normalized;
    KbLookupStrategy strategy = KbLookupStrategy::kAuto;
    KdTree tree;
    /// How many leading records the built tree covers; records beyond this
    /// are the linear-scanned tail.
    size_t tree_records = 0;
  };

  /// The one decode path behind Deserialize (strict) and DeserializeSalvage
  /// (lenient): sniff the format, decode to records, then one BulkLoad.
  static StatusOr<KnowledgeBase> Decode(const std::string& bytes, bool lenient,
                                        size_t* skipped);

  // Unlocked implementations; callers hold mutex_. Neighbours are
  // (record index, distance) pairs — only valid while the lock is held.
  std::vector<std::pair<size_t, double>> NearestIndicesLocked(
      const MetaFeatureVector& mf, const LandmarkVector* landmarks,
      double landmark_weight, size_t k) const;
  std::vector<Nomination> NominateImpl(
      const std::vector<std::pair<size_t, double>>& neighbors,
      const NominationOptions& options) const;
  std::string SerializeLocked() const;

  /// Whether queries should use the tree under the current strategy/size.
  bool WantTreeLocked() const;

  /// Brings the normalizer, normalized matrix and k-d tree in sync with the
  /// records. Called with mutex_ held exclusively after every mutation.
  /// `appended_one` marks the cheap case (exactly one record pushed at the
  /// back): if the tail since the last full rebuild is still within its
  /// bound, the new record is normalized with the frozen normalizer and
  /// joins the linear tail instead of triggering an O(N log N) rebuild.
  void RebuildIndexLocked(bool appended_one);

  /// Replaces all records in one step (the load path for both file
  /// formats and salvage: hash-merge duplicate names, single index
  /// rebuild). Records with a non-finite meta-feature are dropped, counted
  /// and logged, as AddRecord refuses them.
  void BulkLoad(std::vector<KbRecord>&& records);

  /// Guards state_: shared for lookups, exclusive for AddRecord (the REST
  /// layer serves /v1/select from many worker threads while completed runs
  /// commit their results).
  mutable std::shared_mutex mutex_;
  State state_;
};

}  // namespace smartml

#endif  // SMARTML_KB_KNOWLEDGE_BASE_H_
