// Asynchronous experiment execution for the v1 REST API.
//
// A SmartML run can legitimately consume its whole time budget (minutes),
// which is the wrong shape for a synchronous HTTP request/response. The
// JobManager turns POST /v1/runs into a job-queue submission: requests
// validate the dataset, enqueue a job and immediately get back an id; the
// experiment executes on a dedicated pool of experiment threads whose size
// caps how many tuning runs compete for CPU at once. Results are folded
// into the (internally synchronized) knowledge base as usual and the
// serialized outcome is retained for polling via GET /v1/runs/{id}.
//
// Multi-tenant admission: every job belongs to a tenant (the X-Tenant
// header; "default" otherwise) and a priority class. Each tenant owns three
// priority-ordered FIFO queues; workers pick the next tenant by smooth
// weighted round-robin over tenants with queued work, then take that
// tenant's highest-priority job. Admission enforces a global pending cap
// plus per-tenant quotas on queued+running jobs; both shed with
// ResourceExhausted (HTTP 429 + Retry-After) and count into
// smartml_tenant_shed_total{tenant=...}.
//
// Batch admission: SubmitBatch() admits many datasets under one lock
// acquisition — a single scheduler pass (smartml_scheduler_passes_total
// advances once however many items the batch carries) — and records the
// batch so GET /v1/batches/{id} can report per-item outcomes.
//
// Live progress: each job owns a bounded RunEventBuffer. The manager
// publishes lifecycle events (queued/running/terminal) and installs the
// buffer as the run's event sink, so the pipeline's phase-transition and
// incumbent-improvement events land in the same stream; the REST layer
// serves it as SSE from GET /v1/runs/{id}/events.
//
// Lifecycle:  queued -> running -> done | failed
//             queued -> cancelled                  (DELETE while queued)
//             running -> cancelling -> cancelled   (DELETE while running)
//
// Cancelling a *running* job is cooperative: DELETE flips the job's
// CancelToken and reports state "cancelling"; the experiment thread polls
// the token (between phases, between tuner fold evaluations, and inside
// training loops) and the job reaches the terminal "cancelled" state within
// a bounded latency, observed into smartml_cancel_latency_seconds.
//
// Each piece of bookkeeping exists once: a job is one record (Job derives
// from JobSnapshot), every terminal edge goes through FinishLocked, and the
// kAdmit/kTerminal payloads and the API's run options are each written and
// read from one field list in job_manager.cc. Metrics go to the process
// registry (`GlobalMetrics()`): the manager's families are resolved once,
// the per-tenant series on a tenant's first admission.
#ifndef SMARTML_API_JOB_MANAGER_H_
#define SMARTML_API_JOB_MANAGER_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/common/cancellation.h"
#include "src/common/status.h"
#include "src/core/smartml.h"
#include "src/obs/metrics.h"
#include "src/obs/run_events.h"
#include "src/persist/checkpoint.h"
#include "src/persist/journal.h"

namespace smartml {

enum class JobState {
  kQueued,
  kRunning,
  kCancelling,  ///< Cancel requested on a running job; not yet terminal.
  kDone,
  kFailed,
  kCancelled
};

/// Stable lower-case name ("queued", "running", ...).
const char* JobStateName(JobState state);

/// Dispatch classes within one tenant: interactive jobs always leave the
/// tenant's queue before normal ones, normal before batch.
enum class JobPriority { kInteractive = 0, kNormal = 1, kBatch = 2 };

/// Stable lower-case name ("interactive", "normal", "batch").
const char* JobPriorityName(JobPriority priority);

/// Parses a priority name; defaults to kNormal for unknown/empty input.
JobPriority ParseJobPriority(const std::string& name);

/// The tenant id jobs fall into when no X-Tenant header is sent.
inline const char kDefaultTenant[] = "default";

struct JsonValue;

/// Where run options are set from. Each source accepts its own subset of
/// the one option list in job_manager.cc: the kAdmit journal record all 11,
/// the query string of POST /v1/runs and /v1/batch 8 (budget, evals,
/// deadline, selection_only, ensemble, interpretability, threads,
/// nominations), a /v1/batch item 3 (budget, evals, selection_only).
enum class RunOptionSource { kJournal, kQuery, kBatchItem };

/// Applies the options `source` accepts from the JSON object `values`
/// (kQuery: each value read as a JSON scalar) to `options`; absent and
/// unknown keys change nothing. InvalidArgument names the first key whose
/// value has the wrong type, is not finite, does not fit the field, or —
/// from clients — is a negative budget, deadline, evals or nominations.
Status ApplyRunOptions(const JsonValue& values, RunOptionSource source,
                       SmartMlOptions* options);

struct JobManagerOptions {
  /// Concurrent experiments cap (threads executing SmartML::Run).
  int num_workers = 1;
  /// Maximum queued+running jobs (all tenants) before Submit() sheds load.
  size_t max_pending_jobs = 8;
  /// Per-tenant cap on queued+running jobs; 0 disables per-tenant quotas
  /// (only the global cap applies). Overridden per tenant by
  /// `tenant_quotas`.
  size_t default_tenant_quota = 0;
  std::map<std::string, size_t> tenant_quotas;
  /// Weighted round-robin dispatch weights; tenants not listed get weight 1.
  std::map<std::string, int> tenant_weights;
  /// Capacity of each job's bounded progress-event ring.
  size_t event_buffer_capacity = 256;
  /// Hint returned with 429 responses.
  double retry_after_seconds = 5.0;
  /// Durability: directory for the write-ahead job journal and the tuner
  /// checkpoint store (a "checkpoints" subdirectory). Empty disables both —
  /// accepted jobs then live only in memory, as before. With a journal, a
  /// restarted manager pointed at the same directory replays it: terminal
  /// jobs stay pollable, never-started and mid-flight jobs are re-queued
  /// (the latter resume from their tuner checkpoints), and jobs whose
  /// cancellation was requested land terminal "cancelled".
  std::string journal_dir;
  /// Journal segment rotation threshold (bytes).
  size_t journal_segment_bytes = 1 << 20;
  /// Compact the journal after this many terminal transitions (0 = only on
  /// startup after replay).
  size_t journal_compact_every = 16;
  /// Token-bucket burst credits on top of the static per-tenant quota: a
  /// tenant at quota may still admit while it has burst tokens (capacity N,
  /// refilled at `burst_refill_per_second`, one token per over-quota
  /// admission). 0 disables bursting. Overridden per tenant by
  /// `tenant_bursts`.
  size_t default_tenant_burst = 0;
  std::map<std::string, size_t> tenant_bursts;
  double burst_refill_per_second = 1.0;
};

/// Copyable point-in-time view of one job (what GET /v1/runs/{id} reports),
/// and the base of the manager's own job record, so each field is declared
/// once.
struct JobSnapshot {
  std::string id;
  std::string dataset_name;
  std::string tenant;
  JobPriority priority = JobPriority::kNormal;
  /// Batch that admitted this job ("" for single submissions).
  std::string batch_id;
  JobState state = JobState::kQueued;
  /// Order in which the job left its queue (1-based, 0 = never dispatched).
  /// Makes fair-share dispatch order observable to tests and clients.
  uint64_t dispatch_sequence = 0;
  /// Set when state == kFailed.
  Status error;
  /// Serialized SmartMlResult (ResultToJson); set when state == kDone.
  std::string result_json;
  /// Phase timings copied from the SmartMlResult (done jobs only).
  double preprocessing_seconds = 0.0;
  double selection_seconds = 0.0;
  double tuning_seconds = 0.0;
  double output_seconds = 0.0;
  double total_seconds = 0.0;
  /// Seconds spent waiting in the queue / executing so far (live values for
  /// queued/running jobs, final values for terminal jobs).
  double queue_seconds = 0.0;
  double run_seconds = 0.0;
  std::string best_algorithm;
  double best_validation_accuracy = 0.0;
  /// Copied from SmartMlResult: the run completed on a reduced path (failed
  /// candidates or KB-lookup fallback). Done jobs only.
  bool degraded = false;
  /// Candidates that failed to tune (done jobs only).
  size_t failed_candidates = 0;
  /// True when this job survived a server restart via the journal — either
  /// re-queued (it was queued or mid-flight at the crash) or reconstructed
  /// as a pollable terminal record.
  bool recovered = false;
  /// True when the run's tuners continued from persisted checkpoints
  /// instead of restarting from zero (done jobs only).
  bool resumed_from_checkpoint = false;
};

/// One admission request: a parsed dataset plus its run options and serving
/// metadata.
struct JobRequest {
  Dataset dataset;
  SmartMlOptions run_options;
  std::string tenant;  ///< Empty maps to kDefaultTenant.
  JobPriority priority = JobPriority::kNormal;
  /// Client-supplied at-most-once key (the Idempotency-Key header). A
  /// repeat submission with the same (tenant, key) returns the original job
  /// id instead of admitting a duplicate; keys are journaled, so retries
  /// stay idempotent across server restarts. Empty disables the check.
  std::string idempotency_key;
};

/// Outcome of one SubmitBatch() call. `items` aligns with the submitted
/// requests: each holds the admitted job id or the per-item admission error
/// (quota/capacity rejections do not fail the whole batch).
struct BatchSubmitResult {
  std::string batch_id;
  std::vector<StatusOr<std::string>> items;
};

/// Retained record of a past batch for GET /v1/batches/{id}.
struct BatchSnapshot {
  std::string id;
  std::string tenant;
  /// Aligned with the original request order; rejected items carry an empty
  /// job id and the admission error message.
  struct Item {
    std::string job_id;
    std::string error;
  };
  std::vector<Item> items;
};

/// Filters for JobManager::List (GET /v1/runs). Empty fields match
/// everything. `after_id` implements cursor pagination: only jobs with an
/// id strictly greater than it are returned (job ids are zero-padded, so
/// lexicographic order is submission order).
struct JobFilter {
  std::string status;
  std::string tenant;
  std::string after_id;
  size_t limit = 0;  ///< 0 = no limit.
};

/// Record types JobManager writes into its JobJournal. One record per
/// lifecycle edge, keyed by the run id (kBatch: the batch id); payloads are
/// JSON (encoded/decoded in job_manager.cc — the journal never parses them).
enum class JobJournalRecordType : uint8_t {
  kAdmit = 1,          ///< Admission: metadata + run options + dataset CSV.
  kDispatch = 2,       ///< The job left the queue (empty payload).
  kCancelRequest = 3,  ///< Cancel requested on a running job (empty payload).
  kTerminal = 4,       ///< Terminal transition: state + result fields.
  kBatch = 5,          ///< Batch admission: per-item outcomes.
};

class JobManager {
 public:
  /// `framework` must outlive the manager. Worker threads start immediately.
  explicit JobManager(SmartML* framework, JobManagerOptions options = {});

  /// Drains nothing: signals shutdown, waits for the running experiments to
  /// finish, leaves queued jobs queued.
  ~JobManager();

  JobManager(const JobManager&) = delete;
  JobManager& operator=(const JobManager&) = delete;

  /// Validates nothing beyond capacity (the dataset was parsed by the
  /// caller); enqueues and returns the job id. ResourceExhausted when the
  /// global pending cap or the request's tenant quota is reached.
  ///
  /// `csv`, when non-empty, must be the exact text that ReadCsvString with
  /// default CsvOptions parsed into `request.dataset` (the REST layer passes
  /// the upload): the kAdmit record journals it as received, and a restart
  /// re-parses it that way. Empty journals WriteCsvString(dataset) instead.
  /// The text is only read during the call.
  StatusOr<std::string> Submit(JobRequest request, std::string_view csv = {});

  /// Single-tenant convenience overload (library users, older tests).
  StatusOr<std::string> Submit(Dataset dataset, SmartMlOptions run_options);

  /// Admits every request under one lock acquisition — one scheduler pass
  /// for the whole batch. Per-item admission failures (tenant quota, global
  /// cap) land in the corresponding `items` slot without failing the rest.
  /// Fails outright only during shutdown or for an empty batch. A non-empty
  /// `idempotency_key` (scoped by the first item's tenant) makes retries
  /// return the original batch instead of admitting duplicates. `csvs` is
  /// empty or aligned with `requests`, each entry as Submit's `csv`.
  StatusOr<BatchSubmitResult> SubmitBatch(
      std::vector<JobRequest> requests, const std::string& idempotency_key = "",
      const std::vector<std::string_view>& csvs = {});

  /// Point-in-time view of a past batch; NotFound for unknown ids.
  StatusOr<BatchSnapshot> GetBatch(const std::string& id) const;

  /// Point-in-time view of a job; NotFound for unknown ids.
  StatusOr<JobSnapshot> Get(const std::string& id) const;

  /// Snapshots of jobs matching `filter`, in id (= submission) order.
  std::vector<JobSnapshot> List(const JobFilter& filter) const;

  /// The job's live progress-event buffer (publishes until the job reaches
  /// a terminal state, then closes). NotFound for unknown ids.
  StatusOr<std::shared_ptr<RunEventBuffer>> Events(const std::string& id) const;

  /// Cancels a job. A queued job is removed immediately (snapshot state
  /// "cancelled"); a running job has its CancelToken flipped and moves to
  /// "cancelling" until the experiment thread observes the token (repeat
  /// calls are idempotent and return the current snapshot).
  /// FailedPrecondition when the job is already terminal; NotFound for
  /// unknown ids.
  StatusOr<JobSnapshot> Cancel(const std::string& id);

  /// Blocks until the job reaches a terminal state (done/failed/cancelled)
  /// or `timeout_seconds` elapses; returns the final snapshot or
  /// DeadlineExceeded. Test/tooling helper.
  StatusOr<JobSnapshot> Wait(const std::string& id, double timeout_seconds);

  /// The write-ahead journal (null when journal_dir is empty) and the tuner
  /// checkpoint store backing resumable runs. Exposed for tests and tools.
  JobJournal* journal() const { return journal_.get(); }
  CheckpointSink* checkpoints() const { return checkpoints_.get(); }

  size_t NumQueued() const;
  size_t NumRunning() const;
  /// Queued+running jobs of one tenant (0 for unknown tenants).
  size_t TenantPending(const std::string& tenant) const;
  int num_workers() const { return options_.num_workers; }
  size_t max_pending_jobs() const { return options_.max_pending_jobs; }
  double retry_after_seconds() const { return options_.retry_after_seconds; }
  /// Effective queued+running quota for `tenant` (0 = unlimited).
  size_t TenantQuota(const std::string& tenant) const;

 private:
  /// One job record: the public JobSnapshot fields plus what only the
  /// manager needs to run and time the job.
  struct Job : JobSnapshot {
    Dataset dataset;  // Released at the terminal transition.
    SmartMlOptions run_options;
    std::string idempotency_key;
    std::chrono::steady_clock::time_point submitted;
    std::chrono::steady_clock::time_point started;
    std::chrono::steady_clock::time_point finished;
    /// Shared with the experiment thread through the RunBudget.
    std::shared_ptr<CancelToken> cancel = std::make_shared<CancelToken>();
    bool cancel_requested = false;
    std::chrono::steady_clock::time_point cancel_requested_at;
    /// Progress-event stream (lifecycle + pipeline events); closed at the
    /// terminal transition. Shared with SSE readers, which may outlive the
    /// connection that created them.
    std::shared_ptr<RunEventBuffer> events;
  };

  /// Per-tenant admission + dispatch state. Never removed once created (a
  /// tenant's shed counter and WRR credit persist for the manager's life).
  struct TenantState {
    int weight = 1;
    /// Smooth-WRR running credit.
    int64_t current_weight = 0;
    /// Queued + running jobs, the quota denominator.
    size_t pending = 0;
    std::array<std::deque<std::shared_ptr<Job>>, 3> queues;
    Counter* shed = nullptr;
    /// Token-bucket burst credits consumed by over-quota admissions.
    /// Capacity 0 disables bursting for the tenant.
    double burst_tokens = 0.0;
    double burst_capacity = 0.0;
    std::chrono::steady_clock::time_point burst_refilled;
    Gauge* burst_gauge = nullptr;

    size_t QueuedCount() const {
      return queues[0].size() + queues[1].size() + queues[2].size();
    }
  };

  void WorkerLoop();
  JobSnapshot SnapshotLocked(const Job& job) const;
  /// Admits one request; mutex_ must be held. `out_error` receives the shed
  /// reason on failure. `csv` is as in Submit.
  StatusOr<std::string> AdmitLocked(JobRequest request,
                                    const std::string& batch_id,
                                    std::string_view csv);
  TenantState& TenantLocked(const std::string& tenant);
  /// Appends one record to the journal (no-op without one); logs on error
  /// instead of failing the caller — a degraded journal beats a dead server.
  void JournalAppend(JobJournalRecordType type, const std::string& key,
                     std::string payload);
  /// The one terminal transition: records `state` and `error`, stamps the
  /// finish time, publishes the "terminal" event, closes the event stream,
  /// releases the dataset, journals kTerminal (unless `journal` is false:
  /// replay of a record already in the journal) and wakes Wait(). Queue
  /// accounting and per-site metrics stay with the caller. mutex_ must be
  /// held.
  void FinishLocked(Job& job, JobState state, Status error,
                    bool journal = true);
  /// Rebuilds the queue from the journal; runs in the constructor before
  /// any worker starts, so no locking is needed.
  void ReplayJournal();
  /// Rewrites the journal, dropping dispatch/cancel records of terminal
  /// jobs and stripping the dataset CSV from their admit records. Takes
  /// mutex_ briefly to collect the terminal id set; never call while
  /// holding it.
  void CompactJournal();
  /// Picks the next job by smooth weighted round-robin across tenants with
  /// queued work, then priority order within the tenant; mutex_ must be
  /// held. Null when nothing is queued.
  std::shared_ptr<Job> TakeNextLocked();
  /// Publishes a lifecycle event ("state"/"terminal") to the job's buffer.
  static void PublishLifecycle(Job& job, const char* type);

  SmartML* framework_;
  JobManagerOptions options_;

  /// Durability (all null/empty when options_.journal_dir is empty).
  std::unique_ptr<JobJournal> journal_;
  std::unique_ptr<FileCheckpointStore> checkpoints_;
  /// "(tenant)\n(key)" -> admitted run id / batch id. Rebuilt from the
  /// journal on restart.
  std::map<std::string, std::string> idempotency_;
  std::map<std::string, std::string> batch_idempotency_;
  /// Terminal transitions since the last compaction pass.
  std::atomic<size_t> terminals_since_compact_{0};

  mutable std::mutex mutex_;
  std::condition_variable queue_cv_;     // Workers: work available/shutdown.
  mutable std::condition_variable done_cv_;  // Wait(): job reached terminal.
  bool stopping_ = false;
  uint64_t next_id_ = 1;
  uint64_t next_batch_id_ = 1;
  uint64_t next_dispatch_ = 1;
  /// Tenant fair-share queues (replaces the pre-v1 single FIFO).
  std::map<std::string, TenantState> tenants_;
  size_t num_queued_ = 0;
  std::map<std::string, std::shared_ptr<Job>> jobs_;
  std::map<std::string, BatchSnapshot> batches_;
  size_t num_running_ = 0;
  std::vector<std::thread> workers_;
};

}  // namespace smartml

#endif  // SMARTML_API_JOB_MANAGER_H_
