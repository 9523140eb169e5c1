#include "src/api/job_manager.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <set>
#include <thread>
#include <type_traits>
#include <utility>

#include "src/api/json.h"
#include "src/common/logging.h"
#include "src/common/strings.h"
#include "src/common/thread_pool.h"
#include "src/data/csv.h"

namespace smartml {

namespace {

// Resolved once against the global registry; every member is a stable
// pointer whose updates are plain atomics. The per-tenant series are
// resolved lazily in TenantLocked.
struct JobMetrics {
  Gauge* queued;
  Gauge* running;
  Gauge* cancelling;
  Counter* done;
  Counter* failed;
  Counter* cancelled;
  Counter* runs_cancelled;
  Counter* scheduler_passes;
  Histogram* cancel_latency_seconds;
  Histogram* queue_wait_seconds;
  Histogram* phase_preprocessing;
  Histogram* phase_selection;
  Histogram* phase_tuning;
  Histogram* phase_output;
  Counter* runs_recovered;

  JobMetrics() {
    MetricsRegistry& registry = GlobalMetrics();
    queued = registry.GetGauge("smartml_jobs_queued",
                               "Experiments waiting for a worker.");
    running = registry.GetGauge("smartml_jobs_running",
                                "Experiments currently executing.");
    cancelling = registry.GetGauge(
        "smartml_jobs_cancelling",
        "Running experiments with a pending cancel request.");
    const std::string jobs_help = "Finished experiments by terminal state.";
    done = registry.GetCounter("smartml_jobs_total", jobs_help,
                               {{"state", "done"}});
    failed = registry.GetCounter("smartml_jobs_total", jobs_help,
                                 {{"state", "failed"}});
    cancelled = registry.GetCounter("smartml_jobs_total", jobs_help,
                                    {{"state", "cancelled"}});
    runs_cancelled = registry.GetCounter(
        "smartml_runs_cancelled_total",
        "Runs cancelled via DELETE /v1/runs/{id} (queued or running).");
    scheduler_passes = registry.GetCounter(
        "smartml_scheduler_passes_total",
        "Admission passes through the scheduler; a whole batch shares one.");
    cancel_latency_seconds = registry.GetHistogram(
        "smartml_cancel_latency_seconds",
        "Seconds between a cancel request on a running job and the job "
        "reaching its terminal state.",
        LatencyBuckets());
    queue_wait_seconds = registry.GetHistogram(
        "smartml_job_queue_wait_seconds",
        "Seconds a job waited in the queue before starting or being "
        "cancelled.",
        PhaseBuckets());
    const std::string phase_help =
        "Wall-clock seconds per pipeline phase of completed jobs.";
    phase_preprocessing =
        registry.GetHistogram("smartml_job_phase_seconds", phase_help,
                              PhaseBuckets(), {{"phase", "preprocessing"}});
    phase_selection =
        registry.GetHistogram("smartml_job_phase_seconds", phase_help,
                              PhaseBuckets(), {{"phase", "selection"}});
    phase_tuning =
        registry.GetHistogram("smartml_job_phase_seconds", phase_help,
                              PhaseBuckets(), {{"phase", "tuning"}});
    phase_output =
        registry.GetHistogram("smartml_job_phase_seconds", phase_help,
                              PhaseBuckets(), {{"phase", "output"}});
    runs_recovered = registry.GetCounter(
        "smartml_runs_recovered_total",
        "Jobs re-admitted from the write-ahead journal after a restart.");
  }

  static const JobMetrics& Get() {
    static const JobMetrics metrics;
    return metrics;
  }
};

double SecondsBetween(std::chrono::steady_clock::time_point a,
                      std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

bool IsTerminal(JobState state) {
  return state == JobState::kDone || state == JobState::kFailed ||
         state == JobState::kCancelled;
}

/// Composite key scoping idempotency keys per tenant ('\n' cannot appear in
/// either half — both are header-sanitized by the REST layer).
std::string IdempotencyMapKey(const std::string& tenant,
                              const std::string& key) {
  return tenant + "\n" + key;
}

JobState ParseJobState(const std::string& name) {
  if (name == "done") return JobState::kDone;
  if (name == "cancelled") return JobState::kCancelled;
  return JobState::kFailed;
}

std::string StringField(const JsonValue& object, const char* key) {
  const JsonValue* v = object.Find(key);
  return v != nullptr && v->is_string() ? v->string : std::string();
}

/// Drops the trailing "csv" member from an admit payload (compaction: a
/// terminal job's dataset is never needed again, and the CSV dominates the
/// record's size). The marker cannot appear inside the escaped CSV string
/// (an unescaped '"' never occurs inside a JSON string), so plain string
/// surgery is safe here.
void StripCsvFromAdmitPayload(std::string* payload) {
  const size_t pos = payload->find(",\"csv\":\"");
  if (pos == std::string::npos || payload->empty() ||
      payload->back() != '}') {
    return;
  }
  payload->resize(pos);
  payload->push_back('}');
}

/// The one list of run options settable through the API: key, field, the
/// widest source that may set it (sources nest: the journal accepts every
/// option, the query string all but the journal-only ones, a batch item
/// only its own three), and whether clients must send a non-negative value.
/// The order is the member order of the kAdmit "options" object.
template <typename Options, typename Visit>
void ForEachRunOption(Options& o, Visit&& visit) {
  using Source = RunOptionSource;
  visit("budget", o.time_budget_seconds, Source::kBatchItem, true);
  visit("evals", o.max_evaluations, Source::kBatchItem, true);
  visit("deadline", o.run_deadline_seconds, Source::kQuery, true);
  visit("cv_folds", o.cv_folds, Source::kJournal, false);
  visit("nominations", o.max_nominations, Source::kQuery, true);
  visit("selection_only", o.selection_only, Source::kBatchItem, false);
  visit("ensemble", o.enable_ensembling, Source::kQuery, false);
  visit("interpretability", o.enable_interpretability, Source::kQuery, false);
  // threads <= 0 means "auto", so any integer is valid.
  visit("threads", o.num_threads, Source::kQuery, false);
  visit("seed", o.seed, Source::kJournal, false);
  visit("update_kb", o.update_kb, Source::kJournal, false);
}

/// The kAdmit record's job metadata, in payload order; "options" (the run
/// options) and "csv" (the dataset, always last) follow.
template <typename JobT, typename Visit>
void ForEachAdmitField(JobT& job, Visit&& visit) {
  visit("tenant", job.tenant);
  visit("priority", job.priority);
  visit("batch_id", job.batch_id);
  visit("dataset_name", job.dataset_name);
  visit("idempotency_key", job.idempotency_key);
}

/// The job fields a kTerminal record carries, in payload order. One list
/// drives the encoder and the replay decoder.
template <typename JobT, typename Visit>
void ForEachTerminalField(JobT& job, Visit&& visit) {
  visit("state", job.state);
  visit("error", job.error);  // Preceded by its "error_code" member.
  visit("best_algorithm", job.best_algorithm);
  visit("best_validation_accuracy", job.best_validation_accuracy);
  visit("preprocessing_seconds", job.preprocessing_seconds);
  visit("selection_seconds", job.selection_seconds);
  visit("tuning_seconds", job.tuning_seconds);
  visit("output_seconds", job.output_seconds);
  visit("total_seconds", job.total_seconds);
  visit("degraded", job.degraded);
  visit("failed_candidates", job.failed_candidates);
  visit("resumed_from_checkpoint", job.resumed_from_checkpoint);
  visit("dispatch_sequence", job.dispatch_sequence);
  // As an escaped string (not Raw), so replay can lift it straight back out
  // without re-serializing a parsed tree.
  visit("result_json", job.result_json);
}

/// Writes one journaled field as a JSON member.
template <typename T>
void WriteField(JsonWriter& w, const char* key, const T& value) {
  if constexpr (std::is_same_v<T, Status>) {
    w.Key("error_code");
    w.Int(static_cast<int64_t>(value.code()));
  }
  w.Key(key);
  if constexpr (std::is_same_v<T, JobState>) {
    w.String(JobStateName(value));
  } else if constexpr (std::is_same_v<T, JobPriority>) {
    w.String(JobPriorityName(value));
  } else if constexpr (std::is_same_v<T, Status>) {
    w.String(value.message());
  } else if constexpr (std::is_same_v<T, std::string>) {
    w.String(value);
  } else if constexpr (std::is_same_v<T, bool>) {
    w.Bool(value);
  } else if constexpr (std::is_floating_point_v<T>) {
    w.Number(value);
  } else {
    w.Int(static_cast<int64_t>(value));
  }
}

/// Reads member `key` of `object` into `field`; an absent member changes
/// nothing, except that a job state falls back to "failed" as an unknown
/// name does. A number must be finite and fit the field; with
/// `non_negative` it must not be negative. `from_text` marks query-string
/// values (read as JSON scalars), where 0 and 1 also spell booleans. Errors
/// are InvalidArgument naming the key.
template <typename T>
Status ReadField(const JsonValue& object, const char* key, bool from_text,
                 bool non_negative, T* field) {
  const JsonValue* value = object.Find(key);
  auto invalid = [key](const char* what) {
    return Status::InvalidArgument(StrFormat("\"%s\" %s", key, what));
  };
  if constexpr (std::is_same_v<T, JobState>) {
    *field = ParseJobState(StringField(object, key));
  } else if constexpr (std::is_same_v<T, Status>) {
    const JsonValue* code = object.Find("error_code");
    if (code != nullptr && code->is_number() &&
        static_cast<int>(code->number) != 0) {
      *field = Status(static_cast<StatusCode>(static_cast<int>(code->number)),
                      StringField(object, key));
    }
  } else if (value == nullptr) {
    return Status::OK();
  } else if constexpr (std::is_same_v<T, JobPriority>) {
    *field = ParseJobPriority(StringField(object, key));
  } else if constexpr (std::is_same_v<T, std::string>) {
    if (!value->is_string()) return invalid("must be a string");
    *field = value->string;
  } else if constexpr (std::is_same_v<T, bool>) {
    const bool bit = from_text && value->is_number() &&
                     (value->number == 0.0 || value->number == 1.0);
    if (!value->is_bool() && !bit) {
      return invalid("must be one of 0, 1, true or false");
    }
    *field = value->is_bool() ? value->boolean : value->number == 1.0;
  } else {
    const double number = value->number;
    if (!value->is_number() || !std::isfinite(number)) {
      return invalid("must be a finite number");
    }
    if (non_negative && number < 0.0) return invalid("must not be negative");
    // max() + 1 is a power of two, so the bound itself is exact.
    if (std::is_integral_v<T> &&
        (number < static_cast<double>(std::numeric_limits<T>::lowest()) ||
         number >= static_cast<double>(std::numeric_limits<T>::max()) + 1)) {
      return invalid("is out of range");
    }
    *field = static_cast<T>(number);
  }
  return Status::OK();
}

/// A field visitor that reads a journal record. The journal is this
/// process's own output, so a malformed member just keeps the field's value.
auto JournalReader(const JsonValue& record) {
  return [&record](const char* key, auto& field) {
    (void)ReadField(record, key, /*from_text=*/false, /*non_negative=*/false,
                    &field);
  };
}

/// The kAdmit record: everything needed to re-admit the job after a
/// restart. Only the API-settable run options are journaled; the rest of
/// SmartMlOptions is taken from the framework defaults at replay time
/// (exactly how the REST layer builds them at admission time). `csv` is the
/// text the dataset was parsed from, journaled as received; without it the
/// dataset is printed back to CSV.
template <typename JobT>
std::string AdmitPayload(const JobT& job, std::string_view csv) {
  JsonWriter w;
  w.BeginObject();
  auto write = [&w](const char* key, const auto& field, auto&&...) {
    WriteField(w, key, field);
  };
  ForEachAdmitField(job, write);
  w.Key("options");
  w.BeginObject();
  ForEachRunOption(job.run_options, write);
  w.EndObject();
  // "csv" must stay the LAST member: compaction strips it from terminal
  // jobs' records with plain string surgery (StripCsvFromAdmitPayload).
  w.Key("csv");
  if (csv.empty()) {
    w.String(WriteCsvString(job.dataset));
  } else {
    w.String(csv);
  }
  w.EndObject();
  return std::move(w).Take();
}

/// The kTerminal record of a finished job.
std::string TerminalPayload(const JobSnapshot& job) {
  JsonWriter w;
  w.BeginObject();
  ForEachTerminalField(job, [&w](const char* key, const auto& field) {
    WriteField(w, key, field);
  });
  w.EndObject();
  return std::move(w).Take();
}

}  // namespace

const char* JobStateName(JobState state) {
  switch (state) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kCancelling:
      return "cancelling";
    case JobState::kDone:
      return "done";
    case JobState::kFailed:
      return "failed";
    case JobState::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

const char* JobPriorityName(JobPriority priority) {
  switch (priority) {
    case JobPriority::kInteractive:
      return "interactive";
    case JobPriority::kNormal:
      return "normal";
    case JobPriority::kBatch:
      return "batch";
  }
  return "normal";
}

JobPriority ParseJobPriority(const std::string& name) {
  if (name == "interactive") return JobPriority::kInteractive;
  if (name == "batch") return JobPriority::kBatch;
  return JobPriority::kNormal;
}

Status ApplyRunOptions(const JsonValue& values, RunOptionSource source,
                       SmartMlOptions* options) {
  const bool from_client = source != RunOptionSource::kJournal;
  Status first_error = Status::OK();
  ForEachRunOption(*options, [&](const char* key, auto& field,
                                 RunOptionSource widest, bool non_negative) {
    if (source > widest) return;
    Status status =
        ReadField(values, key, source == RunOptionSource::kQuery,
                  from_client && non_negative, &field);
    if (first_error.ok()) first_error = std::move(status);
  });
  return first_error;
}

JobManager::JobManager(SmartML* framework, JobManagerOptions options)
    : framework_(framework), options_(options) {
  options_.num_workers = std::max(options_.num_workers, 1);
  options_.max_pending_jobs = std::max<size_t>(options_.max_pending_jobs, 1);
  if (options_.event_buffer_capacity == 0) options_.event_buffer_capacity = 1;

  // Registers the manager's families before the first scrape can run.
  JobMetrics::Get();

  // Durability: open journal + checkpoint store and replay the journal
  // BEFORE the first worker starts, so replay needs no locking and
  // re-queued jobs dispatch in submission order.
  if (!options_.journal_dir.empty()) {
    JournalOptions journal_options;
    journal_options.segment_bytes = options_.journal_segment_bytes;
    auto journal = JobJournal::Open(options_.journal_dir, journal_options);
    if (journal.ok()) {
      journal_ = std::move(*journal);
    } else {
      SMARTML_LOG_WARN << "job journal disabled: "
                       << journal.status().ToString();
    }
    checkpoints_ = std::make_unique<FileCheckpointStore>(
        options_.journal_dir + "/checkpoints");
    ReplayJournal();
    CompactJournal();
  }

  workers_.reserve(static_cast<size_t>(options_.num_workers));
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

JobManager::~JobManager() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

size_t JobManager::TenantQuota(const std::string& tenant) const {
  auto it = options_.tenant_quotas.find(tenant);
  if (it != options_.tenant_quotas.end()) return it->second;
  return options_.default_tenant_quota;
}

JobManager::TenantState& JobManager::TenantLocked(const std::string& tenant) {
  auto it = tenants_.find(tenant);
  if (it != tenants_.end()) return it->second;
  TenantState& state = tenants_[tenant];
  auto weight = options_.tenant_weights.find(tenant);
  state.weight = std::max(
      1, weight != options_.tenant_weights.end() ? weight->second : 1);
  state.shed = GlobalMetrics().GetCounter(
      "smartml_tenant_shed_total",
      "Admissions rejected with 429 by tenant (quota or global capacity).",
      {{"tenant", tenant}});
  auto burst = options_.tenant_bursts.find(tenant);
  const size_t burst_capacity = burst != options_.tenant_bursts.end()
                                    ? burst->second
                                    : options_.default_tenant_burst;
  if (burst_capacity > 0) {
    // The bucket starts full so a tenant's first burst is available
    // immediately.
    state.burst_capacity = static_cast<double>(burst_capacity);
    state.burst_tokens = state.burst_capacity;
    state.burst_refilled = std::chrono::steady_clock::now();
    state.burst_gauge = GlobalMetrics().GetGauge(
        "smartml_tenant_burst_tokens",
        "Remaining token-bucket burst credits per tenant.",
        {{"tenant", tenant}});
    state.burst_gauge->Set(static_cast<int64_t>(state.burst_tokens));
  }
  return state;
}

void JobManager::PublishLifecycle(Job& job, const char* type) {
  if (job.events == nullptr) return;
  RunEvent event;
  event.type = type;
  event.message = JobStateName(job.state);
  if (job.state == JobState::kDone) {
    event.algorithm = job.best_algorithm;
    event.value = job.best_validation_accuracy;
  } else if (job.state == JobState::kFailed) {
    event.message = StrFormat("failed: %s", job.error.ToString().c_str());
  }
  job.events->Publish(std::move(event));
}

StatusOr<std::string> JobManager::AdmitLocked(JobRequest request,
                                              const std::string& batch_id,
                                              std::string_view csv) {
  const std::string tenant =
      request.tenant.empty() ? kDefaultTenant : request.tenant;
  TenantState& state = TenantLocked(tenant);
  std::string idem_map_key;
  if (!request.idempotency_key.empty()) {
    idem_map_key = IdempotencyMapKey(tenant, request.idempotency_key);
    auto hit = idempotency_.find(idem_map_key);
    // At-most-once: a retry of an already-admitted request returns the
    // original id without consuming capacity, quota, or burst tokens.
    if (hit != idempotency_.end()) return hit->second;
  }
  if (num_queued_ + num_running_ >= options_.max_pending_jobs) {
    state.shed->Increment();
    return Status::ResourceExhausted(
        StrFormat("experiment queue full (%zu pending, cap %zu)",
                  num_queued_ + num_running_, options_.max_pending_jobs));
  }
  const size_t quota = TenantQuota(tenant);
  if (quota > 0 && state.pending >= quota) {
    // Over quota: the token bucket may still admit a burst. Refill for the
    // time elapsed since the last refill, capped at capacity, then spend
    // one token per over-quota admission.
    if (state.burst_capacity > 0.0) {
      const auto now = std::chrono::steady_clock::now();
      state.burst_tokens =
          std::min(state.burst_capacity,
                   state.burst_tokens +
                       SecondsBetween(state.burst_refilled, now) *
                           options_.burst_refill_per_second);
      state.burst_refilled = now;
      state.burst_gauge->Set(static_cast<int64_t>(state.burst_tokens));
    }
    if (state.burst_tokens >= 1.0) {
      state.burst_tokens -= 1.0;
      state.burst_gauge->Set(static_cast<int64_t>(state.burst_tokens));
    } else {
      state.shed->Increment();
      return Status::ResourceExhausted(
          StrFormat("tenant '%s' at quota (%zu pending, quota %zu)",
                    tenant.c_str(), state.pending, quota));
    }
  }

  auto job = std::make_shared<Job>();
  job->dataset_name = request.dataset.name();
  job->tenant = tenant;
  job->priority = request.priority;
  job->batch_id = batch_id;
  job->dataset = std::move(request.dataset);
  // Cap intra-run parallelism so `workers × threads` never oversubscribes
  // the machine, whatever the caller asked for.
  request.run_options.num_threads = std::min(
      ResolveNumThreads(request.run_options.num_threads),
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()) /
                      std::max(1, options_.num_workers)));
  job->run_options = std::move(request.run_options);
  job->submitted = std::chrono::steady_clock::now();
  job->events =
      std::make_shared<RunEventBuffer>(options_.event_buffer_capacity);
  job->id =
      StrFormat("run-%06llu", static_cast<unsigned long long>(next_id_++));
  job->idempotency_key = request.idempotency_key;

  jobs_[job->id] = job;
  state.queues[static_cast<size_t>(job->priority)].push_back(job);
  ++state.pending;
  ++num_queued_;
  JobMetrics::Get().queued->Increment();
  if (!idem_map_key.empty()) idempotency_[idem_map_key] = job->id;
  // Write-ahead: the admission is journaled (with the dataset CSV, so a
  // restart can rebuild the job) before the id is acknowledged.
  if (journal_ != nullptr) {
    JournalAppend(JobJournalRecordType::kAdmit, job->id,
                  AdmitPayload(*job, csv));
  }
  PublishLifecycle(*job, "state");
  return job->id;
}

StatusOr<std::string> JobManager::Submit(JobRequest request,
                                         std::string_view csv) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (stopping_) {
    return Status::FailedPrecondition("job manager is shutting down");
  }
  JobMetrics::Get().scheduler_passes->Increment();
  StatusOr<std::string> id =
      AdmitLocked(std::move(request), /*batch_id=*/"", csv);
  lock.unlock();
  if (id.ok()) queue_cv_.notify_one();
  return id;
}

StatusOr<std::string> JobManager::Submit(Dataset dataset,
                                         SmartMlOptions run_options) {
  JobRequest request;
  request.dataset = std::move(dataset);
  request.run_options = std::move(run_options);
  return Submit(std::move(request));
}

StatusOr<BatchSubmitResult> JobManager::SubmitBatch(
    std::vector<JobRequest> requests, const std::string& idempotency_key,
    const std::vector<std::string_view>& csvs) {
  if (requests.empty()) {
    return Status::InvalidArgument("batch has no items");
  }
  if (!csvs.empty() && csvs.size() != requests.size()) {
    return Status::InvalidArgument(
        StrFormat("batch has %zu items but %zu CSV texts", requests.size(),
                  csvs.size()));
  }
  BatchSubmitResult result;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      return Status::FailedPrecondition("job manager is shutting down");
    }
    std::string idem_map_key;
    if (!idempotency_key.empty()) {
      const std::string tenant = requests.front().tenant.empty()
                                     ? kDefaultTenant
                                     : requests.front().tenant;
      idem_map_key = IdempotencyMapKey(tenant, idempotency_key);
      auto hit = batch_idempotency_.find(idem_map_key);
      if (hit != batch_idempotency_.end()) {
        // Retry of an already-admitted batch: rebuild the result from the
        // retained record instead of admitting duplicates.
        auto batch = batches_.find(hit->second);
        if (batch != batches_.end()) {
          result.batch_id = batch->second.id;
          for (const BatchSnapshot::Item& item : batch->second.items) {
            if (item.job_id.empty()) {
              result.items.push_back(StatusOr<std::string>(
                  Status::ResourceExhausted(item.error)));
            } else {
              result.items.push_back(StatusOr<std::string>(item.job_id));
            }
          }
          return result;
        }
      }
    }
    // One scheduler pass for the whole batch: a single lock acquisition
    // admits every item back to back (no interleaved foreign admissions),
    // and the pass counter moves once.
    JobMetrics::Get().scheduler_passes->Increment();
    result.batch_id = StrFormat(
        "batch-%06llu", static_cast<unsigned long long>(next_batch_id_++));
    BatchSnapshot record;
    record.id = result.batch_id;
    for (size_t i = 0; i < requests.size(); ++i) {
      JobRequest& request = requests[i];
      if (record.tenant.empty()) {
        record.tenant =
            request.tenant.empty() ? kDefaultTenant : request.tenant;
      }
      StatusOr<std::string> admitted =
          AdmitLocked(std::move(request), result.batch_id,
                      csvs.empty() ? std::string_view() : csvs[i]);
      BatchSnapshot::Item item;
      if (admitted.ok()) {
        item.job_id = *admitted;
      } else {
        item.error = admitted.status().ToString();
      }
      record.items.push_back(std::move(item));
      result.items.push_back(std::move(admitted));
    }
    if (!idem_map_key.empty()) {
      batch_idempotency_[idem_map_key] = result.batch_id;
    }
    // The per-item kAdmit records are already in the journal; the kBatch
    // record ties them together so GET /v1/batches/{id} and the batch
    // idempotency key survive a restart.
    if (journal_ != nullptr) {
      JsonWriter w;
      w.BeginObject();
      WriteField(w, "tenant", record.tenant);
      WriteField(w, "idempotency_key", idempotency_key);
      w.Key("items");
      w.BeginArray();
      for (const BatchSnapshot::Item& item : record.items) {
        w.BeginObject();
        WriteField(w, "job_id", item.job_id);
        WriteField(w, "error", item.error);
        w.EndObject();
      }
      w.EndArray();
      w.EndObject();
      JournalAppend(JobJournalRecordType::kBatch, result.batch_id,
                    std::move(w).Take());
    }
    batches_[result.batch_id] = std::move(record);
  }
  queue_cv_.notify_all();
  return result;
}

StatusOr<BatchSnapshot> JobManager::GetBatch(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = batches_.find(id);
  if (it == batches_.end()) {
    return Status::NotFound("no batch with id '" + id + "'");
  }
  return it->second;
}

StatusOr<JobSnapshot> JobManager::Get(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return Status::NotFound("no job with id '" + id + "'");
  }
  return SnapshotLocked(*it->second);
}

std::vector<JobSnapshot> JobManager::List(const JobFilter& filter) const {
  std::vector<JobSnapshot> out;
  std::lock_guard<std::mutex> lock(mutex_);
  // jobs_ is keyed by the zero-padded id, so map order is submission order
  // and `after_id` cursors resume exactly where the last page stopped.
  for (const auto& [id, job] : jobs_) {
    if (!filter.after_id.empty() && id <= filter.after_id) continue;
    if (!filter.tenant.empty() && job->tenant != filter.tenant) continue;
    if (!filter.status.empty() && filter.status != JobStateName(job->state)) {
      continue;
    }
    out.push_back(SnapshotLocked(*job));
    if (filter.limit > 0 && out.size() >= filter.limit) break;
  }
  return out;
}

StatusOr<std::shared_ptr<RunEventBuffer>> JobManager::Events(
    const std::string& id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return Status::NotFound("no job with id '" + id + "'");
  }
  return it->second->events;
}

StatusOr<JobSnapshot> JobManager::Cancel(const std::string& id) {
  const JobMetrics& metrics = JobMetrics::Get();
  JobSnapshot snapshot;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = jobs_.find(id);
    if (it == jobs_.end()) {
      return Status::NotFound("no job with id '" + id + "'");
    }
    Job& job = *it->second;
    switch (job.state) {
      case JobState::kQueued: {
        // Never started: terminal immediately.
        TenantState& tenant = TenantLocked(job.tenant);
        auto& queue = tenant.queues[static_cast<size_t>(job.priority)];
        queue.erase(std::remove(queue.begin(), queue.end(), it->second),
                    queue.end());
        --tenant.pending;
        --num_queued_;
        metrics.queued->Decrement();
        metrics.cancelled->Increment();
        metrics.runs_cancelled->Increment();
        FinishLocked(job, JobState::kCancelled,
                     Status::Cancelled("run cancelled"));
        // The whole wait was queue time; without this, cancelled-while-
        // queued jobs vanish from the per-tenant wait distribution.
        metrics.queue_wait_seconds->Observe(
            SecondsBetween(job.submitted, job.finished));
        break;
      }
      case JobState::kRunning:
        // Cooperative: flip the token; the experiment thread finalizes the
        // job as cancelled when it observes it. The journal records the
        // request so a crash before that terminal transition still lands
        // the job "cancelled" after replay.
        job.cancel->Cancel();
        job.cancel_requested = true;
        job.cancel_requested_at = std::chrono::steady_clock::now();
        job.state = JobState::kCancelling;
        metrics.cancelling->Increment();
        JournalAppend(JobJournalRecordType::kCancelRequest, job.id, "");
        break;
      case JobState::kCancelling:
        break;  // Idempotent repeat; report the current state.
      default:
        return Status::FailedPrecondition(
            "job '" + id + "' already finished (" +
            std::string(JobStateName(job.state)) + ")");
    }
    snapshot = SnapshotLocked(job);
  }
  return snapshot;
}

StatusOr<JobSnapshot> JobManager::Wait(const std::string& id,
                                       double timeout_seconds) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::duration<double>(timeout_seconds));
  std::unique_lock<std::mutex> lock(mutex_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return Status::NotFound("no job with id '" + id + "'");
  }
  std::shared_ptr<Job> job = it->second;
  if (!done_cv_.wait_until(lock, deadline,
                           [&] { return IsTerminal(job->state); })) {
    return Status::DeadlineExceeded("job '" + id + "' still " +
                                    std::string(JobStateName(job->state)));
  }
  return SnapshotLocked(*job);
}

size_t JobManager::NumQueued() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return num_queued_;
}

size_t JobManager::NumRunning() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return num_running_;
}

size_t JobManager::TenantPending(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = tenants_.find(tenant.empty() ? kDefaultTenant : tenant);
  return it == tenants_.end() ? 0 : it->second.pending;
}

JobSnapshot JobManager::SnapshotLocked(const Job& job) const {
  JobSnapshot snapshot = job;
  // Spans run to now for live jobs and to the finish for terminal ones. A
  // job that never started (queued, or cancelled while queued) has only
  // queue time.
  const auto end = IsTerminal(job.state) ? job.finished
                                         : std::chrono::steady_clock::now();
  if (job.started == std::chrono::steady_clock::time_point()) {
    snapshot.queue_seconds = SecondsBetween(job.submitted, end);
  } else {
    snapshot.queue_seconds = SecondsBetween(job.submitted, job.started);
    snapshot.run_seconds = SecondsBetween(job.started, end);
  }
  return snapshot;
}

std::shared_ptr<JobManager::Job> JobManager::TakeNextLocked() {
  // Smooth weighted round-robin (the nginx variant) over tenants with
  // queued work: every eligible tenant gains its weight in credit, the
  // richest tenant dispatches and pays the total back. Interleaving over N
  // rounds converges to the weight ratios, with no tenant starved. Tenants
  // iterate in name order, so ties break deterministically.
  int64_t total_weight = 0;
  TenantState* picked = nullptr;
  for (auto& [name, tenant] : tenants_) {
    if (tenant.QueuedCount() == 0) continue;
    total_weight += tenant.weight;
    tenant.current_weight += tenant.weight;
    if (picked == nullptr || tenant.current_weight > picked->current_weight) {
      picked = &tenant;
    }
  }
  if (picked == nullptr) return nullptr;
  picked->current_weight -= total_weight;
  for (auto& queue : picked->queues) {
    if (queue.empty()) continue;
    std::shared_ptr<Job> job = queue.front();
    queue.pop_front();
    return job;
  }
  return nullptr;  // Unreachable: QueuedCount() > 0.
}

  const JobMetrics& metrics = JobMetrics::Get();
void JobManager::WorkerLoop() {
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      queue_cv_.wait(lock, [&] { return stopping_ || num_queued_ > 0; });
      // Shutdown starts nothing new: queued jobs stay queued (and, with a
      // journal, re-queue on the next start) rather than being drained by a
      // destructor that could otherwise block for the whole backlog.
      if (stopping_ || num_queued_ == 0) return;
      job = TakeNextLocked();
      if (job == nullptr) continue;
      job->state = JobState::kRunning;
      job->started = std::chrono::steady_clock::now();
      job->dispatch_sequence = next_dispatch_++;
      --num_queued_;
      ++num_running_;
      metrics.queued->Decrement();
      metrics.running->Increment();
      metrics.queue_wait_seconds->Observe(
          SecondsBetween(job->submitted, job->started));
      PublishLifecycle(*job, "state");
    }
    // kDispatch marks the job as possibly mid-flight: replay after a crash
    // re-queues it and tells SSE followers the run was interrupted.
    JournalAppend(JobJournalRecordType::kDispatch, job->id, "");

    SMARTML_LOG_INFO << "job " << job->id << ": starting experiment on '"
                     << job->dataset_name << "' (tenant " << job->tenant
                     << ", " << JobPriorityName(job->priority) << ")";
    // The long part — no locks held. SmartML::Run with explicit options is
    // safe to execute concurrently (the KB is internally synchronized). The
    // budget carries the job's cancel token so DELETE /v1/runs/{id} can
    // interrupt the run cooperatively, and the event scope routes the
    // pipeline's phase/incumbent events into the job's SSE buffer. The
    // checkpoint sink (when durability is on) lets the tuners persist their
    // state under "<job id>/..." keys and resume after a restart.
    RunBudget budget;
    budget.token = job->cancel;
    budget.checkpoint = checkpoints_.get();
    budget.checkpoint_scope = job->id;
    StatusOr<SmartMlResult> result = [&] {
      ScopedRunContext event_scope({.events = job->events.get()});
      return framework_->Run(job->dataset, job->run_options, budget);
    }();

    {
      std::lock_guard<std::mutex> lock(mutex_);
      --num_running_;
      --TenantLocked(job->tenant).pending;
      metrics.running->Decrement();
      if (job->state == JobState::kCancelling) {
        metrics.cancelling->Decrement();
      }
      if (job->cancel_requested) {
        // The caller disowned this run; its outcome (even a completed
        // result) is discarded and the job lands terminal "cancelled".
        metrics.cancelled->Increment();
        metrics.runs_cancelled->Increment();
        FinishLocked(*job, JobState::kCancelled,
                     result.ok() ? Status::Cancelled("run cancelled")
                                 : result.status());
        metrics.cancel_latency_seconds->Observe(
            SecondsBetween(job->cancel_requested_at, job->finished));
      } else if (result.ok()) {
        job->resumed_from_checkpoint = result->resumed_from_checkpoint;
        job->result_json = ResultToJson(*result);
        job->preprocessing_seconds = result->preprocessing_seconds;
        job->selection_seconds = result->selection_seconds;
        job->tuning_seconds = result->tuning_seconds;
        job->output_seconds = result->output_seconds;
        job->total_seconds = result->total_seconds;
        job->best_algorithm = result->best_algorithm;
        job->best_validation_accuracy = result->best_validation_accuracy;
        job->degraded = result->degraded;
        job->failed_candidates = result->failed_candidates.size();
        metrics.done->Increment();
        metrics.phase_preprocessing->Observe(result->preprocessing_seconds);
        metrics.phase_selection->Observe(result->selection_seconds);
        metrics.phase_tuning->Observe(result->tuning_seconds);
        metrics.phase_output->Observe(result->output_seconds);
        FinishLocked(*job, JobState::kDone, Status::OK());
      } else {
        metrics.failed->Increment();
        FinishLocked(*job, JobState::kFailed, result.status());
      }
    }
    if (checkpoints_ != nullptr) {
      // The run is terminal; its tuner checkpoints are dead weight.
      (void)checkpoints_->RemovePrefix(job->id + "/");
    }
    if (journal_ != nullptr && options_.journal_compact_every > 0 &&
        terminals_since_compact_.fetch_add(1) + 1 >=
            options_.journal_compact_every) {
      terminals_since_compact_.store(0);
      CompactJournal();
    }
    SMARTML_LOG_INFO << "job " << job->id << ": "
                     << JobStateName(job->state);
  }
}

void JobManager::JournalAppend(JobJournalRecordType type,
                               const std::string& key, std::string payload) {
  if (journal_ == nullptr) return;
  JournalRecord record;
  record.type = static_cast<uint8_t>(type);
  record.key = key;
  record.payload = std::move(payload);
  Status status = journal_->Append(record);
  if (!status.ok()) {
    // A degraded journal beats a dead server: the job proceeds in memory,
    // it just won't survive a restart.
    SMARTML_LOG_WARN << "journal append failed for " << key << ": "
                     << status.ToString();
  }
}

void JobManager::FinishLocked(Job& job, JobState state, Status error,
                              bool journal) {
  job.state = state;
  job.error = std::move(error);
  job.finished = std::chrono::steady_clock::now();
  PublishLifecycle(job, "terminal");
  job.events->Close();
  // The Dataset is no longer needed; release the memory while keeping the
  // job entry pollable.
  job.dataset = Dataset();
  if (journal) {
    JournalAppend(JobJournalRecordType::kTerminal, job.id,
                  TerminalPayload(job));
  }
  done_cv_.notify_all();
}

void JobManager::ReplayJournal() {
  if (journal_ == nullptr) return;
  // Aggregate the journal per run id: the LAST admit/terminal record wins,
  // which also makes duplicate records from an interrupted compaction
  // harmless.
  struct ReplayedRun {
    bool admitted = false;
    bool dispatched = false;
    bool cancel_requested = false;
    bool terminal = false;
    std::string admit_payload;
    std::string terminal_payload;
  };
  std::map<std::string, ReplayedRun> runs;
  std::vector<std::pair<std::string, std::string>> batch_records;
  StatusOr<ReplayStats> stats =
      journal_->Replay([&](const JournalRecord& record) {
        switch (static_cast<JobJournalRecordType>(record.type)) {
          case JobJournalRecordType::kAdmit: {
            ReplayedRun& run = runs[record.key];
            run.admitted = true;
            run.admit_payload = record.payload;
            break;
          }
          case JobJournalRecordType::kDispatch:
            runs[record.key].dispatched = true;
            break;
          case JobJournalRecordType::kCancelRequest:
            runs[record.key].cancel_requested = true;
            break;
          case JobJournalRecordType::kTerminal: {
            ReplayedRun& run = runs[record.key];
            run.terminal = true;
            run.terminal_payload = record.payload;
            break;
          }
          case JobJournalRecordType::kBatch:
            batch_records.emplace_back(record.key, record.payload);
            break;
        }
      });
  if (!stats.ok()) {
    SMARTML_LOG_WARN << "journal replay failed: "
                     << stats.status().ToString();
    return;
  }
  size_t requeued = 0;
  size_t terminal_jobs = 0;
  const auto now = std::chrono::steady_clock::now();
  // Map order is id order is submission order, so re-queued jobs re-enter
  // their tenant queues exactly as the crashed process would dispatch them.
  for (auto& [id, run] : runs) {
    if (!run.admitted) continue;  // Orphan dispatch/cancel records.
    unsigned long long numeric = 0;
    if (std::sscanf(id.c_str(), "run-%llu", &numeric) == 1) {
      next_id_ = std::max(next_id_, static_cast<uint64_t>(numeric) + 1);
    }
    StatusOr<JsonValue> admit = ParseJson(run.admit_payload);
    if (!admit.ok() || !admit->is_object()) {
      SMARTML_LOG_WARN << "journal: dropping " << id
                       << " (unreadable admit record)";
      continue;
    }
    auto job = std::make_shared<Job>();
    job->id = id;
    ForEachAdmitField(*job, JournalReader(*admit));
    if (job->tenant.empty()) job->tenant = kDefaultTenant;
    job->run_options = framework_->options();
    if (const JsonValue* options = admit->Find("options")) {
      // As with JournalReader, a malformed member keeps its default.
      (void)ApplyRunOptions(*options, RunOptionSource::kJournal,
                            &job->run_options);
    }
    job->submitted = now;
    job->events =
        std::make_shared<RunEventBuffer>(options_.event_buffer_capacity);
    job->recovered = true;
    if (!job->idempotency_key.empty()) {
      idempotency_[IdempotencyMapKey(job->tenant, job->idempotency_key)] = id;
    }
    TenantState& tenant = TenantLocked(job->tenant);
    jobs_[id] = job;
    // Lands the job terminal; replayed terminal jobs report zero queue and
    // run time.
    auto finish = [&](JobState state, Status error, bool journal) {
      FinishLocked(*job, state, std::move(error), journal);
      job->started = job->submitted = job->finished;
      ++terminal_jobs;
    };

    if (run.terminal) {
      // Finished before the crash: reconstruct the pollable record from
      // the record already in the journal. The previous process already
      // counted it into the terminal-state counters of its lifetime, so no
      // metrics move here.
      StatusOr<JsonValue> terminal = ParseJson(run.terminal_payload);
      if (terminal.ok() && terminal->is_object()) {
        ForEachTerminalField(*job, JournalReader(*terminal));
        finish(job->state, job->error, /*journal=*/false);
      } else {
        finish(JobState::kFailed,
               Status::Internal("terminal record unreadable after restart"),
               /*journal=*/false);
      }
      continue;
    }

    if (run.cancel_requested) {
      // The cancel was requested but the terminal transition never hit the
      // journal: honor the caller's intent.
      finish(JobState::kCancelled,
             Status::Cancelled("cancelled before restart"), true);
      continue;
    }

    // Queued or mid-flight at the crash: re-queue. The dataset rides in the
    // admit record's CSV member; its tuner checkpoints (if it got far
    // enough to write any) make the re-run resume instead of restart.
    const std::string csv = StringField(*admit, "csv");
    StatusOr<Dataset> dataset =
        csv.empty() ? StatusOr<Dataset>(
                          Status::NotFound("admit record has no dataset"))
                    : ReadCsvString(csv);
    if (!dataset.ok()) {
      finish(JobState::kFailed,
             Status::Internal("dataset lost from journal: " +
                              dataset.status().ToString()),
             true);
      continue;
    }
    dataset->set_name(job->dataset_name);
    job->dataset = *std::move(dataset);
    tenant.queues[static_cast<size_t>(job->priority)].push_back(job);
    ++tenant.pending;
    ++num_queued_;
    JobMetrics::Get().queued->Increment();
    JobMetrics::Get().runs_recovered->Increment();
    PublishLifecycle(*job, "state");
    RunEvent restart;
    restart.type = "restart";
    restart.message =
        run.dispatched
            ? "recovered after restart: interrupted mid-run, re-queued "
              "(tuners resume from checkpoints)"
            : "recovered after restart: re-queued";
    job->events->Publish(std::move(restart));
    ++requeued;
  }

  for (auto& [batch_id, payload] : batch_records) {
    unsigned long long numeric = 0;
    if (std::sscanf(batch_id.c_str(), "batch-%llu", &numeric) == 1) {
      next_batch_id_ = std::max(next_batch_id_,
                                static_cast<uint64_t>(numeric) + 1);
    }
    StatusOr<JsonValue> parsed = ParseJson(payload);
    if (!parsed.ok() || !parsed->is_object()) continue;
    BatchSnapshot record;
    record.id = batch_id;
    record.tenant = StringField(*parsed, "tenant");
    const JsonValue* items = parsed->Find("items");
    if (items != nullptr && items->is_array()) {
      for (const JsonValue& item : items->array) {
        if (!item.is_object()) continue;
        BatchSnapshot::Item out;
        out.job_id = StringField(item, "job_id");
        out.error = StringField(item, "error");
        record.items.push_back(std::move(out));
      }
    }
    const std::string key = StringField(*parsed, "idempotency_key");
    if (!key.empty()) {
      batch_idempotency_[IdempotencyMapKey(
          record.tenant.empty() ? kDefaultTenant : record.tenant, key)] =
          batch_id;
    }
    batches_[batch_id] = std::move(record);
  }

  if (stats->records > 0 || stats->torn_records > 0) {
    SMARTML_LOG_INFO << "journal replay: " << stats->records << " records ("
                     << stats->torn_records << " torn) across "
                     << stats->segments << " segments; " << terminal_jobs
                     << " terminal jobs retained, " << requeued
                     << " re-queued";
  }
}

void JobManager::CompactJournal() {
  if (journal_ == nullptr) return;
  std::set<std::string> terminal_ids;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [id, job] : jobs_) {
      if (IsTerminal(job->state)) terminal_ids.insert(id);
    }
  }
  Status status = journal_->Compact([&](JournalRecord* record) {
    if (terminal_ids.count(record->key) == 0) return true;
    const auto type = static_cast<JobJournalRecordType>(record->type);
    if (type == JobJournalRecordType::kDispatch ||
        type == JobJournalRecordType::kCancelRequest) {
      return false;  // Subsumed by the terminal record.
    }
    if (type == JobJournalRecordType::kAdmit) {
      // Terminal jobs never need their dataset again.
      StripCsvFromAdmitPayload(&record->payload);
    }
    return true;
  });
  if (!status.ok()) {
    SMARTML_LOG_WARN << "journal compaction failed: " << status.ToString();
  }
}

}  // namespace smartml
