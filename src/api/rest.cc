#include "src/api/rest.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>

#include "src/api/job_manager.h"
#include "src/api/json.h"
#include "src/common/stopwatch.h"
#include "src/common/strings.h"
#include "src/data/csv.h"
#include "src/metafeatures/metafeature_cache.h"
#include "src/ml/registry.h"
#include "src/obs/metrics.h"
#include "src/obs/run_events.h"

namespace smartml {

namespace {

// Largest request header block (request line, headers and the blank line)
// a connection may send; past it the server answers 431 and closes.
constexpr size_t kMaxHeaderBytes = 64 * 1024;
// Largest request body. A larger Content-Length is answered 413 before any
// of the body is read, and the connection closes. 16 MiB is about 15 times
// the largest dataset upload of the end-to-end benchmark (~1 MiB).
constexpr uint64_t kMaxBodyBytes = 16 * 1024 * 1024;
// The first read window of a body; each later one doubles the body so far.
constexpr size_t kBodyWindowBytes = 64 * 1024;

std::string UrlDecode(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '%' && i + 2 < s.size()) {
      auto hex = [](char c) -> int {
        if (c >= '0' && c <= '9') return c - '0';
        if (c >= 'a' && c <= 'f') return c - 'a' + 10;
        if (c >= 'A' && c <= 'F') return c - 'A' + 10;
        return -1;
      };
      const int hi = hex(s[i + 1]);
      const int lo = hex(s[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out += static_cast<char>(hi * 16 + lo);
        i += 2;
        continue;
      }
    }
    out += s[i] == '+' ? ' ' : s[i];
  }
  return out;
}

const char* StatusText(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 202:
      return "Accepted";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 408:
      return "Request Timeout";
    case 409:
      return "Conflict";
    case 413:
      return "Content Too Large";
    case 429:
      return "Too Many Requests";
    case 431:
      return "Request Header Fields Too Large";
    case 500:
      return "Internal Server Error";
    case 501:
      return "Not Implemented";
    case 503:
      return "Service Unavailable";
    default:
      return "Unknown";
  }
}

int HttpStatusFor(const Status& status) {
  switch (status.code()) {
    case StatusCode::kInvalidArgument:
    case StatusCode::kIOError:
      return 400;
    case StatusCode::kNotFound:
      return 404;
    case StatusCode::kFailedPrecondition:
    case StatusCode::kCancelled:
      return 409;
    case StatusCode::kResourceExhausted:
      return 429;
    case StatusCode::kUnimplemented:
      return 501;
    default:
      return 500;
  }
}

/// The in-flight request's correlation id. Thread-local so ErrorResponse can
/// echo it into the envelope from any call depth without changing handler
/// signatures; one server worker drives one request at a time.
thread_local const std::string* current_request_id = nullptr;

class ScopedRequestId {
 public:
  explicit ScopedRequestId(const std::string& id) { current_request_id = &id; }
  ~ScopedRequestId() { current_request_id = nullptr; }
  ScopedRequestId(const ScopedRequestId&) = delete;
  ScopedRequestId& operator=(const ScopedRequestId&) = delete;
};

/// Per-request option overrides (the Figure 2 configuration screen),
/// applied to a copy — the shared framework options are never mutated —
/// and tagged with the request id. InvalidArgument names the malformed
/// query parameter.
StatusOr<SmartMlOptions> OptionsFromQuery(const SmartMlOptions& base,
                                          const HttpRequest& request) {
  JsonValue values;
  values.kind = JsonValue::Kind::kObject;
  for (const auto& [key, text] : request.query) {
    // A value reads as a JSON scalar ("5", "2.5", "true"); anything else
    // stays text and fails the option's type check.
    StatusOr<JsonValue> value = ParseJson(text);
    if (!value.ok()) {
      value = JsonValue{};
      value->kind = JsonValue::Kind::kString;
      value->string = text;
    }
    values.object.emplace_back(key, *std::move(value));
  }
  SmartMlOptions options = base;
  const Status status =
      ApplyRunOptions(values, RunOptionSource::kQuery, &options);
  if (!status.ok()) {
    return Status::InvalidArgument("query parameter " + status.message());
  }
  if (current_request_id != nullptr) options.trace_tag = *current_request_id;
  return options;
}

/// Writes all of `bytes` to the socket; false once the peer stops reading.
/// MSG_NOSIGNAL turns a client that hung up into an EPIPE error instead of
/// a SIGPIPE that would kill the server.
bool SendAll(int fd, const std::string& bytes) {
  size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + written,
                             bytes.size() - written, MSG_NOSIGNAL);
    if (n <= 0) return false;
    written += static_cast<size_t>(n);
  }
  return true;
}

HttpResponse JobsDisabled() {
  return ErrorResponse(503, "unavailable",
                       "async runs are disabled (no job manager)");
}

/// How much of a run a response shows: id, state and a done run's outcome
/// (DELETE /v1/runs/{id}, items of GET /v1/batches/{id}), an entry of
/// GET /v1/runs, or GET /v1/runs/{id}.
enum class RunView { kBrief, kListEntry, kFull };

/// The one serializer of a run's fields, as members of an open object.
void WriteRun(const JobSnapshot& run, RunView view, JsonWriter* w) {
  w->Key("id");
  w->String(run.id);
  w->Key("state");
  w->String(JobStateName(run.state));
  if (view != RunView::kBrief) {
    w->Key("dataset");
    w->String(run.dataset_name);
    w->Key("tenant");
    w->String(run.tenant);
    w->Key("priority");
    w->String(JobPriorityName(run.priority));
    if (!run.batch_id.empty()) {
      w->Key("batch_id");
      w->String(run.batch_id);
    }
    if (run.dispatch_sequence > 0) {
      w->Key("dispatch_sequence");
      w->Int(static_cast<int64_t>(run.dispatch_sequence));
    }
    if (view == RunView::kFull) {
      // Durability markers, reported only when set: the job survived a
      // server restart via the journal / its tuners resumed from
      // checkpoints.
      if (run.recovered) {
        w->Key("recovered");
        w->Bool(true);
      }
      if (run.resumed_from_checkpoint) {
        w->Key("resumed_from_checkpoint");
        w->Bool(true);
      }
      w->Key("events");
      w->String("/v1/runs/" + run.id + "/events");
    }
    w->Key("queue_seconds");
    w->Number(run.queue_seconds);
    w->Key("run_seconds");
    w->Number(run.run_seconds);
  }
  if (run.state == JobState::kDone) {
    w->Key("best_algorithm");
    w->String(run.best_algorithm);
    w->Key("best_validation_accuracy");
    w->Number(run.best_validation_accuracy);
    if (view != RunView::kFull) return;
    w->Key("degraded");
    w->Bool(run.degraded);
    w->Key("failed_candidates");
    w->Int(static_cast<int64_t>(run.failed_candidates));
    w->Key("phase_seconds");
    w->BeginObject();
    w->Key("preprocessing");
    w->Number(run.preprocessing_seconds);
    w->Key("selection");
    w->Number(run.selection_seconds);
    w->Key("tuning");
    w->Number(run.tuning_seconds);
    w->Key("output");
    w->Number(run.output_seconds);
    w->Key("total");
    w->Number(run.total_seconds);
    w->EndObject();
    w->Key("result");
    w->Raw(run.result_json.empty() ? "null" : run.result_json);
  } else if (view == RunView::kFull &&
             (run.state == JobState::kFailed ||
              (run.state == JobState::kCancelled && !run.error.ok()))) {
    w->Key("error");
    w->BeginObject();
    w->Key("code");
    w->String(StatusCodeSlug(run.error.code()));
    w->Key("message");
    w->String(run.error.message());
    w->EndObject();
  }
}

/// Echoes a client-supplied X-Request-Id (sanitized: printable ASCII, max
/// 64 chars) or mints a process-unique one.
std::string RequestIdFor(const HttpRequest& request) {
  auto it = request.headers.find("x-request-id");
  if (it != request.headers.end() && !it->second.empty()) {
    std::string id;
    for (char c : it->second) {
      if (c > 0x20 && c < 0x7f) id += c;
      if (id.size() >= 64) break;
    }
    if (!id.empty()) return id;
  }
  static std::atomic<uint64_t> counter{0};
  return StrFormat("req-%012llu", static_cast<unsigned long long>(
                                      counter.fetch_add(1) + 1));
}

/// A header value reduced to label-safe characters (tenant ids become
/// Prometheus label values), at most 64; empty when the header is absent.
std::string LabelSafeHeader(const HttpRequest& request, const char* name) {
  auto it = request.headers.find(name);
  if (it == request.headers.end()) return "";
  std::string out;
  for (char c : it->second) {
    if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
        (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '.') {
      out += c;
    }
    if (out.size() >= 64) break;
  }
  return out;
}

/// The tenant this request acts as (X-Tenant header, "default" otherwise).
std::string TenantFor(const HttpRequest& request) {
  const std::string tenant = LabelSafeHeader(request, "x-tenant");
  return tenant.empty() ? kDefaultTenant : tenant;
}

/// The client's at-most-once key (the Idempotency-Key header).
std::string IdempotencyKeyFor(const HttpRequest& request) {
  return LabelSafeHeader(request, "idempotency-key");
}

/// The query parameter `key`, or null when absent.
const std::string* QueryParam(const HttpRequest& request, const char* key) {
  auto it = request.query.find(key);
  return it == request.query.end() ? nullptr : &it->second;
}

/// A JSON response with `body`.
HttpResponse JsonResponse(std::string body, int status = 200) {
  HttpResponse response;
  response.status = status;
  response.body = std::move(body);
  return response;
}

void WriteRetryAfter(HttpResponse* response, double seconds) {
  response->headers["Retry-After"] =
      StrFormat("%d", std::max(1, static_cast<int>(std::ceil(seconds))));
}

}  // namespace

HttpResponse ErrorResponse(int http_status, const std::string& code,
                           const std::string& message) {
  JsonWriter w;
  w.BeginObject();
  w.Key("error");
  w.BeginObject();
  w.Key("code");
  w.String(code);
  w.Key("message");
  w.String(message);
  if (current_request_id != nullptr) {
    w.Key("request_id");
    w.String(*current_request_id);
  }
  w.EndObject();
  w.EndObject();
  return JsonResponse(std::move(w).Take(), http_status);
}

HttpResponse ErrorResponseFromStatus(const Status& status) {
  return ErrorResponse(HttpStatusFor(status), StatusCodeSlug(status.code()),
                       status.message());
}

StatusOr<HttpRequest> ParseHttpRequest(const std::string& text) {
  const size_t head_end = text.find("\r\n\r\n");
  if (head_end == std::string::npos) {
    return Status::InvalidArgument("http: incomplete header");
  }
  HttpRequest request;
  request.body = text.substr(head_end + 4);

  const std::string head = text.substr(0, head_end);
  const std::vector<std::string> lines = Split(head, '\n');
  if (lines.empty()) return Status::InvalidArgument("http: empty request");

  // Request line: METHOD SP TARGET SP VERSION.
  std::vector<std::string> parts;
  for (const std::string& token :
       Split(std::string(StripAsciiWhitespace(lines[0])), ' ')) {
    if (!token.empty()) parts.push_back(token);
  }
  if (parts.size() < 3) {
    return Status::InvalidArgument("http: malformed request line");
  }
  request.method = parts[0];
  request.version = parts[2];
  std::string target = parts[1];
  const size_t qpos = target.find('?');
  if (qpos != std::string::npos) {
    const std::string query = target.substr(qpos + 1);
    target = target.substr(0, qpos);
    for (const std::string& kv : Split(query, '&')) {
      if (kv.empty()) continue;
      const size_t eq = kv.find('=');
      if (eq == std::string::npos) {
        request.query[UrlDecode(kv)] = "";
      } else {
        request.query[UrlDecode(kv.substr(0, eq))] =
            UrlDecode(kv.substr(eq + 1));
      }
    }
  }
  request.path = UrlDecode(target);

  // Framing follows RFC 9112 §6: only Content-Length bodies are supported,
  // so any Transfer-Encoding is refused (501) instead of being mis-framed,
  // and repeated Content-Length fields must agree (400 otherwise).
  for (size_t i = 1; i < lines.size(); ++i) {
    const std::string line(StripAsciiWhitespace(lines[i]));
    const size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    const std::string name = AsciiToLower(line.substr(0, colon));
    std::string value(StripAsciiWhitespace(line.substr(colon + 1)));
    if (name == "transfer-encoding") {
      return Status::Unimplemented("http: Transfer-Encoding is not supported");
    }
    if (name == "content-length") {
      // 1*DIGIT, at most INT64_MAX so framing arithmetic cannot overflow.
      uint64_t length = 0;
      const char* end = value.data() + value.size();
      const auto parsed = std::from_chars(value.data(), end, length);
      if (parsed.ec != std::errc() || parsed.ptr != end || length > INT64_MAX) {
        return Status::InvalidArgument("http: invalid Content-Length '" +
                                       value + "'");
      }
      value = std::to_string(length);  // Canonical, for the framing loop.
      auto seen = request.headers.find(name);
      if (seen != request.headers.end() && seen->second != value) {
        return Status::InvalidArgument("http: conflicting Content-Length");
      }
    }
    request.headers[name] = std::move(value);
  }
  return request;
}

std::string SerializeHttpResponse(const HttpResponse& response,
                                  bool keep_alive) {
  std::string out = StrFormat("HTTP/1.1 %d %s\r\n", response.status,
                              StatusText(response.status));
  out += "Content-Type: " + response.content_type + "\r\n";
  for (const auto& [name, value] : response.headers) {
    out += name + ": " + value + "\r\n";
  }
  // A streamed body follows the head until the connection closes.
  if (response.stream) return out + "Connection: close\r\n\r\n";
  out += StrFormat("Content-Length: %zu\r\n", response.body.size());
  out += keep_alive ? "Connection: keep-alive\r\n\r\n"
                    : "Connection: close\r\n\r\n";
  out += response.body;
  return out;
}

// ---------------------------------------------------------------------------
// RestService
// ---------------------------------------------------------------------------

HttpResponse RestService::Handle(const HttpRequest& request) {
  const std::string request_id = RequestIdFor(request);
  ScopedRequestId id_scope(request_id);
  HttpResponse response;
  if (request.path.rfind("/v1/", 0) == 0) {
    // Routed on the path without "/v1"; the request (and its body) is not
    // copied.
    response = RouteV1(request, request.path.substr(3));
  } else {
    // The pre-v1 aliases are gone; unversioned paths get the structured
    // envelope pointing at the current surface.
    response = ErrorResponse(
        404, "not_found",
        "no route for " + request.path + " (the API is served under /v1)");
  }
  response.headers["X-Request-Id"] = request_id;
  return response;
}

HttpResponse RestService::RouteV1(const HttpRequest& request,
                                  const std::string& path) {
  if (path == "/health" && request.method == "GET") return HandleHealth();
  if (path == "/metrics" && request.method == "GET") return HandleMetrics();
  if (path == "/algorithms" && request.method == "GET") {
    return HandleAlgorithms();
  }
  if (path == "/kb" && request.method == "GET") return HandleKb();
  if (path == "/metafeatures" && request.method == "POST") {
    return HandleMetaFeatures(request);
  }
  if (path == "/select" && request.method == "POST") {
    return HandleSelectV1(request);
  }
  if (path == "/runs" && request.method == "POST") {
    return HandleSubmitRun(request);
  }
  if (path == "/runs" && request.method == "GET") {
    return HandleListRuns(request);
  }
  if (path == "/batch" && request.method == "POST") {
    return HandleSubmitBatch(request);
  }
  if (path.rfind("/batches/", 0) == 0) {
    const std::string id = path.substr(9);
    if (id.empty() || id.find('/') != std::string::npos) {
      return ErrorResponse(404, "not_found", "no route for /v1" + path);
    }
    if (request.method == "GET") return HandleGetBatch(id);
    return ErrorResponse(405, "method_not_allowed",
                         "method not allowed for /v1" + path);
  }
  if (path.rfind("/runs/", 0) == 0) {
    const std::string tail = path.substr(6);
    const size_t slash = tail.find('/');
    const std::string id = tail.substr(0, slash);
    if (id.empty()) {
      return ErrorResponse(404, "not_found", "no route for /v1" + path);
    }
    if (slash == std::string::npos) {
      if (request.method == "GET") return HandleGetRun(id);
      if (request.method == "DELETE") return HandleCancelRun(id);
      return ErrorResponse(405, "method_not_allowed",
                           "method not allowed for /v1" + path);
    }
    if (tail.substr(slash + 1) == "events") {
      if (request.method == "GET") return HandleRunEvents(request, id);
      return ErrorResponse(405, "method_not_allowed",
                           "method not allowed for /v1" + path);
    }
    return ErrorResponse(404, "not_found", "no route for /v1" + path);
  }
  for (const char* known :
       {"/health", "/metrics", "/algorithms", "/kb", "/metafeatures",
        "/select", "/runs", "/batch"}) {
    if (path == known) {
      return ErrorResponse(405, "method_not_allowed",
                           "method not allowed for /v1" + path);
    }
  }
  return ErrorResponse(404, "not_found", "no route for /v1" + path);
}

HttpResponse RestService::HandleHealth() {
  // Degraded = the process has run on a reduced path: the KB needed crash
  // recovery at load, or candidate algorithms have been failing.
  const MetricsRegistry& metrics = GlobalMetrics();
  auto count = [&metrics](const char* name, const MetricLabels& labels = {}) {
    return static_cast<int64_t>(metrics.Value(name, labels));
  };
  const bool degraded = count("smartml_kb_recoveries_total") > 0 ||
                        count("smartml_candidates_failed_total") > 0;
  JsonWriter w;
  w.BeginObject();
  w.Key("status");
  w.String(degraded ? "degraded" : "ok");
  w.Key("degraded");
  w.Bool(degraded);
  w.Key("api_version");
  w.String("v1");
  w.Key("kb_records");
  w.Int(static_cast<int64_t>(framework_->kb().NumRecords()));
  w.Key("algorithms");
  w.Int(static_cast<int64_t>(AllAlgorithms().size()));
  if (server_ != nullptr) {
    w.Key("server");
    w.BeginObject();
    w.Key("workers");
    w.Int(server_->num_workers());
    w.Key("queue_depth");
    w.Int(static_cast<int64_t>(server_->queue_depth()));
    w.Key("requests_served");
    w.Int(server_->requests_served());
    w.EndObject();
  }
  if (jobs_ != nullptr) {
    w.Key("jobs");
    w.BeginObject();
    w.Key("queued");
    w.Int(static_cast<int64_t>(jobs_->NumQueued()));
    w.Key("running");
    w.Int(static_cast<int64_t>(jobs_->NumRunning()));
    w.Key("workers");
    w.Int(jobs_->num_workers());
    w.Key("capacity");
    w.Int(static_cast<int64_t>(jobs_->max_pending_jobs()));
    w.Key("done");
    w.Int(count("smartml_jobs_total", {{"state", "done"}}));
    w.Key("failed");
    w.Int(count("smartml_jobs_total", {{"state", "failed"}}));
    w.Key("cancelling");
    w.Int(count("smartml_jobs_cancelling"));
    w.Key("cancelled");
    w.Int(count("smartml_runs_cancelled_total"));
    w.EndObject();
  }
  // Key observability gauges (from the same registry /v1/metrics exposes).
  w.Key("kb");
  w.BeginObject();
  w.Key("records");
  w.Int(static_cast<int64_t>(framework_->kb().NumRecords()));
  w.Key("updates_total");
  w.Int(count("smartml_kb_updates_total"));
  w.Key("lookups_total");
  w.Int(count("smartml_kb_lookup_seconds"));
  {
    // Lookup-index state: whether queries ride the k-d tree and how much of
    // the KB sits in the linear tail awaiting the next bounded rebuild.
    const KbIndexStats index = framework_->kb().IndexStats();
    w.Key("index");
    w.BeginObject();
    w.Key("strategy");
    switch (index.strategy) {
      case KbLookupStrategy::kAuto:
        w.String("auto");
        break;
      case KbLookupStrategy::kLinearScan:
        w.String("linear");
        break;
      case KbLookupStrategy::kKdTree:
        w.String("kdtree");
        break;
    }
    w.Key("tree_active");
    w.Bool(index.tree_active);
    w.Key("indexed_records");
    w.Int(static_cast<int64_t>(index.indexed_records));
    w.Key("tail_records");
    w.Int(static_cast<int64_t>(index.tail_records));
    w.Key("tree_depth");
    w.Int(static_cast<int64_t>(index.tree_depth));
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  return JsonResponse(std::move(w).Take());
}

HttpResponse RestService::HandleMetrics() {
  HttpResponse response;
  response.content_type = "text/plain; version=0.0.4; charset=utf-8";
  response.body = GlobalMetrics().EncodePrometheus();
  return response;
}

HttpResponse RestService::HandleAlgorithms() {
  JsonWriter w;
  w.BeginArray();
  for (const auto& info : AllAlgorithms()) {
    w.BeginObject();
    w.Key("name");
    w.String(info.name);
    w.Key("paper_name");
    w.String(info.paper_name);
    w.Key("paper_package");
    w.String(info.paper_package);
    w.Key("categorical_params");
    w.Int(static_cast<int64_t>(info.categorical_params));
    w.Key("numerical_params");
    w.Int(static_cast<int64_t>(info.numerical_params));
    w.EndObject();
  }
  w.EndArray();
  return JsonResponse(std::move(w).Take());
}

HttpResponse RestService::HandleKb() {
  return JsonResponse(KbToJson(framework_->kb()));
}

HttpResponse RestService::HandleMetaFeatures(const HttpRequest& request) {
  auto dataset = ReadCsvString(request.body);
  if (!dataset.ok()) {
    return ErrorResponseFromStatus(dataset.status());
  }
  // Memoized by dataset content hash; a repeated upload of the same CSV
  // skips the extraction.
  auto mf = MetaFeatureCache::Global().MetaFeatures(*dataset);
  if (!mf.ok()) {
    return ErrorResponseFromStatus(mf.status());
  }
  return JsonResponse(MetaFeaturesToJson(*mf));
}

HttpResponse RestService::HandleSelectV1(const HttpRequest& request) {
  // Body: {"meta_features": {"num_instances": 150, ...}} with all 25
  // features named, or the flat feature object itself.
  auto parsed = ParseJson(request.body);
  if (!parsed.ok()) {
    return ErrorResponseFromStatus(parsed.status());
  }
  if (!parsed->is_object()) {
    return ErrorResponse(400, "invalid_argument",
                         "body must be a JSON object of named meta-features");
  }
  const JsonValue* features = parsed->Find("meta_features");
  if (features == nullptr) {
    features = &*parsed;
  } else if (!features->is_object()) {
    return ErrorResponse(400, "invalid_argument",
                         "\"meta_features\" must be an object");
  }

  const auto& names = MetaFeatureNames();
  for (const auto& [key, value] : features->object) {
    if (std::find(names.begin(), names.end(), key) == names.end()) {
      return ErrorResponse(400, "invalid_argument",
                           "unknown meta-feature \"" + key + "\"");
    }
    if (!value.is_number()) {
      return ErrorResponse(400, "invalid_argument",
                           "meta-feature \"" + key + "\" must be a number");
    }
  }
  MetaFeatureVector mf{};
  std::vector<std::string> missing;
  for (size_t i = 0; i < kNumMetaFeatures; ++i) {
    const JsonValue* value = features->Find(names[i]);
    if (value == nullptr) {
      missing.push_back(names[i]);
      continue;
    }
    mf[i] = value->number;
  }
  if (!missing.empty()) {
    return ErrorResponse(
        400, "invalid_argument",
        "missing meta-features: " + Join(missing, ", "));
  }
  return JsonResponse(NominationsToJson(framework_->SelectAlgorithms(mf)));
}

HttpResponse RestService::HandleSubmitRun(const HttpRequest& request) {
  if (jobs_ == nullptr) return JobsDisabled();
  auto dataset = ReadCsvString(request.body);
  if (!dataset.ok()) {
    return ErrorResponseFromStatus(dataset.status());
  }
  const std::string* name = QueryParam(request, "name");
  dataset->set_name(name != nullptr ? *name : "api_dataset");

  JobRequest job;
  job.dataset = std::move(*dataset);
  StatusOr<SmartMlOptions> options =
      OptionsFromQuery(framework_->options(), request);
  if (!options.ok()) return ErrorResponseFromStatus(options.status());
  job.run_options = *std::move(options);
  job.tenant = TenantFor(request);
  job.idempotency_key = IdempotencyKeyFor(request);
  if (const std::string* priority = QueryParam(request, "priority")) {
    job.priority = ParseJobPriority(*priority);
  }

  // The body is journaled as received: it is the text `dataset` came from.
  auto id = jobs_->Submit(std::move(job), request.body);
  if (!id.ok()) {
    HttpResponse response = ErrorResponseFromStatus(id.status());
    if (response.status == 429) {
      WriteRetryAfter(&response, jobs_->retry_after_seconds());
    }
    return response;
  }

  JsonWriter w;
  w.BeginObject();
  w.Key("id");
  w.String(*id);
  w.Key("state");
  w.String("queued");
  w.Key("tenant");
  w.String(TenantFor(request));
  w.Key("location");
  w.String("/v1/runs/" + *id);
  w.Key("events");
  w.String("/v1/runs/" + *id + "/events");
  w.EndObject();
  HttpResponse response = JsonResponse(std::move(w).Take(), 202);
  response.headers["Location"] = "/v1/runs/" + *id;
  return response;
}

HttpResponse RestService::HandleSubmitBatch(const HttpRequest& request) {
  if (jobs_ == nullptr) return JobsDisabled();
  auto parsed = ParseJson(request.body);
  if (!parsed.ok()) {
    return ErrorResponseFromStatus(parsed.status());
  }
  const JsonValue* items = parsed->is_object() ? parsed->Find("items")
                                               : nullptr;
  if (items == nullptr || !items->is_array() || items->array.empty()) {
    return ErrorResponse(400, "invalid_argument",
                         "body must be {\"items\": [{\"csv\": ...}, ...]}");
  }
  constexpr size_t kMaxBatchItems = 64;
  if (items->array.size() > kMaxBatchItems) {
    return ErrorResponse(400, "invalid_argument",
                         StrFormat("batch too large (%zu items, cap %zu)",
                                   items->array.size(), kMaxBatchItems));
  }

  // Every item must parse before anything is admitted: the batch either
  // reaches the scheduler whole or not at all (admission itself may still
  // reject individual items on quota).
  const std::string tenant = TenantFor(request);
  const StatusOr<SmartMlOptions> base =
      OptionsFromQuery(framework_->options(), request);
  if (!base.ok()) return ErrorResponseFromStatus(base.status());
  std::vector<JobRequest> requests;
  std::vector<std::string_view> csvs;
  for (size_t i = 0; i < items->array.size(); ++i) {
    const JsonValue& item = items->array[i];
    if (!item.is_object()) {
      return ErrorResponse(400, "invalid_argument",
                           StrFormat("items[%zu] must be an object", i));
    }
    const JsonValue* csv = item.Find("csv");
    if (csv == nullptr || !csv->is_string()) {
      return ErrorResponse(
          400, "invalid_argument",
          StrFormat("items[%zu] is missing its \"csv\" string", i));
    }
    auto dataset = ReadCsvString(csv->string);
    if (!dataset.ok()) {
      return ErrorResponse(400, "invalid_argument",
                           StrFormat("items[%zu]: %s", i,
                                     dataset.status().message().c_str()));
    }
    JobRequest job;
    job.dataset = std::move(*dataset);
    csvs.push_back(csv->string);
    job.run_options = *base;
    job.tenant = tenant;
    job.priority = JobPriority::kBatch;
    if (const JsonValue* v = item.Find("name")) {
      if (v->is_string()) job.dataset.set_name(v->string);
    }
    if (job.dataset.name().empty()) {
      job.dataset.set_name(StrFormat("batch_item_%zu", i));
    }
    if (const JsonValue* v = item.Find("priority")) {
      if (v->is_string()) job.priority = ParseJobPriority(v->string);
    }
    const Status overrides = ApplyRunOptions(
        item, RunOptionSource::kBatchItem, &job.run_options);
    if (!overrides.ok()) {
      return ErrorResponse(400, "invalid_argument",
                           StrFormat("items[%zu]: %s", i,
                                     overrides.message().c_str()));
    }
    requests.push_back(std::move(job));
  }

  auto batch = jobs_->SubmitBatch(std::move(requests),
                                  IdempotencyKeyFor(request), csvs);
  if (!batch.ok()) {
    return ErrorResponseFromStatus(batch.status());
  }

  size_t admitted = 0;
  bool shed = false;
  for (const auto& item : batch->items) {
    if (item.ok()) {
      ++admitted;
    } else if (item.status().code() == StatusCode::kResourceExhausted) {
      shed = true;
    }
  }
  if (admitted == 0 && shed) {
    // Nothing got in and at least one rejection was capacity/quota: the
    // whole call is a 429 the client should retry later.
    HttpResponse response = ErrorResponse(
        429, "resource_exhausted",
        StrFormat("no batch items admitted (%zu rejected)",
                  batch->items.size()));
    WriteRetryAfter(&response, jobs_->retry_after_seconds());
    return response;
  }

  JsonWriter w;
  w.BeginObject();
  w.Key("id");
  w.String(batch->batch_id);
  w.Key("tenant");
  w.String(tenant);
  w.Key("location");
  w.String("/v1/batches/" + batch->batch_id);
  w.Key("admitted");
  w.Int(static_cast<int64_t>(admitted));
  w.Key("items");
  w.BeginArray();
  for (size_t i = 0; i < batch->items.size(); ++i) {
    const auto& item = batch->items[i];
    w.BeginObject();
    w.Key("index");
    w.Int(static_cast<int64_t>(i));
    if (item.ok()) {
      w.Key("id");
      w.String(*item);
      w.Key("location");
      w.String("/v1/runs/" + *item);
      w.Key("events");
      w.String("/v1/runs/" + *item + "/events");
    } else {
      w.Key("error");
      w.BeginObject();
      w.Key("code");
      w.String(StatusCodeSlug(item.status().code()));
      w.Key("message");
      w.String(item.status().message());
      w.EndObject();
    }
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  HttpResponse response = JsonResponse(std::move(w).Take(), 202);
  response.headers["Location"] = "/v1/batches/" + batch->batch_id;
  if (admitted < batch->items.size() && shed) {
    WriteRetryAfter(&response, jobs_->retry_after_seconds());
  }
  return response;
}

HttpResponse RestService::HandleGetBatch(const std::string& id) {
  if (jobs_ == nullptr) return JobsDisabled();
  auto batch = jobs_->GetBatch(id);
  if (!batch.ok()) {
    return ErrorResponseFromStatus(batch.status());
  }
  JsonWriter w;
  w.BeginObject();
  w.Key("id");
  w.String(batch->id);
  w.Key("tenant");
  w.String(batch->tenant);
  w.Key("items");
  w.BeginArray();
  for (size_t i = 0; i < batch->items.size(); ++i) {
    const auto& item = batch->items[i];
    w.BeginObject();
    w.Key("index");
    w.Int(static_cast<int64_t>(i));
    if (item.job_id.empty()) {
      w.Key("error");
      w.String(item.error);
    } else if (auto run = jobs_->Get(item.job_id); run.ok()) {
      WriteRun(*run, RunView::kBrief, &w);
    } else {
      w.Key("id");
      w.String(item.job_id);
    }
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return JsonResponse(std::move(w).Take());
}

HttpResponse RestService::HandleListRuns(const HttpRequest& request) {
  if (jobs_ == nullptr) return JobsDisabled();
  JobFilter filter;
  if (const std::string* v = QueryParam(request, "status")) filter.status = *v;
  if (const std::string* v = QueryParam(request, "tenant")) filter.tenant = *v;
  if (const std::string* v = QueryParam(request, "after")) filter.after_id = *v;
  size_t limit = 50;
  if (const std::string* v = QueryParam(request, "limit")) {
    const int parsed_limit = std::atoi(v->c_str());
    if (parsed_limit > 0) limit = static_cast<size_t>(parsed_limit);
  }
  filter.limit = std::min<size_t>(limit, 200);

  const std::vector<JobSnapshot> runs = jobs_->List(filter);
  JsonWriter w;
  w.BeginObject();
  w.Key("runs");
  w.BeginArray();
  for (const JobSnapshot& run : runs) {
    w.BeginObject();
    WriteRun(run, RunView::kListEntry, &w);
    w.EndObject();
  }
  w.EndArray();
  // Cursor: re-issue the query with after=<cursor> for the next page. Only
  // present when this page was full (there may be more).
  if (filter.limit > 0 && runs.size() >= filter.limit) {
    w.Key("next");
    w.String(runs.back().id);
  }
  w.EndObject();
  return JsonResponse(std::move(w).Take());
}

namespace {

/// One SSE frame: "id: N\nevent: <type>\ndata: {json}\n\n".
std::string SseFrame(const RunEvent& event) {
  JsonWriter w;
  w.BeginObject();
  w.Key("type");
  w.String(event.type);
  w.Key("at_seconds");
  w.Number(event.at_seconds);
  if (!event.phase.empty()) {
    w.Key("phase");
    w.String(event.phase);
  }
  if (!event.algorithm.empty()) {
    w.Key("algorithm");
    w.String(event.algorithm);
  }
  if (event.type == "incumbent" || event.type == "terminal") {
    w.Key("value");
    w.Number(event.value);
  }
  if (!event.message.empty()) {
    w.Key("message");
    w.String(event.message);
  }
  w.EndObject();
  return StrFormat("id: %llu\nevent: %s\ndata: %s\n\n",
                   static_cast<unsigned long long>(event.id),
                   event.type.c_str(), std::move(w).Take().c_str());
}

}  // namespace

HttpResponse RestService::HandleRunEvents(const HttpRequest& request,
                                          const std::string& id) {
  if (jobs_ == nullptr) return JobsDisabled();
  auto buffer = jobs_->Events(id);
  if (!buffer.ok()) {
    return ErrorResponseFromStatus(buffer.status());
  }

  // Resume point: the standard Last-Event-ID header, or ?after= for
  // clients that cannot set headers.
  uint64_t last_seen = 0;
  auto header = request.headers.find("last-event-id");
  if (header != request.headers.end()) {
    last_seen = std::strtoull(header->second.c_str(), nullptr, 10);
  } else if (const std::string* after = QueryParam(request, "after")) {
    last_seen = std::strtoull(after->c_str(), nullptr, 10);
  }

  struct StreamState {
    std::shared_ptr<RunEventBuffer> buffer;
    uint64_t last_seen = 0;
    bool gap_checked = false;
    Stopwatch since_write;
  };
  auto state = std::make_shared<StreamState>();
  state->buffer = *buffer;
  state->last_seen = last_seen;

  HttpResponse response;
  response.content_type = "text/event-stream";
  response.headers["Cache-Control"] = "no-cache";
  // Each pull waits at most 250ms, so the server's drain check between
  // pulls stays responsive however quiet the run is.
  response.stream = [state](std::string* chunk) -> bool {
    chunk->clear();
    if (!state->gap_checked) {
      state->gap_checked = true;
      // SSE reconnection hint: clients that lose the connection (say, to a
      // server restart) should wait ~2s, then reconnect with Last-Event-ID.
      *chunk += "retry: 2000\n\n";
      const uint64_t oldest = state->buffer->oldest_id();
      // Resuming past the ring's retention (or events already evicted for a
      // fresh reader): tell the client instead of silently skipping.
      const uint64_t resume_from = state->last_seen + 1;
      if (oldest > resume_from && state->buffer->dropped() > 0) {
        *chunk += StrFormat(
            "event: gap\ndata: {\"first_retained\":%llu,\"dropped\":%llu}"
            "\n\n",
            static_cast<unsigned long long>(oldest),
            static_cast<unsigned long long>(state->buffer->dropped()));
      }
    }
    state->buffer->Wait(state->last_seen, 0.25);
    for (const RunEvent& event : state->buffer->After(state->last_seen)) {
      *chunk += SseFrame(event);
      state->last_seen = event.id;
    }
    if (!chunk->empty()) {
      state->since_write.Restart();
      return true;
    }
    if (state->buffer->closed() &&
        state->buffer->last_id() <= state->last_seen) {
      return false;  // Terminal event delivered; stream complete.
    }
    if (state->since_write.ElapsedSeconds() >= 10.0) {
      // SSE comment heartbeat: keeps proxies and clients from timing out a
      // quiet stream, invisible to EventSource consumers.
      *chunk = ": keep-alive\n\n";
      state->since_write.Restart();
    }
    return true;
  };
  return response;
}

HttpResponse RestService::HandleGetRun(const std::string& id) {
  if (jobs_ == nullptr) return JobsDisabled();
  auto snapshot = jobs_->Get(id);
  if (!snapshot.ok()) {
    return ErrorResponseFromStatus(snapshot.status());
  }
  JsonWriter w;
  w.BeginObject();
  WriteRun(*snapshot, RunView::kFull, &w);
  w.EndObject();
  return JsonResponse(std::move(w).Take());
}

HttpResponse RestService::HandleCancelRun(const std::string& id) {
  if (jobs_ == nullptr) return JobsDisabled();
  auto snapshot = jobs_->Cancel(id);
  if (!snapshot.ok()) {
    return ErrorResponseFromStatus(snapshot.status());
  }
  // Queued jobs cancel synchronously (200, terminal "cancelled"); running
  // jobs cancel cooperatively (202, "cancelling" until the experiment
  // thread observes the token). Repeating the DELETE is idempotent.
  JsonWriter w;
  w.BeginObject();
  WriteRun(*snapshot, RunView::kBrief, &w);
  w.EndObject();
  return JsonResponse(std::move(w).Take(),
                      snapshot->state == JobState::kCancelling ? 202 : 200);
}

// ---------------------------------------------------------------------------
// HttpServer
// ---------------------------------------------------------------------------

namespace {

// Resolved once against the global registry; every member is a stable
// pointer whose updates are plain atomics.
struct HttpMetrics {
  /// Indexed by status class - 2 ("2xx" .. "5xx").
  Counter* requests_by_class[4];
  Histogram* request_seconds;
  Gauge* queue_depth;
  Counter* shed;
  Counter* keepalive_reuses;

  HttpMetrics() {
    MetricsRegistry& registry = GlobalMetrics();
    static const char* kClasses[] = {"2xx", "3xx", "4xx", "5xx"};
    for (int c = 0; c < 4; ++c) {
      requests_by_class[c] = registry.GetCounter(
          "smartml_requests_total", "HTTP responses by status class.",
          {{"code", kClasses[c]}});
    }
    request_seconds = registry.GetHistogram(
        "smartml_request_seconds",
        "End-to-end request latency (read, handle, write).", LatencyBuckets());
    queue_depth = registry.GetGauge(
        "smartml_http_queue_depth",
        "Accepted connections waiting for a worker.");
    shed = registry.GetCounter(
        "smartml_http_shed_total",
        "Connections rejected with 503 because the queue was full.");
    keepalive_reuses = registry.GetCounter(
        "smartml_http_keepalive_reuses_total",
        "Requests served on an already-open keep-alive connection.");
  }

  static const HttpMetrics& Get() {
    static const HttpMetrics metrics;
    return metrics;
  }
};

}  // namespace

HttpServer::HttpServer(RestService* service, HttpServerOptions options)
    : service_(service), options_(options) {
  options_.num_workers = std::max(options_.num_workers, 1);
  options_.max_queued_connections =
      std::max<size_t>(options_.max_queued_connections, 1);
  options_.max_requests_per_connection =
      std::max(options_.max_requests_per_connection, 1);
  options_.keepalive_idle_timeout_seconds =
      std::max(options_.keepalive_idle_timeout_seconds, 0.0);
  // Registers the transport families before the first scrape can run.
  HttpMetrics::Get();
}

HttpServer::~HttpServer() {
  Stop();
  // Serve() joins its workers before returning; by contract the caller
  // joins the thread running Serve() before destroying the server.
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

StatusOr<int> HttpServer::Bind(int port) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Status::Internal("socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return Status::Internal("bind() failed");
  }
  const int backlog =
      static_cast<int>(options_.max_queued_connections) +
      options_.num_workers;
  if (::listen(listen_fd_, backlog) < 0) {
    return Status::Internal("listen() failed");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) <
      0) {
    return Status::Internal("getsockname() failed");
  }
  port_ = ntohs(addr.sin_port);
  return port_;
}

size_t HttpServer::queue_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pending_.size();
}

Status HttpServer::Serve(int max_requests) {
  if (listen_fd_ < 0) {
    return Status::FailedPrecondition("HttpServer: Bind() first");
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    draining_ = false;
  }
  workers_.clear();
  workers_.reserve(static_cast<size_t>(options_.num_workers));
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }

  // 503 shed response, serialized once.
  const std::string shed_wire = SerializeHttpResponse(ErrorResponse(
      503, "unavailable", "server overloaded; connection queue full"));

  Status status = Status::OK();
  while (!stopping_.load()) {
    if (max_requests > 0 && served_.load() >= max_requests) break;
    // Half-second accept timeout so Stop() is honoured promptly.
    timeval tv{};
    tv.tv_usec = 500000;
    fd_set fds;
    FD_ZERO(&fds);
    FD_SET(listen_fd_, &fds);
    const int ready = ::select(listen_fd_ + 1, &fds, nullptr, nullptr, &tv);
    if (ready < 0) {
      if (errno == EINTR) continue;
      status = Status::Internal("select() failed");
      break;
    }
    if (ready == 0) continue;

    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) continue;

    // Per-connection I/O timeouts: a stalled client gets dropped instead of
    // pinning a worker thread forever.
    timeval io{};
    io.tv_sec = static_cast<time_t>(options_.io_timeout_seconds);
    io.tv_usec = static_cast<suseconds_t>(
        (options_.io_timeout_seconds - static_cast<double>(io.tv_sec)) * 1e6);
    ::setsockopt(client, SOL_SOCKET, SO_RCVTIMEO, &io, sizeof(io));
    ::setsockopt(client, SOL_SOCKET, SO_SNDTIMEO, &io, sizeof(io));

    bool shed = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (pending_.size() >= options_.max_queued_connections) {
        shed = true;
      } else {
        pending_.push_back(client);
        HttpMetrics::Get().queue_depth->Set(
            static_cast<int64_t>(pending_.size()));
      }
    }
    if (shed) {
      // Load shedding on the accept thread — cheap, never blocks long
      // thanks to SO_SNDTIMEO.
      (void)SendAll(client, shed_wire);
      ::close(client);
      HttpMetrics::Get().shed->Increment();
      HttpMetrics::Get().requests_by_class[5 - 2]->Increment();
    } else {
      queue_cv_.notify_one();
    }
  }

  // Graceful drain: no new connections; queued and in-flight requests
  // finish, then the workers exit.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    draining_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  return status;
}

void HttpServer::Stop() {
  stopping_.store(true);
  queue_cv_.notify_all();
}

void HttpServer::WorkerLoop() {
  for (;;) {
    int client = -1;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      queue_cv_.wait(lock, [&] { return draining_ || !pending_.empty(); });
      if (pending_.empty()) return;  // Draining and nothing left.
      client = pending_.front();
      pending_.pop_front();
      HttpMetrics::Get().queue_depth->Set(
          static_cast<int64_t>(pending_.size()));
    }
    HandleConnection(client);
  }
}

void HttpServer::HandleConnection(int client) {
  // Serves a sequence of requests on one connection (HTTP/1.1 keep-alive;
  // pipelined requests are consumed back-to-back). `data` carries bytes
  // read past the current request's framing into the next iteration.
  std::string data;
  char buffer[8192];
  int requests_on_connection = 0;
  bool keep_alive = true;
  while (keep_alive) {
    // Between requests, wait for the next byte in short ticks so a server
    // drain (Stop() / max_requests reached) closes idle connections
    // promptly instead of holding a worker for the full idle timeout.
    if (requests_on_connection > 0 && data.empty()) {
      bool readable = false;
      for (double waited = 0.0;
           waited < options_.keepalive_idle_timeout_seconds; waited += 0.1) {
        if (stopping_.load() || draining_.load()) break;
        fd_set fds;
        FD_ZERO(&fds);
        FD_SET(client, &fds);
        timeval tick{};
        tick.tv_usec = 100000;
        const int ready = ::select(client + 1, &fds, nullptr, nullptr, &tick);
        if (ready > 0) {
          readable = true;
          break;
        }
        if (ready < 0 && errno != EINTR) break;
      }
      if (!readable) break;  // Idle timeout or drain: quiet close.
    }

    ScopedTimer latency_timer(HttpMetrics::Get().request_seconds);
    // Read until the header block has arrived, parse it once, then read its
    // Content-Length body (or until the socket times out / the client goes
    // away). ParseHttpRequest validated and canonicalized Content-Length.
    // Each terminator search resumes where the previous one stopped. The
    // body's bytes that came with the header move into `body`, and the rest
    // is read straight from the socket into it, so `data` holds only bytes
    // past this request.
    StatusOr<HttpRequest> parsed =
        Status::InvalidArgument("http: incomplete header");
    bool have_header = false;
    std::string body;
    size_t content_length = 0;
    size_t body_received = 0;
    size_t scanned = 0;
    bool timed_out = false;
    bool peer_closed = false;
    int too_large = 0;  // 431 or 413 when a size cap is exceeded.
    for (;;) {
      if (!have_header) {
        const size_t head_end = data.find("\r\n\r\n", scanned);
        scanned = data.size() < 3 ? 0 : data.size() - 3;
        if ((head_end == std::string::npos ? data.size() : head_end + 4) >
            kMaxHeaderBytes) {
          too_large = 431;
          break;
        }
        if (head_end != std::string::npos) {
          have_header = true;
          const size_t body_start = head_end + 4;
          parsed = ParseHttpRequest(data.substr(0, body_start));
          if (parsed.ok() && parsed->headers.count("content-length") > 0) {
            const uint64_t length =
                std::stoull(parsed->headers["content-length"]);
            if (length > kMaxBodyBytes) {
              too_large = 413;
              break;
            }
            content_length = static_cast<size_t>(length);
          }
          // Reserved, so the body never moves. Its size grows with what
          // arrives, so a client that only announces a length holds little.
          body.reserve(content_length);
          body_received = std::min(content_length, data.size() - body_start);
          body.assign(data, body_start, body_received);
          data.erase(0, body_start + body_received);
        }
      }
      if (have_header && body_received == content_length) break;
      if (have_header && body_received == body.size()) {
        body.resize(std::min(content_length,
                             std::max(2 * body.size(), kBodyWindowBytes)));
      }
      const ssize_t n =
          have_header ? ::read(client, body.data() + body_received,
                               body.size() - body_received)
                      : ::read(client, buffer, sizeof(buffer));
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        timed_out = true;
        break;
      }
      if (n <= 0) {
        peer_closed = true;
        break;
      }
      if (have_header) {
        body_received += static_cast<size_t>(n);
      } else {
        data.append(buffer, static_cast<size_t>(n));
      }
    }
    // The peer hung up with no request in flight: quiet close.
    if (peer_closed && !have_header && data.empty()) break;

    HttpResponse response;
    bool framed_ok = false;
    HttpRequest request;
    if (too_large == 431) {
      response = ErrorResponse(
          431, "header_too_large",
          StrFormat("request header block exceeds %zu bytes",
                    kMaxHeaderBytes));
    } else if (too_large == 413) {
      response = ErrorResponse(
          413, "payload_too_large",
          StrFormat("request body exceeds %llu bytes",
                    static_cast<unsigned long long>(kMaxBodyBytes)));
    } else if (timed_out) {
      response = ErrorResponse(
          408, "request_timeout",
          "client did not send a complete request in time");
    } else if (!parsed.ok()) {
      // A torn or malformed header block, or framing it refuses.
      response = ErrorResponseFromStatus(parsed.status());
    } else if (peer_closed) {
      response = ErrorResponse(400, "invalid_argument",
                               "connection closed mid-request");
    } else {
      framed_ok = true;
      request = std::move(*parsed);
      request.body = std::move(body);
      response = service_->Handle(request);
    }

    ++requests_on_connection;
    if (requests_on_connection > 1) {
      HttpMetrics::Get().keepalive_reuses->Increment();
    }

    // Keep-alive decision: HTTP/1.1 defaults to keep, HTTP/1.0 and
    // `Connection: close` to close; framing errors, streamed responses, the
    // per-connection request cap and a draining server always close.
    keep_alive = framed_ok && !response.stream;
    if (keep_alive) {
      if (request.version == "HTTP/1.0") keep_alive = false;
      auto it = request.headers.find("connection");
      if (it != request.headers.end() &&
          AsciiToLower(it->second) == "close") {
        keep_alive = false;
      }
    }
    if (requests_on_connection >= options_.max_requests_per_connection ||
        stopping_.load() || draining_.load()) {
      keep_alive = false;
    }

    const int status_class = response.status / 100;
    if (status_class >= 2 && status_class <= 5) {
      HttpMetrics::Get().requests_by_class[status_class - 2]->Increment();
    }
    // Count before writing: a client that reads the response must be able
    // to observe the updated requests_served().
    served_.fetch_add(1);
    if (!SendAll(client, SerializeHttpResponse(response, keep_alive))) {
      break;  // Client stopped reading.
    }
    if (response.stream) {
      // Streaming (SSE) response: the connection is dedicated to the stream
      // from here on (any pipelined follow-up bytes are discarded) and
      // closes when it ends. A client that disconnects mid-stream surfaces
      // as a send error; the loop then drops the puller, releasing its
      // event-buffer reference.
      std::string chunk;
      bool writable = true;
      while (writable && !stopping_.load() && !draining_.load()) {
        const bool more = response.stream(&chunk);
        if (!chunk.empty()) writable = SendAll(client, chunk);
        if (!more) break;
      }
      break;
    }
  }
  ::close(client);
}

}  // namespace smartml
