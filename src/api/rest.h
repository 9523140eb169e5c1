// RESTful API (the paper: SmartML "is also designed to be programming
// language agnostic so that it can be embedded in any programming language
// using its available REST APIs").
//
// Two layers:
//   * RestService — pure request->response routing over a SmartML instance
//     (and an optional JobManager for async runs), fully testable without
//     sockets. Thread-safe: handlers never mutate shared framework state.
//   * HttpServer  — a small HTTP/1.1 server (POSIX sockets) with an accept
//     loop feeding a fixed pool of worker threads over a bounded queue, so
//     one slow request cannot starve other clients. Per-connection
//     read/write timeouts keep stalled clients from pinning a worker.
//     Connections are kept alive across requests (HTTP/1.1 default,
//     pipelining included) up to a bounded request count and idle timeout;
//     `Connection: close` and HTTP/1.0 requests close after one response.
//     Every write goes through one MSG_NOSIGNAL send loop, so a client that
//     hangs up costs only its own connection.
//
// Versioned v1 routes (all non-2xx responses carry the uniform envelope
// {"error":{"code":"...","message":"...","request_id":"..."}}; every
// response carries an X-Request-Id header, echoed from the client's when
// sent):
//   GET    /v1/health                 -> live server state (workers, queue
//                                        depth, job counts, KB size)
//   GET    /v1/algorithms             -> the 15 algorithms + param counts
//   GET    /v1/kb                     -> knowledge-base dump (snapshot)
//   POST   /v1/metafeatures (CSV)     -> the 25 meta-features
//   POST   /v1/select       (JSON)    -> nominations; body is
//                                        {"meta_features": {name: value}}
//                                        (or the flat object itself)
//   POST   /v1/runs         (CSV)     -> 202 + {"id": ...}; async job
//          query params: name=, budget=SECONDS, evals=N, selection_only=1,
//                        ensemble=0, interpretability=0, nominations=K,
//                        priority=interactive|normal|batch (a malformed
//                        option value is a 400 naming the parameter)
//   GET    /v1/runs                   -> job list; filters status=, tenant=,
//                                        cursor pagination after=/limit=
//   GET    /v1/runs/{id}              -> queued|running|done|failed|
//                                        cancelled (+ result when done)
//   GET    /v1/runs/{id}/events       -> SSE stream of state/phase/
//                                        incumbent/terminal events
//                                        (Last-Event-ID resume)
//   DELETE /v1/runs/{id}              -> cancels a queued/running job
//   POST   /v1/batch        (JSON)    -> admits many datasets in one
//                                        scheduler pass; per-item run ids
//   GET    /v1/batches/{id}           -> per-item states of a past batch
//
// Multi-tenancy: the X-Tenant header names the caller's tenant ("default"
// when absent); admission is fair-share weighted round-robin with
// per-tenant quotas, and quota exhaustion surfaces as 429 + Retry-After
// exactly like global overload. The pre-versioning route aliases were
// removed; unversioned paths get the structured 404 envelope.
#ifndef SMARTML_API_REST_H_
#define SMARTML_API_REST_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/status.h"
#include "src/core/smartml.h"

namespace smartml {

class HttpServer;
class JobManager;

struct HttpRequest {
  std::string method;   // "GET", "POST", ...
  std::string path;     // "/v1/runs" (query string stripped).
  std::string version;  // "HTTP/1.1" (drives the keep-alive default).
  std::map<std::string, std::string> query;
  std::map<std::string, std::string> headers;  // Lower-cased keys.
  std::string body;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  /// Extra response headers (Retry-After, Location, X-Request-Id, ...).
  std::map<std::string, std::string> headers;
  std::string body;
  /// Streaming body (SSE). When set, `body` is ignored: the server writes
  /// the header block without Content-Length (Connection: close) and then
  /// repeatedly calls this puller. Each call may block briefly (<= ~250ms)
  /// waiting for data, appends zero or more complete frames to `chunk`, and
  /// returns false once the stream is finished. The connection is dedicated
  /// to the stream from then on and closes when it ends.
  std::function<bool(std::string* chunk)> stream;
};

/// Parses the head+body of an HTTP/1.1 request. `text` must contain the
/// complete request (the server layer handles framing via Content-Length).
StatusOr<HttpRequest> ParseHttpRequest(const std::string& text);

/// Serializes a response with Content-Length framing. `keep_alive` selects
/// the Connection header ("keep-alive" vs "close").
std::string SerializeHttpResponse(const HttpResponse& response,
                                  bool keep_alive = false);

/// Builds the uniform v1 error envelope
/// {"error":{"code":"<slug>","message":"...","request_id":"..."}}. The
/// request id is filled from the in-flight request's scope (omitted when
/// called outside RestService::Handle).
HttpResponse ErrorResponse(int http_status, const std::string& code,
                           const std::string& message);

/// Envelope from a Status, with the HTTP status derived from the code.
HttpResponse ErrorResponseFromStatus(const Status& status);

/// The routing layer. Handlers are thread-safe (the KB is internally
/// synchronized and per-request option overrides never touch the shared
/// SmartML options), so one RestService may be driven by many server
/// workers concurrently.
class RestService {
 public:
  /// `framework` must outlive the service. Without a JobManager, POST
  /// /v1/runs responds 503 (async execution disabled); everything else
  /// works. GET /v1/metrics exposes the process registry (`GlobalMetrics()`),
  /// and /v1/health reads its counters from it without registering any.
  explicit RestService(SmartML* framework, JobManager* jobs = nullptr)
      : framework_(framework), jobs_(jobs) {}

  HttpResponse Handle(const HttpRequest& request);

  /// Lets /v1/health report transport stats (worker count, queue depth).
  void set_http_server(const HttpServer* server) { server_ = server; }

 private:
  /// Dispatches a /v1 request; `path` is its path without "/v1".
  HttpResponse RouteV1(const HttpRequest& request, const std::string& path);

  HttpResponse HandleHealth();
  HttpResponse HandleMetrics();
  HttpResponse HandleAlgorithms();
  HttpResponse HandleKb();
  HttpResponse HandleMetaFeatures(const HttpRequest& request);
  HttpResponse HandleSelectV1(const HttpRequest& request);
  HttpResponse HandleSubmitRun(const HttpRequest& request);
  HttpResponse HandleSubmitBatch(const HttpRequest& request);
  HttpResponse HandleGetBatch(const std::string& id);
  HttpResponse HandleListRuns(const HttpRequest& request);
  HttpResponse HandleGetRun(const std::string& id);
  HttpResponse HandleRunEvents(const HttpRequest& request,
                               const std::string& id);
  HttpResponse HandleCancelRun(const std::string& id);

  SmartML* framework_;
  JobManager* jobs_;
  const HttpServer* server_ = nullptr;
};

struct HttpServerOptions {
  /// Handler threads. The accept loop itself runs on the Serve() caller.
  int num_workers = 4;
  /// Accepted connections waiting for a worker before the server sheds
  /// load with 503.
  size_t max_queued_connections = 64;
  /// Per-connection socket read/write timeout; a stalled client is dropped
  /// (408) instead of pinning a worker forever.
  double io_timeout_seconds = 10.0;
  /// Requests served on one connection before the server closes it
  /// (bounds how long a chatty client can pin a worker). >= 1.
  int max_requests_per_connection = 100;
  /// How long a keep-alive connection may sit idle between requests before
  /// the server closes it quietly.
  double keepalive_idle_timeout_seconds = 5.0;
};

/// HTTP server on 127.0.0.1:`port` (0 = ephemeral) with a fixed worker
/// pool. Stop() drains gracefully: queued and in-flight requests finish,
/// then Serve() returns.
class HttpServer {
 public:
  explicit HttpServer(RestService* service, HttpServerOptions options = {});
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds and listens; returns the bound port. Call before Serve().
  StatusOr<int> Bind(int port);

  /// Runs the accept loop on the calling thread (workers are spawned
  /// internally). Returns after Stop() — or once `max_requests` > 0
  /// responses have been fully written (useful for tests); 0 = unlimited.
  Status Serve(int max_requests = 0);

  /// Signals Serve() to drain and return (safe from another thread).
  void Stop();

  int port() const { return port_; }
  int num_workers() const { return options_.num_workers; }

  /// Accepted connections currently waiting for a worker.
  size_t queue_depth() const;

  /// Requests fully served since Bind().
  int64_t requests_served() const { return served_.load(); }

 private:
  void WorkerLoop();
  void HandleConnection(int client_fd);

  RestService* service_;
  HttpServerOptions options_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stopping_{false};
  std::atomic<int64_t> served_{0};

  mutable std::mutex mutex_;
  std::condition_variable queue_cv_;
  std::deque<int> pending_;  // Accepted fds awaiting a worker.
  /// Workers exit once pending_ is empty. Written under mutex_ (for the
  /// condition variable); atomic so idle keep-alive waits can poll it
  /// without taking the queue lock.
  std::atomic<bool> draining_{false};
  std::vector<std::thread> workers_;
};

}  // namespace smartml

#endif  // SMARTML_API_REST_H_
