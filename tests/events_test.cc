// Tests for the run-event subsystem and its SSE serving path: the bounded
// RunEventBuffer (ids, eviction, Wait/Close), the thread-local event scope
// (including propagation through ParallelFor strands), and GET
// /v1/runs/{id}/events over real loopback sockets — streaming after
// keep-alive pipelining, client disconnect mid-stream releasing the buffer,
// and Last-Event-ID resume.
//
// Socket tests are written to be ThreadSanitizer-friendly: modest thread
// counts, and polling loops bounded by deadlines instead of bare sleeps.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/api/job_manager.h"
#include "src/api/json.h"
#include "src/api/rest.h"
#include "src/common/thread_pool.h"
#include "src/data/csv.h"
#include "src/data/synthetic.h"
#include "src/obs/run_events.h"
#include "tests/loopback_client.h"

namespace smartml {
namespace {

// ---------------------------------------------------------------------------
// RunEventBuffer
// ---------------------------------------------------------------------------

RunEvent Incumbent(double value) {
  RunEvent event;
  event.type = "incumbent";
  event.value = value;
  return event;
}

TEST(RunEventBufferTest, PublishAssignsMonotoneIdsFromOne) {
  RunEventBuffer buffer(8);
  buffer.Publish(Incumbent(0.5));
  buffer.Publish(Incumbent(0.4));
  EXPECT_EQ(buffer.last_id(), 2u);
  const auto events = buffer.After(0);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].id, 1u);
  EXPECT_EQ(events[1].id, 2u);
  EXPECT_DOUBLE_EQ(events[1].value, 0.4);
  // After() is a cursor, not a drain: re-reading yields the same events.
  EXPECT_EQ(buffer.After(0).size(), 2u);
  EXPECT_EQ(buffer.After(1).size(), 1u);
  EXPECT_TRUE(buffer.After(2).empty());
}

TEST(RunEventBufferTest, EvictsOldestPastCapacity) {
  RunEventBuffer buffer(3);
  for (int i = 0; i < 5; ++i) buffer.Publish(Incumbent(i));
  EXPECT_EQ(buffer.dropped(), 2u);
  EXPECT_EQ(buffer.oldest_id(), 3u);
  const auto events = buffer.After(0);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events.front().id, 3u);
  EXPECT_EQ(events.back().id, 5u);
}

TEST(RunEventBufferTest, WaitWakesOnPublishAndOnClose) {
  RunEventBuffer buffer(8);
  std::thread publisher([&] { buffer.Publish(Incumbent(0.9)); });
  EXPECT_TRUE(buffer.Wait(0, /*timeout_seconds=*/30.0));
  publisher.join();

  std::thread closer([&] { buffer.Close(); });
  // Nothing beyond id 1 will ever arrive; Close() must still wake us.
  EXPECT_TRUE(buffer.Wait(1, /*timeout_seconds=*/30.0));
  closer.join();
  EXPECT_TRUE(buffer.closed());
}

TEST(RunEventBufferTest, PublishAfterCloseIsDropped) {
  RunEventBuffer buffer(8);
  buffer.Publish(Incumbent(0.9));
  buffer.Close();
  buffer.Publish(Incumbent(0.1));
  EXPECT_EQ(buffer.last_id(), 1u);
  EXPECT_EQ(buffer.After(0).size(), 1u);
}

// ---------------------------------------------------------------------------
// Thread-local event scope
// ---------------------------------------------------------------------------

TEST(RunEventScopeTest, EmitWithoutScopeIsANoOp) {
  EmitPhaseEvent("tuning");  // Must not crash or leak anywhere.
  EXPECT_EQ(CurrentRunContext().events, nullptr);
}

TEST(RunEventScopeTest, ScopeCapturesEmitsAndRestores) {
  RunEventBuffer buffer(8);
  {
    ScopedRunContext scope({.events = &buffer});
    EmitPhaseEvent("selection");
    {
      const std::string knn = "knn";
      ScopedRunContext tag({.events = &buffer, .event_tag = &knn});
      EmitIncumbentEvent(0.25);
    }
  }
  EXPECT_EQ(CurrentRunContext().events, nullptr);
  const auto events = buffer.After(0);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].type, "phase");
  EXPECT_EQ(events[0].phase, "selection");
  EXPECT_EQ(events[1].type, "incumbent");
  EXPECT_EQ(events[1].algorithm, "knn");
  EXPECT_DOUBLE_EQ(events[1].value, 0.25);
}

TEST(RunEventScopeTest, ParallelForStrandsInheritTheSink) {
  RunEventBuffer buffer(64);
  ThreadPool pool(3);
  {
    ScopedRunContext scope({.pool = &pool, .events = &buffer});
    const Status status = ParallelFor(8, [&](size_t i) {
      EmitIncumbentEvent(0.1 * static_cast<double>(i));
      return Status::OK();
    });
    EXPECT_TRUE(status.ok());
  }
  EXPECT_EQ(buffer.After(0).size(), 8u);
}

// ---------------------------------------------------------------------------
// SSE over loopback sockets
// ---------------------------------------------------------------------------

std::string DatasetCsv() {
  SyntheticSpec spec;
  spec.num_instances = 80;
  spec.class_sep = 2.5;
  spec.seed = 53;
  return WriteCsvString(GenerateSynthetic(spec));
}

SmartMlOptions FastOptions() {
  SmartMlOptions options;
  options.max_evaluations = 6;
  options.cv_folds = 2;
  options.cold_start_algorithms = {"knn"};
  return options;
}

std::string JobIdFrom(const std::string& reply) {
  auto parsed = ParseJson(BodyOf(reply));
  if (!parsed.ok() || !parsed->is_object()) return "";
  const JsonValue* id = parsed->Find("id");
  return id != nullptr && id->is_string() ? id->string : "";
}

// A server + job pool on an ephemeral loopback port, torn down in order.
struct TestServer {
  explicit TestServer(int http_workers = 2, int job_workers = 1,
                      size_t max_jobs = 4)
      : framework(FastOptions()) {
    JobManagerOptions job_options;
    job_options.num_workers = job_workers;
    job_options.max_pending_jobs = max_jobs;
    jobs = std::make_unique<JobManager>(&framework, job_options);
    service = std::make_unique<RestService>(&framework, jobs.get());
    HttpServerOptions server_options;
    server_options.num_workers = http_workers;
    server = std::make_unique<HttpServer>(service.get(), server_options);
    service->set_http_server(server.get());
    auto bound = server->Bind(0);
    EXPECT_TRUE(bound.ok()) << bound.status().ToString();
    port = bound.ok() ? *bound : 0;
    serve_thread = std::thread([this] { serve_status = server->Serve(); });
  }

  ~TestServer() {
    server->Stop();
    if (serve_thread.joinable()) serve_thread.join();
  }

  SmartML framework;
  std::unique_ptr<JobManager> jobs;
  std::unique_ptr<RestService> service;
  std::unique_ptr<HttpServer> server;
  int port = 0;
  Status serve_status;
  std::thread serve_thread;
};

TEST(SseTest, StreamsIncumbentAndTerminalEventsAfterPipelinedRequests) {
  TestServer ts;
  ASSERT_GT(ts.port, 0);

  const std::string submitted =
      Fetch(ts.port, "POST", "/v1/runs?name=sse_run", DatasetCsv());
  ASSERT_NE(submitted.find("202"), std::string::npos) << submitted;
  const std::string id = JobIdFrom(submitted);
  ASSERT_FALSE(id.empty());

  // One connection: two pipelined keep-alive requests, then the SSE request
  // on the same socket. The server must switch the connection over to
  // streaming after serving the framed responses.
  const int fd = ConnectLoopback(ts.port);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(WriteAll(
      fd, BuildRequest("GET", "/v1/health", "", /*close_connection=*/false) +
              BuildRequest("GET", "/v1/runs/" + id, "",
                           /*close_connection=*/false) +
              BuildRequest("GET", "/v1/runs/" + id + "/events", "",
                           /*close_connection=*/false)));
  std::string pending;
  const std::string health = ReadOneResponse(fd, &pending);
  EXPECT_NE(health.find("HTTP/1.1 200 OK"), std::string::npos) << health;
  const std::string poll = ReadOneResponse(fd, &pending);
  EXPECT_NE(poll.find("HTTP/1.1 200 OK"), std::string::npos) << poll;

  // Everything else on the socket is the SSE stream; it ends with EOF when
  // the run reaches its terminal state.
  std::string stream = std::move(pending);
  char buffer[4096];
  ssize_t n;
  while ((n = ::read(fd, buffer, sizeof(buffer))) > 0) {
    stream.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);

  EXPECT_NE(stream.find("HTTP/1.1 200 OK"), std::string::npos) << stream;
  EXPECT_NE(stream.find("Content-Type: text/event-stream"), std::string::npos);
  EXPECT_NE(stream.find("Connection: close"), std::string::npos);
  // Lifecycle + pipeline events arrive in order; every completed tuning run
  // carries at least one incumbent improvement before the terminal frame.
  const size_t phase = stream.find("event: phase");
  const size_t incumbent = stream.find("event: incumbent");
  const size_t terminal = stream.find("event: terminal");
  EXPECT_NE(phase, std::string::npos) << stream;
  ASSERT_NE(incumbent, std::string::npos) << stream;
  ASSERT_NE(terminal, std::string::npos) << stream;
  EXPECT_LT(incumbent, terminal);

  const auto final_snapshot = ts.jobs->Wait(id, 60.0);
  ASSERT_TRUE(final_snapshot.ok());
  EXPECT_EQ(final_snapshot->state, JobState::kDone);
}

TEST(SseTest, ClientDisconnectMidStreamReleasesTheBuffer) {
  TestServer ts;
  ASSERT_GT(ts.port, 0);

  // A time-boxed run holds the stream open (evals=0 -> budget-capped only).
  const std::string submitted =
      Fetch(ts.port, "POST", "/v1/runs?budget=3&evals=0", DatasetCsv());
  const std::string id = JobIdFrom(submitted);
  ASSERT_FALSE(id.empty()) << submitted;

  auto buffer = ts.jobs->Events(id);
  ASSERT_TRUE(buffer.ok());
  const long baseline = buffer->use_count();

  const int fd = ConnectLoopback(ts.port);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(WriteAll(fd, BuildRequest("GET", "/v1/runs/" + id + "/events",
                                        "", /*close_connection=*/true)));
  // Wait until the stream is live (the handler's copy raises the refcount),
  // read the head, then vanish without consuming the rest.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (buffer->use_count() <= baseline &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  ASSERT_GT(buffer->use_count(), baseline);
  char head[256];
  (void)::read(fd, head, sizeof(head));
  ::close(fd);

  // The server notices the dead socket on its next write (heartbeats bound
  // the wait) and destroys the streaming response, dropping its reference.
  while (buffer->use_count() > baseline &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(buffer->use_count(), baseline);

  // The run itself is unaffected by the departed listener. Cancelling is
  // best-effort: the budget may already have expired the run.
  (void)ts.jobs->Cancel(id);
  const auto final_snapshot = ts.jobs->Wait(id, 60.0);
  ASSERT_TRUE(final_snapshot.ok());
}

TEST(SseTest, LastEventIdResumesAfterTheCursor) {
  TestServer ts;
  ASSERT_GT(ts.port, 0);

  const std::string submitted =
      Fetch(ts.port, "POST", "/v1/runs", DatasetCsv());
  const std::string id = JobIdFrom(submitted);
  ASSERT_FALSE(id.empty()) << submitted;
  ASSERT_TRUE(ts.jobs->Wait(id, 60.0).ok());

  // First read: the whole closed stream.
  const std::string full =
      Fetch(ts.port, "GET", "/v1/runs/" + id + "/events");
  ASSERT_NE(full.find("id: 1\n"), std::string::npos) << full;
  ASSERT_NE(full.find("id: 3\n"), std::string::npos) << full;

  // Resume from id 2: events 1 and 2 are not replayed.
  const std::string resumed =
      Fetch(ts.port, "GET", "/v1/runs/" + id + "/events", "",
            "Last-Event-ID: 2\r\n");
  EXPECT_EQ(resumed.find("id: 1\n"), std::string::npos) << resumed;
  EXPECT_EQ(resumed.find("id: 2\n"), std::string::npos) << resumed;
  EXPECT_NE(resumed.find("id: 3\n"), std::string::npos) << resumed;

  // ?after= is the header-less equivalent.
  const std::string after =
      Fetch(ts.port, "GET", "/v1/runs/" + id + "/events?after=2");
  EXPECT_EQ(BodyOf(after), BodyOf(resumed));

  // Resuming past the end of a closed stream terminates immediately.
  const std::string drained =
      Fetch(ts.port, "GET", "/v1/runs/" + id + "/events?after=100000");
  EXPECT_NE(drained.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_EQ(drained.find("event: incumbent"), std::string::npos) << drained;
}

}  // namespace
}  // namespace smartml
