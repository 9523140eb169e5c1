// Concurrency tests for the serving core: the worker-pool HttpServer stays
// responsive (e.g. /v1/select, /v1/health) while a /v1/runs experiment is
// executing on the job pool, Stop() drains in-flight work cleanly, and a
// queued job can be cancelled over the wire.
//
// These tests use real loopback sockets and are written to be
// ThreadSanitizer-friendly (see SMARTML_SANITIZE in the top-level
// CMakeLists.txt): modest thread counts, no sleeps as synchronization.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/api/job_manager.h"
#include "src/api/json.h"
#include "src/api/rest.h"
#include "src/data/csv.h"
#include "src/data/synthetic.h"
#include "src/metafeatures/metafeatures.h"
#include "tests/loopback_client.h"

namespace smartml {
namespace {

std::string DatasetCsv() {
  SyntheticSpec spec;
  spec.num_instances = 80;
  spec.class_sep = 2.5;
  spec.seed = 47;
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
                      size_t max_jobs = 2)
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

TEST(RestConcurrencyTest, SelectAnswersWhileRunIsInFlight) {
  TestServer ts;
  ASSERT_GT(ts.port, 0);

  // Meta-features for /v1/select, computed locally.
  auto dataset = ReadCsvString(DatasetCsv());
  ASSERT_TRUE(dataset.ok());
  auto mf = ExtractMetaFeatures(*dataset);
  ASSERT_TRUE(mf.ok());
  const std::string select_body = MetaFeaturesToJson(*mf);

  // Hold the single job worker with a time-boxed experiment.
  const std::string submitted =
      Fetch(ts.port, "POST", "/v1/runs?budget=3&evals=0", DatasetCsv());
  ASSERT_NE(submitted.find("202"), std::string::npos) << submitted;
  const std::string id = JobIdFrom(submitted);
  ASSERT_FALSE(id.empty()) << submitted;

  // While the job runs, the HTTP worker pool keeps answering.
  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 3;
  std::atomic<int> ok_count{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < kRequestsPerClient; ++r) {
        const std::string reply =
            c % 2 == 0 ? Fetch(ts.port, "POST", "/v1/select", select_body)
                       : Fetch(ts.port, "GET", "/v1/health");
        if (reply.find("HTTP/1.1 200 OK") != std::string::npos) ++ok_count;
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(ok_count.load(), kClients * kRequestsPerClient);

  // All of that completed while the experiment was still queued/running.
  const std::string mid = Fetch(ts.port, "GET", "/v1/runs/" + id);
  EXPECT_TRUE(mid.find("\"state\":\"queued\"") != std::string::npos ||
              mid.find("\"state\":\"running\"") != std::string::npos)
      << mid;

  // And the job itself still completes.
  auto done = ts.jobs->Wait(id, /*timeout_seconds=*/60.0);
  ASSERT_TRUE(done.ok()) << done.status().ToString();
  EXPECT_EQ(done->state, JobState::kDone) << done->error.ToString();
  const std::string final_reply = Fetch(ts.port, "GET", "/v1/runs/" + id);
  EXPECT_NE(final_reply.find("\"best_algorithm\""), std::string::npos);
}

TEST(RestConcurrencyTest, StopDrainsCleanly) {
  std::atomic<int> ok_count{0};
  int64_t served = 0;
  Status serve_status;
  {
    TestServer ts(/*http_workers=*/2);
    ASSERT_GT(ts.port, 0);
    constexpr int kClients = 6;
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&] {
        const std::string reply = Fetch(ts.port, "GET", "/v1/health");
        if (reply.find("\"status\":\"ok\"") != std::string::npos) ++ok_count;
      });
    }
    for (auto& t : clients) t.join();
    ts.server->Stop();
    ts.serve_thread.join();
    served = ts.server->requests_served();
    serve_status = ts.serve_status;
    // A second Stop() (from the dtor) is a harmless no-op.
  }
  EXPECT_TRUE(serve_status.ok()) << serve_status.ToString();
  EXPECT_EQ(ok_count.load(), 6);
  EXPECT_GE(served, 6);
}

TEST(RestConcurrencyTest, PipelinedKeepAliveRequestsShareOneConnection) {
  TestServer ts;
  ASSERT_GT(ts.port, 0);

  const int fd = ConnectLoopback(ts.port);
  ASSERT_GE(fd, 0);
  // Three pipelined requests written back-to-back before reading anything;
  // only the last asks the server to close.
  constexpr int kPipelined = 3;
  std::string wire;
  for (int i = 0; i < kPipelined; ++i) {
    wire += BuildRequest("GET", "/v1/health", "",
                         /*close_connection=*/i == kPipelined - 1);
  }
  ASSERT_TRUE(WriteAll(fd, wire));

  std::string pending;
  for (int i = 0; i < kPipelined; ++i) {
    const std::string reply = ReadOneResponse(fd, &pending);
    EXPECT_NE(reply.find("HTTP/1.1 200 OK"), std::string::npos)
        << "response " << i << ": " << reply;
    EXPECT_NE(reply.find(i == kPipelined - 1 ? "Connection: close"
                                             : "Connection: keep-alive"),
              std::string::npos)
        << "response " << i << ": " << reply;
    EXPECT_NE(reply.find("\"status\""), std::string::npos);
  }
  ::close(fd);
  // All three were responses on the same connection.
  EXPECT_GE(ts.server->requests_served(), kPipelined);
}

TEST(RestConcurrencyTest, SequentialKeepAliveReuseAndHonoredClose) {
  TestServer ts;
  ASSERT_GT(ts.port, 0);

  const int fd = ConnectLoopback(ts.port);
  ASSERT_GE(fd, 0);
  std::string pending;
  // Request -> full response -> next request on the same socket.
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(WriteAll(
        fd, BuildRequest("GET", "/v1/health", "", /*close_connection=*/false)));
    const std::string reply = ReadOneResponse(fd, &pending);
    EXPECT_NE(reply.find("HTTP/1.1 200 OK"), std::string::npos) << reply;
    EXPECT_NE(reply.find("Connection: keep-alive"), std::string::npos) << reply;
  }
  // Connection: close is honoured: the response says close and the server
  // actually closes (read returns EOF afterwards).
  ASSERT_TRUE(WriteAll(
      fd, BuildRequest("GET", "/v1/health", "", /*close_connection=*/true)));
  const std::string last = ReadOneResponse(fd, &pending);
  EXPECT_NE(last.find("Connection: close"), std::string::npos) << last;
  char byte;
  EXPECT_EQ(::read(fd, &byte, 1), 0);  // EOF, not a hang.
  ::close(fd);
}

TEST(RestConcurrencyTest, CancelQueuedJobOverSocket) {
  TestServer ts(/*http_workers=*/2, /*job_workers=*/1, /*max_jobs=*/2);
  ASSERT_GT(ts.port, 0);

  const std::string running =
      Fetch(ts.port, "POST", "/v1/runs?budget=3&evals=0", DatasetCsv());
  ASSERT_NE(running.find("202"), std::string::npos) << running;
  const std::string queued =
      Fetch(ts.port, "POST", "/v1/runs?budget=3&evals=0", DatasetCsv());
  ASSERT_NE(queued.find("202"), std::string::npos) << queued;
  const std::string queued_id = JobIdFrom(queued);
  ASSERT_FALSE(queued_id.empty());

  const std::string cancelled =
      Fetch(ts.port, "DELETE", "/v1/runs/" + queued_id);
  EXPECT_NE(cancelled.find("HTTP/1.1 200 OK"), std::string::npos) << cancelled;
  EXPECT_NE(cancelled.find("\"state\":\"cancelled\""), std::string::npos);

  // Cancelled jobs never transition again, even once the worker frees up.
  const std::string after = Fetch(ts.port, "GET", "/v1/runs/" + queued_id);
  EXPECT_NE(after.find("\"state\":\"cancelled\""), std::string::npos) << after;
}

}  // namespace
}  // namespace smartml
