// Tests for multi-tenant serving: fair-share weighted round-robin dispatch
// across tenants, per-tenant quotas shedding with 429 semantics, priority
// classes within a tenant, single-scheduler-pass batch admission, and the
// end-to-end acceptance path over real loopback sockets (two tenants with
// unequal quotas submitting batches, observing dispatch order, quota 429s
// with Retry-After, and at least one incumbent SSE event per run).
//
// Written to be ThreadSanitizer-friendly: modest thread counts, and the
// only timing assumption is that submitting a handful of requests takes
// less than a deliberately time-boxed blocker run.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/api/job_manager.h"
#include "src/api/json.h"
#include "src/api/rest.h"
#include "src/data/csv.h"
#include "src/data/synthetic.h"
#include "src/obs/metrics.h"
#include "tests/loopback_client.h"

namespace smartml {
namespace {

std::string DatasetCsv(uint64_t seed = 59) {
  SyntheticSpec spec;
  spec.num_instances = 80;
  spec.class_sep = 2.5;
  spec.seed = seed;
  return WriteCsvString(GenerateSynthetic(spec));
}

SmartMlOptions FastOptions() {
  SmartMlOptions options;
  options.max_evaluations = 6;
  options.cv_folds = 2;
  options.cold_start_algorithms = {"knn"};
  return options;
}

// A quick run: selection only, no tuning.
JobRequest FastRequest(const std::string& tenant,
                       JobPriority priority = JobPriority::kNormal) {
  JobRequest request;
  auto dataset = ReadCsvString(DatasetCsv());
  EXPECT_TRUE(dataset.ok());
  request.dataset = *dataset;
  request.run_options = FastOptions();
  request.run_options.selection_only = true;
  request.tenant = tenant;
  request.priority = priority;
  return request;
}

// A run that reliably occupies a worker while the test submits more jobs:
// time-boxed tuning with no evaluation cap.
JobRequest BlockerRequest(double budget_seconds) {
  JobRequest request = FastRequest(kDefaultTenant);
  request.run_options.selection_only = false;
  request.run_options.time_budget_seconds = budget_seconds;
  request.run_options.max_evaluations = 0;
  return request;
}

// Blocks until `id` has left the queue. The blocker pattern only pins the
// worker once the blocker job is actually running; submitting competing
// jobs before that point lets the dispatcher pick one of them first.
void WaitUntilRunning(JobManager& jobs, const std::string& id) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    auto snapshot = jobs.Get(id);
    ASSERT_TRUE(snapshot.ok());
    if (snapshot->state != JobState::kQueued) return;
    std::this_thread::yield();
  }
  FAIL() << "job " << id << " was never dispatched";
}

TEST(JobPriorityTest, NamesRoundTrip) {
  EXPECT_STREQ(JobPriorityName(JobPriority::kInteractive), "interactive");
  EXPECT_EQ(ParseJobPriority("interactive"), JobPriority::kInteractive);
  EXPECT_EQ(ParseJobPriority("batch"), JobPriority::kBatch);
  // Unknown and empty fall back to normal.
  EXPECT_EQ(ParseJobPriority(""), JobPriority::kNormal);
  EXPECT_EQ(ParseJobPriority("bogus"), JobPriority::kNormal);
}

TEST(MultiTenantTest, FairShareDispatchFollowsWeights) {
  SmartML framework(FastOptions());
  JobManagerOptions options;
  options.num_workers = 1;
  options.max_pending_jobs = 16;
  options.tenant_weights = {{"a", 2}, {"b", 1}};
  JobManager jobs(&framework, options);

  // Occupy the single worker so the six fair-share jobs queue up together.
  auto blocker = jobs.Submit(BlockerRequest(/*budget_seconds=*/2.0));
  ASSERT_TRUE(blocker.ok()) << blocker.status().ToString();
  WaitUntilRunning(jobs, *blocker);

  std::vector<std::pair<std::string, std::string>> submitted;  // (id, tenant)
  for (const char* tenant : {"a", "a", "a", "b", "b", "b"}) {
    auto id = jobs.Submit(FastRequest(tenant));
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    submitted.emplace_back(*id, tenant);
  }
  for (const auto& [id, tenant] : submitted) {
    ASSERT_TRUE(jobs.Wait(id, 60.0).ok()) << id;
  }

  // Sort by the order jobs actually left their queues. With weights 2:1 the
  // smooth WRR sequence is a,b,a,a,b and then the drained tenant drops out.
  std::vector<std::pair<uint64_t, std::string>> order;
  for (const auto& [id, tenant] : submitted) {
    auto snapshot = jobs.Get(id);
    ASSERT_TRUE(snapshot.ok());
    ASSERT_GT(snapshot->dispatch_sequence, 0u) << id;
    order.emplace_back(snapshot->dispatch_sequence, tenant);
  }
  std::sort(order.begin(), order.end());
  std::vector<std::string> tenants;
  for (const auto& [seq, tenant] : order) tenants.push_back(tenant);
  EXPECT_EQ(tenants,
            (std::vector<std::string>{"a", "b", "a", "a", "b", "b"}));
}

TEST(MultiTenantTest, QuotaShedsWithRetryableErrorAndMetric) {
  const MetricLabels tenant_a = {{"tenant", "a"}};
  const double shed_before =
      GlobalMetrics().Value("smartml_tenant_shed_total", tenant_a);
  SmartML framework(FastOptions());
  JobManagerOptions options;
  options.num_workers = 1;
  options.max_pending_jobs = 16;
  options.default_tenant_quota = 2;
  JobManager jobs(&framework, options);

  // Two pending jobs fill tenant a's quota (one running, one queued).
  auto running = jobs.Submit(BlockerRequest(/*budget_seconds=*/2.0));
  ASSERT_TRUE(running.ok());
  WaitUntilRunning(jobs, *running);
  // The blocker belongs to the default tenant; fill tenant a explicitly.
  auto first = jobs.Submit(FastRequest("a"));
  auto second = jobs.Submit(FastRequest("a"));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(jobs.TenantPending("a"), 2u);
  EXPECT_EQ(jobs.TenantQuota("a"), 2u);

  auto rejected = jobs.Submit(FastRequest("a"));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(rejected.status().ToString().find("quota"), std::string::npos)
      << rejected.status().ToString();
  EXPECT_DOUBLE_EQ(
      GlobalMetrics().Value("smartml_tenant_shed_total", tenant_a) -
          shed_before,
      1.0);

  // Other tenants are unaffected by a's quota exhaustion.
  auto other = jobs.Submit(FastRequest("b"));
  EXPECT_TRUE(other.ok()) << other.status().ToString();

  // Cancelling a queued job frees quota immediately.
  ASSERT_TRUE(jobs.Cancel(*second).ok());
  EXPECT_EQ(jobs.TenantPending("a"), 1u);
  EXPECT_TRUE(jobs.Submit(FastRequest("a")).ok());
}

TEST(MultiTenantTest, CancelWhileQueuedRecordsQueueWait) {
  SmartML framework(FastOptions());
  JobManagerOptions options;
  options.num_workers = 1;
  options.max_pending_jobs = 8;
  JobManager jobs(&framework, options);

  auto blocker = jobs.Submit(BlockerRequest(/*budget_seconds=*/2.0));
  ASSERT_TRUE(blocker.ok());
  WaitUntilRunning(jobs, *blocker);
  auto queued = jobs.Submit(FastRequest("a"));
  ASSERT_TRUE(queued.ok());

  auto queue_waits = [] {
    return GlobalMetrics().Value("smartml_job_queue_wait_seconds");
  };
  // The blocker has already been dispatched (or is about to be); only the
  // cancelled job is guaranteed to still be queued.
  const double before = queue_waits();
  ASSERT_TRUE(jobs.Cancel(*queued).ok());
  // A job that never ran still waited: the histogram must see its wait.
  EXPECT_EQ(queue_waits(), before + 1);
}

TEST(MultiTenantTest, PriorityClassesOrderWithinATenant) {
  SmartML framework(FastOptions());
  JobManagerOptions options;
  options.num_workers = 1;
  options.max_pending_jobs = 8;
  JobManager jobs(&framework, options);

  auto blocker = jobs.Submit(BlockerRequest(/*budget_seconds=*/2.0));
  ASSERT_TRUE(blocker.ok());
  WaitUntilRunning(jobs, *blocker);
  // Submitted batch-first, but the interactive job must dispatch first.
  auto batch_job = jobs.Submit(FastRequest("t", JobPriority::kBatch));
  auto normal_job = jobs.Submit(FastRequest("t", JobPriority::kNormal));
  auto interactive_job =
      jobs.Submit(FastRequest("t", JobPriority::kInteractive));
  ASSERT_TRUE(batch_job.ok());
  ASSERT_TRUE(normal_job.ok());
  ASSERT_TRUE(interactive_job.ok());
  for (const auto& id : {*batch_job, *normal_job, *interactive_job}) {
    ASSERT_TRUE(jobs.Wait(id, 60.0).ok());
  }
  const uint64_t batch_seq = jobs.Get(*batch_job)->dispatch_sequence;
  const uint64_t normal_seq = jobs.Get(*normal_job)->dispatch_sequence;
  const uint64_t interactive_seq =
      jobs.Get(*interactive_job)->dispatch_sequence;
  EXPECT_LT(interactive_seq, normal_seq);
  EXPECT_LT(normal_seq, batch_seq);
}

TEST(MultiTenantTest, BatchAdmitsUnderOneSchedulerPass) {
  SmartML framework(FastOptions());
  JobManagerOptions options;
  options.num_workers = 1;
  options.max_pending_jobs = 16;
  JobManager jobs(&framework, options);

  auto passes = [] {
    return GlobalMetrics().Value("smartml_scheduler_passes_total");
  };
  const double before = passes();

  std::vector<JobRequest> requests;
  for (int i = 0; i < 3; ++i) requests.push_back(FastRequest("a"));
  auto batch = jobs.SubmitBatch(std::move(requests));
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_DOUBLE_EQ(passes(), before + 1.0);

  ASSERT_EQ(batch->items.size(), 3u);
  for (const auto& item : batch->items) {
    ASSERT_TRUE(item.ok()) << item.status().ToString();
    EXPECT_TRUE(jobs.Get(*item).ok());
  }
  auto snapshot = jobs.GetBatch(batch->batch_id);
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->tenant, "a");
  ASSERT_EQ(snapshot->items.size(), 3u);
  EXPECT_EQ(snapshot->items[0].job_id, *batch->items[0]);

  EXPECT_FALSE(jobs.SubmitBatch({}).ok());
  // CSV texts, when given, must align with the requests.
  std::vector<JobRequest> one;
  one.push_back(FastRequest("a"));
  EXPECT_EQ(jobs.SubmitBatch(std::move(one), "", {"a,label\n1,x\n", "a\n"})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(jobs.GetBatch("batch-999999").ok());
  for (const auto& item : batch->items) {
    ASSERT_TRUE(jobs.Wait(*item, 60.0).ok());
  }
}

TEST(MultiTenantTest, BatchQuotaFailuresArePerItem) {
  SmartML framework(FastOptions());
  JobManagerOptions options;
  options.num_workers = 1;
  options.max_pending_jobs = 16;
  options.tenant_quotas = {{"a", 2}};
  JobManager jobs(&framework, options);

  std::vector<JobRequest> requests;
  for (int i = 0; i < 3; ++i) requests.push_back(FastRequest("a"));
  auto batch = jobs.SubmitBatch(std::move(requests));
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->items.size(), 3u);
  EXPECT_TRUE(batch->items[0].ok());
  EXPECT_TRUE(batch->items[1].ok());
  ASSERT_FALSE(batch->items[2].ok());
  EXPECT_EQ(batch->items[2].status().code(),
            StatusCode::kResourceExhausted);

  // The retained batch snapshot keeps the per-item outcome.
  auto snapshot = jobs.GetBatch(batch->batch_id);
  ASSERT_TRUE(snapshot.ok());
  EXPECT_TRUE(snapshot->items[2].job_id.empty());
  EXPECT_FALSE(snapshot->items[2].error.empty());
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(jobs.Wait(*batch->items[i], 60.0).ok());
  }
}

// ---------------------------------------------------------------------------
// End-to-end acceptance over loopback sockets
// ---------------------------------------------------------------------------

TEST(MultiTenantTest, EndToEndBatchesFromTwoTenantsWithUnequalQuotas) {
  SmartML framework(FastOptions());
  JobManagerOptions job_options;
  job_options.num_workers = 1;
  job_options.max_pending_jobs = 16;
  job_options.tenant_quotas = {{"team-a", 5}, {"team-b", 2}};
  job_options.tenant_weights = {{"team-a", 2}, {"team-b", 1}};
  JobManager jobs(&framework, job_options);
  RestService service(&framework, &jobs);
  HttpServerOptions server_options;
  server_options.num_workers = 2;
  HttpServer server(&service, server_options);
  service.set_http_server(&server);
  auto bound = server.Bind(0);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  const int port = *bound;
  std::thread serve_thread([&] { (void)server.Serve(); });

  // Occupy the single experiment worker so both batches queue up and the
  // fair-share order is decided by the dispatcher, not submission timing.
  const std::string blocker_reply =
      Fetch(port, "POST", "/v1/runs?budget=2&evals=0", DatasetCsv());
  ASSERT_NE(blocker_reply.find("202"), std::string::npos) << blocker_reply;
  auto blocker_parsed = ParseJson(BodyOf(blocker_reply));
  ASSERT_TRUE(blocker_parsed.ok());
  const std::string blocker_id = blocker_parsed->Find("id")->string;
  WaitUntilRunning(jobs, blocker_id);

  const double passes_before = CounterFrom(
      BodyOf(Fetch(port, "GET", "/v1/metrics")),
      "smartml_scheduler_passes_total");

  // Tenant team-a: a 3-dataset batch, admitted in one scheduler pass.
  std::string batch_body = "{\"items\":[";
  for (int i = 0; i < 3; ++i) {
    if (i > 0) batch_body += ",";
    batch_body += "{\"name\":\"a_item" + std::to_string(i) +
                  "\",\"csv\":\"" +
                  JsonWriter::Escape(DatasetCsv(60 + i)) + "\"}";
  }
  batch_body += "]}";
  const std::string batch_a = Fetch(port, "POST", "/v1/batch", batch_body,
                                    "X-Tenant: team-a\r\n");
  ASSERT_NE(batch_a.find("202"), std::string::npos) << batch_a;
  auto batch_a_parsed = ParseJson(BodyOf(batch_a));
  ASSERT_TRUE(batch_a_parsed.ok());
  const std::string batch_a_id = batch_a_parsed->Find("id")->string;
  const JsonValue* a_items = batch_a_parsed->Find("items");
  ASSERT_NE(a_items, nullptr);
  ASSERT_EQ(a_items->array.size(), 3u);
  std::vector<std::pair<std::string, std::string>> runs;  // (id, tenant)
  for (const JsonValue& item : a_items->array) {
    const JsonValue* id = item.Find("id");
    ASSERT_NE(id, nullptr) << BodyOf(batch_a);
    runs.emplace_back(id->string, "team-a");
  }

  const double passes_after = CounterFrom(
      BodyOf(Fetch(port, "GET", "/v1/metrics")),
      "smartml_scheduler_passes_total");
  // The whole 3-dataset batch consumed exactly one scheduler pass.
  EXPECT_DOUBLE_EQ(passes_after, passes_before + 1.0);

  // Tenant team-b: a 2-dataset batch fills its quota of 2 exactly.
  batch_body = "{\"items\":[";
  for (int i = 0; i < 2; ++i) {
    if (i > 0) batch_body += ",";
    batch_body += "{\"name\":\"b_item" + std::to_string(i) +
                  "\",\"csv\":\"" +
                  JsonWriter::Escape(DatasetCsv(70 + i)) + "\"}";
  }
  batch_body += "]}";
  const std::string batch_b = Fetch(port, "POST", "/v1/batch", batch_body,
                                    "X-Tenant: team-b\r\n");
  ASSERT_NE(batch_b.find("202"), std::string::npos) << batch_b;
  auto batch_b_parsed = ParseJson(BodyOf(batch_b));
  ASSERT_TRUE(batch_b_parsed.ok());
  for (const JsonValue& item : batch_b_parsed->Find("items")->array) {
    const JsonValue* id = item.Find("id");
    ASSERT_NE(id, nullptr) << BodyOf(batch_b);
    runs.emplace_back(id->string, "team-b");
  }

  // team-b is now at quota: one more run sheds with 429 + Retry-After.
  const std::string shed = Fetch(port, "POST", "/v1/runs", DatasetCsv(),
                                 "X-Tenant: team-b\r\n");
  EXPECT_NE(shed.find("HTTP/1.1 429"), std::string::npos) << shed;
  EXPECT_NE(shed.find("Retry-After:"), std::string::npos) << shed;
  EXPECT_NE(shed.find("\"resource_exhausted\""), std::string::npos) << shed;

  // Let everything finish.
  ASSERT_TRUE(jobs.Wait(blocker_id, 60.0).ok());
  for (const auto& [id, tenant] : runs) {
    auto final_snapshot = jobs.Wait(id, 60.0);
    ASSERT_TRUE(final_snapshot.ok()) << id;
    EXPECT_EQ(final_snapshot->state, JobState::kDone) << id;
  }

  // Fair-share dispatch: weights 2:1 over three a-jobs and two b-jobs give
  // the smooth-WRR order a,b,a,a,b.
  std::vector<std::pair<uint64_t, std::string>> order;
  for (const auto& [id, tenant] : runs) {
    auto snapshot = jobs.Get(id);
    ASSERT_TRUE(snapshot.ok());
    order.emplace_back(snapshot->dispatch_sequence, tenant);
  }
  std::sort(order.begin(), order.end());
  std::vector<std::string> tenants;
  for (const auto& [seq, tenant] : order) tenants.push_back(tenant);
  EXPECT_EQ(tenants, (std::vector<std::string>{"team-a", "team-b", "team-a",
                                               "team-a", "team-b"}));

  // Every run streamed at least one incumbent improvement before its
  // terminal event.
  for (const auto& [id, tenant] : runs) {
    const std::string stream =
        Fetch(port, "GET", "/v1/runs/" + id + "/events");
    const size_t incumbent = stream.find("event: incumbent");
    const size_t terminal = stream.find("event: terminal");
    ASSERT_NE(incumbent, std::string::npos) << id << "\n" << stream;
    ASSERT_NE(terminal, std::string::npos) << id << "\n" << stream;
    EXPECT_LT(incumbent, terminal) << id;
  }

  // The batch endpoint reports per-item terminal states.
  const std::string batch_view =
      Fetch(port, "GET", "/v1/batches/" + batch_a_id);
  EXPECT_NE(batch_view.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(batch_view.find("\"state\":\"done\""), std::string::npos)
      << batch_view;

  // The list endpoint filters by tenant and paginates with a cursor.
  const std::string list_a = BodyOf(
      Fetch(port, "GET", "/v1/runs?tenant=team-a&status=done"));
  auto list_a_parsed = ParseJson(list_a);
  ASSERT_TRUE(list_a_parsed.ok()) << list_a;
  EXPECT_EQ(list_a_parsed->Find("runs")->array.size(), 3u) << list_a;

  const std::string page1 =
      BodyOf(Fetch(port, "GET", "/v1/runs?tenant=team-a&limit=2"));
  auto page1_parsed = ParseJson(page1);
  ASSERT_TRUE(page1_parsed.ok());
  ASSERT_EQ(page1_parsed->Find("runs")->array.size(), 2u) << page1;
  const JsonValue* next = page1_parsed->Find("next");
  ASSERT_NE(next, nullptr) << page1;
  const std::string page2 = BodyOf(Fetch(
      port, "GET", "/v1/runs?tenant=team-a&limit=2&after=" + next->string));
  auto page2_parsed = ParseJson(page2);
  ASSERT_TRUE(page2_parsed.ok());
  EXPECT_EQ(page2_parsed->Find("runs")->array.size(), 1u) << page2;

  server.Stop();
  serve_thread.join();
}

}  // namespace
}  // namespace smartml
