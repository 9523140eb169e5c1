// Tests for the observability subsystem: lock-cheap metric primitives under
// concurrent hammering (exact totals — run these under ThreadSanitizer),
// histogram bucket semantics, the Prometheus text encoder, the read-only
// Value() lookup, and the GET /v1/metrics and /v1/health views of the
// process registry through the REST routing layer.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "src/api/json.h"
#include "src/api/rest.h"
#include "src/core/smartml.h"
#include "src/kb/knowledge_base.h"
#include "src/obs/metrics.h"
#include "tests/loopback_client.h"

namespace smartml {
namespace {

constexpr int kThreads = 8;
constexpr int kOpsPerThread = 20000;

TEST(ObsCounterTest, ConcurrentIncrementsAreExact) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("obs_test_hits_total", "help");
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([counter] {
      for (int i = 0; i < kOpsPerThread; ++i) counter->Increment();
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter->Value(),
            static_cast<uint64_t>(kThreads) * kOpsPerThread);
}

TEST(ObsCounterTest, ConcurrentRegistrationYieldsOneSeries) {
  // Threads race to register the same (name, labels); all must get the same
  // cell so no increment is lost to a shadow counter.
  MetricsRegistry registry;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      for (int i = 0; i < 1000; ++i) {
        registry
            .GetCounter("obs_test_raced_total", "help", {{"k", "v"}})
            ->Increment();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(registry.GetCounter("obs_test_raced_total", "help", {{"k", "v"}})
                ->Value(),
            static_cast<uint64_t>(kThreads) * 1000);
}

TEST(ObsGaugeTest, ConcurrentUpDownBalances) {
  MetricsRegistry registry;
  Gauge* gauge = registry.GetGauge("obs_test_depth", "help");
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([gauge] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        gauge->Increment();
        gauge->Decrement();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(gauge->Value(), 0);
}

TEST(ObsHistogramTest, ConcurrentObservationsAreExact) {
  MetricsRegistry registry;
  Histogram* histogram =
      registry.GetHistogram("obs_test_seconds", "help", {1.0, 2.0, 5.0});
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([histogram] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        histogram->Observe(1.0);  // Integer-valued: the sum stays exact.
        histogram->Observe(4.0);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const uint64_t per_value = static_cast<uint64_t>(kThreads) * kOpsPerThread;
  const Histogram::Snapshot snapshot = histogram->TakeSnapshot();
  EXPECT_EQ(snapshot.count, 2 * per_value);
  EXPECT_DOUBLE_EQ(snapshot.sum, 5.0 * static_cast<double>(per_value));
  ASSERT_EQ(snapshot.cumulative.size(), 4u);  // 3 bounds + Inf.
  EXPECT_EQ(snapshot.cumulative[0], per_value);      // le=1: the 1.0s.
  EXPECT_EQ(snapshot.cumulative[1], per_value);      // le=2: still just 1.0s.
  EXPECT_EQ(snapshot.cumulative[2], 2 * per_value);  // le=5: plus the 4.0s.
  EXPECT_EQ(snapshot.cumulative[3], 2 * per_value);  // +Inf.
}

TEST(ObsHistogramTest, BucketBoundsAreInclusive) {
  // Prometheus le semantics: a value equal to a bound counts in that bucket.
  Histogram histogram({1.0, 2.0, 5.0});
  histogram.Observe(0.5);   // le=1
  histogram.Observe(1.0);   // le=1 (exactly on the bound)
  histogram.Observe(2.0);   // le=2 (exactly on the bound)
  histogram.Observe(2.001); // le=5
  histogram.Observe(5.0);   // le=5 (exactly on the bound)
  histogram.Observe(9.0);   // +Inf
  const Histogram::Snapshot snapshot = histogram.TakeSnapshot();
  ASSERT_EQ(snapshot.cumulative.size(), 4u);
  EXPECT_EQ(snapshot.cumulative[0], 2u);
  EXPECT_EQ(snapshot.cumulative[1], 3u);
  EXPECT_EQ(snapshot.cumulative[2], 5u);
  EXPECT_EQ(snapshot.cumulative[3], 6u);
  EXPECT_EQ(snapshot.count, 6u);
}

TEST(ObsHistogramTest, BoundsAreSortedAndDeduplicated) {
  Histogram histogram({5.0, 1.0, 5.0, 2.0});
  EXPECT_EQ(histogram.bounds(), (std::vector<double>{1.0, 2.0, 5.0}));
}

TEST(ObsRegistryTest, LabelsCanonicalizeByName) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("obs_test_labeled_total", "help",
                                   {{"b", "2"}, {"a", "1"}});
  Counter* b = registry.GetCounter("obs_test_labeled_total", "help",
                                   {{"a", "1"}, {"b", "2"}});
  EXPECT_EQ(a, b);
  Counter* c = registry.GetCounter("obs_test_labeled_total", "help",
                                   {{"a", "1"}, {"b", "3"}});
  EXPECT_NE(a, c);
}

TEST(ObsRegistryTest, TypeMismatchReturnsDetachedDummy) {
  MetricsRegistry registry;
  registry.GetCounter("obs_test_conflict", "help")->Increment(7);
  Gauge* dummy = registry.GetGauge("obs_test_conflict", "help");
  ASSERT_NE(dummy, nullptr);
  dummy->Set(99);  // Dropped: must not leak into the counter family.
  const std::string text = registry.EncodePrometheus();
  EXPECT_NE(text.find("obs_test_conflict 7\n"), std::string::npos);
  EXPECT_EQ(text.find("99"), std::string::npos);
}

TEST(ObsRegistryTest, PrometheusEncodingGolden) {
  MetricsRegistry registry;
  registry.GetCounter("a_requests_total", "Requests.", {{"code", "2xx"}})
      ->Increment(3);
  registry.GetGauge("b_depth", "Depth.")->Set(-2);
  Histogram* histogram =
      registry.GetHistogram("c_seconds", "Latency.", {0.5, 1.0});
  histogram->Observe(0.25);
  histogram->Observe(0.75);
  histogram->Observe(4.0);
  const std::string expected =
      "# HELP a_requests_total Requests.\n"
      "# TYPE a_requests_total counter\n"
      "a_requests_total{code=\"2xx\"} 3\n"
      "# HELP b_depth Depth.\n"
      "# TYPE b_depth gauge\n"
      "b_depth -2\n"
      "# HELP c_seconds Latency.\n"
      "# TYPE c_seconds histogram\n"
      "c_seconds_bucket{le=\"0.5\"} 1\n"
      "c_seconds_bucket{le=\"1\"} 2\n"
      "c_seconds_bucket{le=\"+Inf\"} 3\n"
      "c_seconds_sum 5\n"
      "c_seconds_count 3\n";
  EXPECT_EQ(registry.EncodePrometheus(), expected);
}

TEST(ObsRegistryTest, LabelValuesAreEscaped) {
  MetricsRegistry registry;
  registry.GetCounter("d_total", "help", {{"path", "a\"b\\c\nd"}})
      ->Increment();
  const std::string text = registry.EncodePrometheus();
  EXPECT_NE(text.find("d_total{path=\"a\\\"b\\\\c\\nd\"} 1\n"),
            std::string::npos);
}

TEST(MetricsRegistryTest, ValueReadsWithoutRegistering) {
  MetricsRegistry registry;
  registry.GetCounter("v_total", "help", {{"a", "1"}, {"b", "2"}})
      ->Increment(3);
  registry.GetGauge("v_depth", "help")->Set(-4);
  Histogram* latency = registry.GetHistogram("v_seconds", "help", {1.0});
  latency->Observe(0.5);
  latency->Observe(7.0);
  const std::string before = registry.EncodePrometheus();

  EXPECT_EQ(registry.Value("v_total", {{"a", "1"}, {"b", "2"}}), 3.0);
  EXPECT_EQ(registry.Value("v_total", {{"b", "2"}, {"a", "1"}}), 3.0);
  EXPECT_EQ(registry.Value("v_depth"), -4.0);
  EXPECT_EQ(registry.Value("v_seconds"), 2.0);
  // Absent families and absent label sets read 0 and register nothing.
  EXPECT_EQ(registry.Value("v_missing_total"), 0.0);
  EXPECT_EQ(registry.Value("v_total"), 0.0);
  EXPECT_EQ(registry.Value("v_total", {{"a", "1"}}), 0.0);
  EXPECT_EQ(registry.EncodePrometheus(), before);
}

TEST(ObsRestTest, MetricsEndpointServesExposition) {
  SmartML framework;
  GlobalMetrics().GetCounter("e_total", "help")->Increment(5);
  RestService service(&framework);

  HttpRequest request;
  request.method = "GET";
  request.path = "/v1/metrics";
  const HttpResponse response = service.Handle(request);
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.content_type, "text/plain; version=0.0.4; charset=utf-8");
  EXPECT_NE(response.body.find("# TYPE e_total counter"), std::string::npos);
  EXPECT_NE(response.body.find("e_total 5\n"), std::string::npos);

  request.method = "POST";
  EXPECT_EQ(service.Handle(request).status, 405);
}

TEST(ObsRestTest, HealthReportsObservabilityGauges) {
  SmartML framework;
  RestService service(&framework);
  HttpRequest request;
  request.method = "GET";
  request.path = "/v1/health";
  const HttpResponse response = service.Handle(request);
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"kb\""), std::string::npos);
  EXPECT_NE(response.body.find("\"updates_total\""), std::string::npos);
  EXPECT_NE(response.body.find("\"lookups_total\""), std::string::npos);
}

TEST(ObsRestTest, HealthAgreesWithExposition) {
  KnowledgeBase kb;
  KbRecord record;
  record.dataset_name = "health";
  kb.AddRecord(record);
  EXPECT_EQ(kb.NearestRecords(record.meta_features, 1).size(), 1u);

  SmartML framework;
  RestService service(&framework);
  HttpRequest request;
  request.method = "GET";
  request.path = "/v1/health";
  // Reading health registers nothing in the process registry.
  const std::string before = GlobalMetrics().EncodePrometheus();
  const HttpResponse health = service.Handle(request);
  EXPECT_EQ(GlobalMetrics().EncodePrometheus(), before);
  ASSERT_EQ(health.status, 200);
  request.path = "/v1/metrics";
  const std::string exposition = service.Handle(request).body;

  auto parsed = ParseJson(health.body);
  ASSERT_TRUE(parsed.ok()) << health.body;
  const JsonValue* kb_health = parsed->Find("kb");
  ASSERT_NE(kb_health, nullptr);
  ASSERT_NE(kb_health->Find("updates_total"), nullptr);
  ASSERT_NE(kb_health->Find("lookups_total"), nullptr);
  const double updates = kb_health->Find("updates_total")->number;
  const double lookups = kb_health->Find("lookups_total")->number;
  EXPECT_GE(updates, 1.0);
  EXPECT_GE(lookups, 1.0);
  EXPECT_EQ(updates, CounterFrom(exposition, "smartml_kb_updates_total"));
  EXPECT_EQ(lookups,
            CounterFrom(exposition, "smartml_kb_lookup_seconds_count"));
}

}  // namespace
}  // namespace smartml
