// Tests for the JSON serialization and REST API layers: writer/parser
// correctness, HTTP request parsing, v1 service routing (async runs, the
// error envelope, request ids, removed pre-versioning aliases), and one
// real loopback-socket round trip.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <netinet/in.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <random>
#include <string>
#include <thread>

#include "src/api/job_manager.h"
#include "src/api/json.h"
#include "src/api/rest.h"
#include "src/data/csv.h"
#include "src/data/synthetic.h"
#include "src/metafeatures/metafeatures.h"

namespace smartml {
namespace {

// ---------------------------------------------------------------------------
// JsonWriter
// ---------------------------------------------------------------------------

TEST(JsonWriterTest, ObjectWithMixedValues) {
  JsonWriter w;
  w.BeginObject();
  w.Key("s");
  w.String("hi");
  w.Key("n");
  w.Number(1.5);
  w.Key("i");
  w.Int(-7);
  w.Key("b");
  w.Bool(true);
  w.Key("z");
  w.Null();
  w.EndObject();
  EXPECT_EQ(std::move(w).Take(),
            R"({"s":"hi","n":1.5,"i":-7,"b":true,"z":null})");
}

TEST(JsonWriterTest, NestedContainers) {
  JsonWriter w;
  w.BeginArray();
  w.Number(1);
  w.BeginObject();
  w.Key("a");
  w.BeginArray();
  w.Number(2);
  w.Number(3);
  w.EndArray();
  w.EndObject();
  w.EndArray();
  EXPECT_EQ(std::move(w).Take(), R"([1,{"a":[2,3]}])");
}

TEST(JsonWriterTest, EscapesSpecialCharacters) {
  EXPECT_EQ(JsonWriter::Escape("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\\te");
  EXPECT_EQ(JsonWriter::Escape(std::string("\x01", 1)), "\\u0001");
}

// The escaper as it was written before String and Key escaped in place,
// kept as the oracle for both.
std::string ReferenceJsonEscape(const std::string& s) {
  std::string out;
  for (const unsigned char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

void ExpectEscapesLikeReference(const std::string& s) {
  const std::string escaped = ReferenceJsonEscape(s);
  ASSERT_EQ(JsonWriter::Escape(s), escaped);
  JsonWriter w;
  w.BeginObject();
  w.Key(s);
  w.String(s);
  w.EndObject();
  ASSERT_EQ(std::move(w).Take(),
            "{\"" + escaped + "\":\"" + escaped + "\"}");
}

TEST(JsonWriterTest, EscapingMatchesReferenceAtEveryWordOffset) {
  // The escaper skips clean 8-byte words whole. Put every byte that needs
  // an escape at every offset 0-16 of strings 0-24 bytes long, among bytes
  // that need none: ASCII, DEL and bytes >= 0x80.
  std::string escape_worthy = "\"\\";
  for (int byte = 0; byte < 0x20; ++byte) {
    escape_worthy += static_cast<char>(byte);
  }
  for (const char filler : {'a', '\x7f', '\x80', '\xa2', '\xdc', '\xff'}) {
    for (size_t length = 0; length <= 24; ++length) {
      const std::string clean(length, filler);
      ExpectEscapesLikeReference(clean);
      for (size_t offset = 0; offset <= 16 && offset < length; ++offset) {
        for (const char c : escape_worthy) {
          std::string s = clean;
          s[offset] = c;
          ExpectEscapesLikeReference(s);
          // A second escape in the same word, or the next one.
          s[length - 1] = '\n';
          ExpectEscapesLikeReference(s);
        }
      }
    }
  }
  // Every byte >= 0x80 at every offset of a clean ASCII string.
  for (int byte = 0x80; byte < 0x100; ++byte) {
    for (size_t offset = 0; offset <= 16; ++offset) {
      std::string s(24, 'z');
      s[offset] = static_cast<char>(byte);
      ExpectEscapesLikeReference(s);
    }
  }
}

TEST(JsonWriterTest, EscapingMatchesReferenceOnEveryByte) {
  for (int byte = 0; byte < 256; ++byte) {
    const std::string one(1, static_cast<char>(byte));
    ExpectEscapesLikeReference(one);
    ExpectEscapesLikeReference("ab" + one + "cd" + one);
  }
  ExpectEscapesLikeReference("");
  std::mt19937_64 rng(8259);
  for (int i = 0; i < 2000; ++i) {
    std::string s(rng() % 64, '\0');
    for (char& c : s) {
      // Mostly printable runs, with escapes sprinkled in.
      c = (rng() % 4 == 0) ? static_cast<char>(rng())
                           : static_cast<char>(0x20 + rng() % 95);
    }
    ExpectEscapesLikeReference(s);
  }
}

TEST(JsonWriterTest, NonFiniteBecomesNull) {
  JsonWriter w;
  w.BeginArray();
  w.Number(std::nan(""));
  w.Number(1.0 / 0.0);
  w.EndArray();
  EXPECT_EQ(std::move(w).Take(), "[null,null]");
}

TEST(JsonTest, ConfigToJson) {
  ParamConfig config;
  config.SetDouble("C", 0.5);
  config.SetInt("k", 3);
  config.SetChoice("kernel", "rbf");
  EXPECT_EQ(ConfigToJson(config), R"({"C":0.5,"k":3,"kernel":"rbf"})");
}

TEST(JsonTest, MetaFeaturesToJsonHasAll25Keys) {
  MetaFeatureVector mf{};
  const std::string json = MetaFeaturesToJson(mf);
  for (const auto& name : MetaFeatureNames()) {
    EXPECT_NE(json.find("\"" + name + "\""), std::string::npos) << name;
  }
}

TEST(JsonTest, ResultToJsonEndToEnd) {
  SyntheticSpec spec;
  spec.num_instances = 90;
  spec.class_sep = 2.5;
  spec.seed = 41;
  spec.name = "json_test";
  SmartMlOptions options;
  options.max_evaluations = 9;
  options.cv_folds = 2;
  options.cold_start_algorithms = {"knn", "rpart"};
  SmartML framework(options);
  auto result = framework.Run(GenerateSynthetic(spec));
  ASSERT_TRUE(result.ok());
  const std::string json = ResultToJson(*result);
  EXPECT_NE(json.find("\"dataset\":\"json_test\""), std::string::npos);
  EXPECT_NE(json.find("\"best_algorithm\""), std::string::npos);
  EXPECT_NE(json.find("\"importances\""), std::string::npos);
  EXPECT_NE(json.find("\"selected_features\""), std::string::npos);
  // No raw control characters.
  for (char c : json) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
  }
}

TEST(JsonTest, KbToJson) {
  KnowledgeBase kb;
  KbRecord record;
  record.dataset_name = "k\"b";  // Needs escaping.
  KbAlgorithmResult r;
  r.algorithm = "svm";
  r.accuracy = 0.75;
  record.results.push_back(r);
  kb.AddRecord(record);
  const std::string json = KbToJson(kb);
  EXPECT_NE(json.find("\"num_records\":1"), std::string::npos);
  EXPECT_NE(json.find("k\\\"b"), std::string::npos);
}

// ---------------------------------------------------------------------------
// JSON parser
// ---------------------------------------------------------------------------

TEST(JsonParseTest, RoundTripsScalarsAndContainers) {
  auto v = ParseJson(R"({"a": [1, -2.5e1, "x\n", true, null], "b": {}})");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  ASSERT_TRUE(v->is_object());
  const JsonValue* a = v->Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->array.size(), 5u);
  EXPECT_DOUBLE_EQ(a->array[0].number, 1.0);
  EXPECT_DOUBLE_EQ(a->array[1].number, -25.0);
  EXPECT_EQ(a->array[2].string, "x\n");
  EXPECT_TRUE(a->array[3].boolean);
  EXPECT_TRUE(a->array[4].is_null());
  ASSERT_NE(v->Find("b"), nullptr);
  EXPECT_TRUE(v->Find("b")->is_object());
  EXPECT_EQ(v->Find("missing"), nullptr);
}

TEST(JsonParseTest, UnicodeEscape) {
  auto v = ParseJson(R"("café")");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->string, "caf\xC3\xA9");
}

TEST(JsonParseTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("[1,]").ok());
  EXPECT_FALSE(ParseJson("{\"a\" 1}").ok());
  EXPECT_FALSE(ParseJson("tru").ok());
  EXPECT_FALSE(ParseJson("1 2").ok());
  EXPECT_FALSE(ParseJson("\"unterminated").ok());
  EXPECT_FALSE(ParseJson("nan").ok());
}

TEST(JsonParseTest, WriterOutputParses) {
  MetaFeatureVector mf{};
  mf[0] = 42.0;
  auto v = ParseJson(MetaFeaturesToJson(mf));
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->object.size(), kNumMetaFeatures);
}

// ---------------------------------------------------------------------------
// HTTP parsing
// ---------------------------------------------------------------------------

TEST(HttpParseTest, BasicGet) {
  auto request = ParseHttpRequest(
      "GET /health HTTP/1.1\r\nHost: x\r\nAccept: */*\r\n\r\n");
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->method, "GET");
  EXPECT_EQ(request->path, "/health");
  EXPECT_EQ(request->headers.at("host"), "x");
  EXPECT_TRUE(request->body.empty());
}

TEST(HttpParseTest, QueryParameters) {
  auto request = ParseHttpRequest(
      "POST /run?budget=2.5&selection_only=1&name=my%20set HTTP/1.1\r\n"
      "Content-Length: 2\r\n\r\nhi");
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->path, "/run");
  EXPECT_EQ(request->query.at("budget"), "2.5");
  EXPECT_EQ(request->query.at("selection_only"), "1");
  EXPECT_EQ(request->query.at("name"), "my set");
  EXPECT_EQ(request->body, "hi");
}

TEST(HttpParseTest, RejectsGarbage) {
  EXPECT_FALSE(ParseHttpRequest("not http").ok());
  EXPECT_FALSE(ParseHttpRequest("GET\r\n\r\n").ok());
}

TEST(HttpParseTest, ResponseSerialization) {
  HttpResponse response;
  response.status = 404;
  response.body = "{}";
  const std::string wire = SerializeHttpResponse(response);
  EXPECT_NE(wire.find("HTTP/1.1 404 Not Found"), std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 2"), std::string::npos);
  EXPECT_EQ(wire.substr(wire.size() - 2), "{}");
}

// ---------------------------------------------------------------------------
// RestService routing (no sockets)
// ---------------------------------------------------------------------------

class RestServiceTest : public testing::Test {
 protected:
  RestServiceTest()
      : framework_(FastOptions()),
        jobs_(&framework_, JobOptions()),
        service_(&framework_, &jobs_) {}

  static SmartMlOptions FastOptions() {
    SmartMlOptions options;
    options.max_evaluations = 9;
    options.cv_folds = 2;
    options.cold_start_algorithms = {"knn", "rpart"};
    return options;
  }

  static JobManagerOptions JobOptions() {
    JobManagerOptions options;
    options.num_workers = 1;
    options.max_pending_jobs = 2;
    return options;
  }

  static std::string DatasetCsv() {
    SyntheticSpec spec;
    spec.num_instances = 80;
    spec.class_sep = 2.5;
    spec.seed = 43;
    return WriteCsvString(GenerateSynthetic(spec));
  }

  HttpResponse Call(const std::string& method, const std::string& path,
                    const std::string& body = "",
                    std::map<std::string, std::string> query = {}) {
    HttpRequest request;
    request.method = method;
    request.path = path;
    request.body = body;
    request.query = std::move(query);
    return service_.Handle(request);
  }

  // Submits one async run, waits for it to finish, and returns its id.
  std::string RunToCompletion(const std::string& csv,
                              std::map<std::string, std::string> query) {
    const HttpResponse response = Call("POST", "/v1/runs", csv, query);
    EXPECT_EQ(response.status, 202) << response.body;
    auto parsed = ParseJson(response.body);
    EXPECT_TRUE(parsed.ok());
    const std::string id = parsed->Find("id")->string;
    auto final_snapshot = jobs_.Wait(id, /*timeout_seconds=*/60.0);
    EXPECT_TRUE(final_snapshot.ok()) << final_snapshot.status().ToString();
    return id;
  }

  SmartML framework_;
  JobManager jobs_;
  RestService service_;
};

TEST_F(RestServiceTest, Health) {
  const HttpResponse response = Call("GET", "/v1/health");
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"status\":\"ok\""), std::string::npos);
}

TEST_F(RestServiceTest, Algorithms) {
  const HttpResponse response = Call("GET", "/v1/algorithms");
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"svm\""), std::string::npos);
  EXPECT_NE(response.body.find("\"deepboost\""), std::string::npos);
}

// The /v1/algorithms body is pinned byte for byte: Table 3's 15 rows in
// order with their five fields. Reorganizing the registry must not change
// a single byte of it.
TEST_F(RestServiceTest, AlgorithmsBodyIsPinned) {
  const std::string expected =
      R"([{"name":"svm","paper_name":"SVM",)"
      R"("paper_package":"e1071","categorical_params":1,)"
      R"("numerical_params":4},)"
      R"({"name":"naive_bayes","paper_name":"NaiveBayes",)"
      R"("paper_package":"klaR","categorical_params":0,)"
      R"("numerical_params":2},)"
      R"({"name":"knn","paper_name":"KNN",)"
      R"("paper_package":"FNN","categorical_params":0,)"
      R"("numerical_params":1},)"
      R"({"name":"bagging","paper_name":"Bagging",)"
      R"("paper_package":"ipred","categorical_params":0,)"
      R"("numerical_params":5},)"
      R"({"name":"part","paper_name":"part",)"
      R"("paper_package":"RWeka","categorical_params":1,)"
      R"("numerical_params":2},)"
      R"({"name":"j48","paper_name":"J48",)"
      R"("paper_package":"RWeka","categorical_params":1,)"
      R"("numerical_params":2},)"
      R"({"name":"random_forest","paper_name":"RandomForest",)"
      R"("paper_package":"randomForest","categorical_params":0,)"
      R"("numerical_params":3},)"
      R"({"name":"c50","paper_name":"c50",)"
      R"("paper_package":"C50","categorical_params":3,)"
      R"("numerical_params":2},)"
      R"({"name":"rpart","paper_name":"rpart",)"
      R"("paper_package":"rpart","categorical_params":0,)"
      R"("numerical_params":4},)"
      R"({"name":"lda","paper_name":"LDA",)"
      R"("paper_package":"MASS","categorical_params":1,)"
      R"("numerical_params":1},)"
      R"({"name":"plsda","paper_name":"PLSDA",)"
      R"("paper_package":"caret","categorical_params":1,)"
      R"("numerical_params":1},)"
      R"({"name":"lmt","paper_name":"LMT",)"
      R"("paper_package":"RWeka","categorical_params":0,)"
      R"("numerical_params":1},)"
      R"({"name":"rda","paper_name":"RDA",)"
      R"("paper_package":"klaR","categorical_params":0,)"
      R"("numerical_params":2},)"
      R"({"name":"neuralnet","paper_name":"NeuralNet",)"
      R"("paper_package":"nnet","categorical_params":0,)"
      R"("numerical_params":1},)"
      R"({"name":"deepboost","paper_name":"DeepBoost",)"
      R"("paper_package":"deepboost","categorical_params":1,)"
      R"("numerical_params":4}])";
  const HttpResponse response = Call("GET", "/v1/algorithms");
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, expected);
}

TEST_F(RestServiceTest, UnknownRouteIs404) {
  EXPECT_EQ(Call("GET", "/nope").status, 404);
}

TEST_F(RestServiceTest, WrongMethodIs405) {
  EXPECT_EQ(Call("POST", "/v1/health").status, 405);
  EXPECT_EQ(Call("GET", "/v1/batch").status, 405);
  EXPECT_EQ(Call("PUT", "/v1/runs").status, 405);
}

TEST_F(RestServiceTest, MetaFeaturesFromCsv) {
  const HttpResponse response =
      Call("POST", "/v1/metafeatures", DatasetCsv());
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"num_instances\":80"), std::string::npos);
}

TEST_F(RestServiceTest, MetaFeaturesBadBodyIs400) {
  EXPECT_EQ(Call("POST", "/v1/metafeatures", "not,csv").status, 400);
}

TEST_F(RestServiceTest, RunEndToEndUpdatesKb) {
  const std::string id =
      RunToCompletion(DatasetCsv(), {{"name", "api_run"}});
  const HttpResponse done = Call("GET", "/v1/runs/" + id);
  ASSERT_EQ(done.status, 200);
  EXPECT_NE(done.body.find("\"state\":\"done\""), std::string::npos);
  EXPECT_NE(done.body.find("\"best_algorithm\""), std::string::npos);
  EXPECT_NE(done.body.find("\"dataset\":\"api_run\""), std::string::npos);
  // KB grew; /v1/kb reflects it.
  const HttpResponse kb = Call("GET", "/v1/kb");
  EXPECT_NE(kb.body.find("\"num_records\":1"), std::string::npos);
}

TEST_F(RestServiceTest, RunQueryOverridesRestored) {
  const double original_budget = framework_.options().time_budget_seconds;
  RunToCompletion(DatasetCsv(),
                  {{"budget", "1"}, {"evals", "6"}});
  // Per-request overrides live on the job, never on the shared framework.
  EXPECT_DOUBLE_EQ(framework_.options().time_budget_seconds, original_budget);
}

TEST_F(RestServiceTest, SelectionOnlyRun) {
  const std::string id = RunToCompletion(DatasetCsv(),
                                         {{"selection_only", "1"}});
  const HttpResponse done = Call("GET", "/v1/runs/" + id);
  ASSERT_EQ(done.status, 200) << done.body;
  EXPECT_NE(done.body.find("\"best_algorithm\":\"\""), std::string::npos);
}

TEST_F(RestServiceTest, SelectFromMetaFeatures) {
  // Populate the KB first.
  RunToCompletion(DatasetCsv(), {});
  auto dataset = ReadCsvString(DatasetCsv());
  ASSERT_TRUE(dataset.ok());
  auto extracted = ExtractMetaFeatures(*dataset);
  ASSERT_TRUE(extracted.ok());
  const HttpResponse response =
      Call("POST", "/v1/select", MetaFeaturesToJson(*extracted));
  EXPECT_EQ(response.status, 200) << response.body;
  EXPECT_NE(response.body.find("\"algorithm\""), std::string::npos);
}

TEST_F(RestServiceTest, SelectBadBodyIs400) {
  EXPECT_EQ(Call("POST", "/v1/select", "1 2 3").status, 400);
}

// ---------------------------------------------------------------------------
// v1 surface: envelope, deprecation, JSON select, async runs
// ---------------------------------------------------------------------------

TEST_F(RestServiceTest, ErrorEnvelopeIsUniform) {
  const HttpResponse response = Call("GET", "/nope");
  EXPECT_EQ(response.status, 404);
  EXPECT_NE(response.body.find("\"error\":{\"code\":\"not_found\""),
            std::string::npos)
      << response.body;
  const HttpResponse bad = Call("POST", "/v1/metafeatures", "not,csv");
  EXPECT_EQ(bad.status, 400);
  EXPECT_NE(bad.body.find("\"error\":{\"code\":\""), std::string::npos)
      << bad.body;
}

TEST_F(RestServiceTest, PreVersioningAliasesAreGone) {
  // The pre-v1 aliases were removed; unversioned paths get the structured
  // 404 envelope pointing at the v1 surface.
  for (const char* path : {"/health", "/algorithms", "/kb", "/run",
                           "/select", "/metafeatures"}) {
    const HttpResponse response = Call("GET", path);
    EXPECT_EQ(response.status, 404) << path;
    EXPECT_NE(response.body.find("\"error\":{\"code\":\"not_found\""),
              std::string::npos)
        << path << " " << response.body;
    EXPECT_NE(response.body.find("/v1"), std::string::npos) << path;
    EXPECT_FALSE(response.headers.count("Deprecation")) << path;
  }
}

TEST_F(RestServiceTest, V1CoreRoutes) {
  EXPECT_EQ(Call("GET", "/v1/health").status, 200);
  EXPECT_EQ(Call("GET", "/v1/algorithms").status, 200);
  EXPECT_EQ(Call("GET", "/v1/kb").status, 200);
  EXPECT_EQ(Call("POST", "/v1/metafeatures", DatasetCsv()).status, 200);
  EXPECT_EQ(Call("GET", "/v1/runs").status, 200);  // The list endpoint.
  EXPECT_EQ(Call("POST", "/v1/health").status, 405);
  EXPECT_EQ(Call("GET", "/v1/nope").status, 404);
}

TEST_F(RestServiceTest, EveryResponseCarriesARequestId) {
  const HttpResponse ok = Call("GET", "/v1/health");
  ASSERT_TRUE(ok.headers.count("X-Request-Id"));
  EXPECT_FALSE(ok.headers.at("X-Request-Id").empty());
  // Client-supplied ids are echoed back, and land in error envelopes.
  HttpRequest request;
  request.method = "GET";
  request.path = "/v1/nope";
  request.headers["x-request-id"] = "client-abc-123";
  const HttpResponse err = service_.Handle(request);
  EXPECT_EQ(err.status, 404);
  EXPECT_EQ(err.headers.at("X-Request-Id"), "client-abc-123");
  EXPECT_NE(err.body.find("\"request_id\":\"client-abc-123\""),
            std::string::npos)
      << err.body;
}

TEST_F(RestServiceTest, V1HealthReportsJobPoolState) {
  const HttpResponse response = Call("GET", "/v1/health");
  EXPECT_NE(response.body.find("\"api_version\":\"v1\""), std::string::npos);
  EXPECT_NE(response.body.find("\"jobs\":{\"queued\":0,\"running\":0"),
            std::string::npos)
      << response.body;
  EXPECT_NE(response.body.find("\"capacity\":2"), std::string::npos);
}

TEST_F(RestServiceTest, V1SelectAcceptsNamedMetaFeatures) {
  RunToCompletion(DatasetCsv(), {});
  auto dataset = ReadCsvString(DatasetCsv());
  ASSERT_TRUE(dataset.ok());
  auto extracted = ExtractMetaFeatures(*dataset);
  ASSERT_TRUE(extracted.ok());
  // Flat object form.
  const HttpResponse flat =
      Call("POST", "/v1/select", MetaFeaturesToJson(*extracted));
  EXPECT_EQ(flat.status, 200) << flat.body;
  EXPECT_NE(flat.body.find("\"algorithm\""), std::string::npos);
  // Wrapped form.
  const HttpResponse wrapped =
      Call("POST", "/v1/select",
           "{\"meta_features\":" + MetaFeaturesToJson(*extracted) + "}");
  EXPECT_EQ(wrapped.status, 200) << wrapped.body;
  EXPECT_EQ(wrapped.body, flat.body);
}

TEST_F(RestServiceTest, V1SelectRejectsBadBodies) {
  // Not JSON.
  EXPECT_EQ(Call("POST", "/v1/select", "1 2 3").status, 400);
  // Not an object.
  EXPECT_EQ(Call("POST", "/v1/select", "[1,2]").status, 400);
  // Unknown feature name.
  const HttpResponse unknown =
      Call("POST", "/v1/select", R"({"bogus_feature": 1.0})");
  EXPECT_EQ(unknown.status, 400);
  EXPECT_NE(unknown.body.find("bogus_feature"), std::string::npos);
  // Missing features are named in the error.
  const HttpResponse missing =
      Call("POST", "/v1/select", R"({"num_instances": 80})");
  EXPECT_EQ(missing.status, 400);
  EXPECT_NE(missing.body.find("missing meta-features"), std::string::npos);
  EXPECT_NE(missing.body.find("num_classes"), std::string::npos);
  // Non-numeric value.
  EXPECT_EQ(Call("POST", "/v1/select", R"({"num_instances": "80"})").status,
            400);
}

TEST_F(RestServiceTest, V1RunsLifecycle) {
  const HttpResponse submitted =
      Call("POST", "/v1/runs", DatasetCsv(), {{"name", "async_run"}});
  ASSERT_EQ(submitted.status, 202) << submitted.body;
  EXPECT_TRUE(submitted.headers.count("Location"));
  auto parsed = ParseJson(submitted.body);
  ASSERT_TRUE(parsed.ok());
  const std::string id = parsed->Find("id")->string;
  EXPECT_EQ(submitted.headers.at("Location"), "/v1/runs/" + id);

  auto final_snapshot = jobs_.Wait(id, /*timeout_seconds=*/60.0);
  ASSERT_TRUE(final_snapshot.ok()) << final_snapshot.status().ToString();
  EXPECT_EQ(final_snapshot->state, JobState::kDone);

  const HttpResponse done = Call("GET", "/v1/runs/" + id);
  ASSERT_EQ(done.status, 200);
  EXPECT_NE(done.body.find("\"state\":\"done\""), std::string::npos);
  EXPECT_NE(done.body.find("\"dataset\":\"async_run\""), std::string::npos);
  // Same result fields as a synchronous run, plus phase timings.
  EXPECT_NE(done.body.find("\"best_algorithm\""), std::string::npos);
  EXPECT_NE(done.body.find("\"phase_seconds\""), std::string::npos);
  EXPECT_NE(done.body.find("\"importances\""), std::string::npos);
  auto doc = ParseJson(done.body);
  ASSERT_TRUE(doc.ok()) << done.body;
  EXPECT_EQ(doc->Find("result")->Find("dataset")->string, "async_run");

  // The completed run was folded into the KB.
  EXPECT_GE(framework_.kb().NumRecords(), 1u);

  // Terminal jobs cannot be cancelled.
  EXPECT_EQ(Call("DELETE", "/v1/runs/" + id).status, 409);
  // Unknown ids are 404s.
  EXPECT_EQ(Call("GET", "/v1/runs/run-999999").status, 404);
  EXPECT_EQ(Call("DELETE", "/v1/runs/run-999999").status, 404);
}

TEST_F(RestServiceTest, V1RunsShedLoadAndCancelQueued) {
  // Occupy the single job worker with a time-boxed run, then fill the queue
  // (capacity 2 = running + queued).
  // budget=3&evals=0 -> time-capped only, so the first job reliably holds
  // the worker while the later submissions arrive.
  const std::map<std::string, std::string> slow = {{"budget", "3"},
                                                   {"evals", "0"}};
  const HttpResponse first = Call("POST", "/v1/runs", DatasetCsv(), slow);
  ASSERT_EQ(first.status, 202) << first.body;
  const HttpResponse second = Call("POST", "/v1/runs", DatasetCsv(), slow);
  ASSERT_EQ(second.status, 202) << second.body;

  const HttpResponse shed = Call("POST", "/v1/runs", DatasetCsv(), slow);
  EXPECT_EQ(shed.status, 429) << shed.body;
  ASSERT_TRUE(shed.headers.count("Retry-After"));
  EXPECT_GE(std::atoi(shed.headers.at("Retry-After").c_str()), 1);
  EXPECT_NE(shed.body.find("\"resource_exhausted\""), std::string::npos);

  // The queued (not yet running) job can be cancelled...
  auto parsed = ParseJson(second.body);
  ASSERT_TRUE(parsed.ok());
  const std::string queued_id = parsed->Find("id")->string;
  const HttpResponse cancelled = Call("DELETE", "/v1/runs/" + queued_id);
  EXPECT_EQ(cancelled.status, 200) << cancelled.body;
  EXPECT_NE(cancelled.body.find("\"state\":\"cancelled\""), std::string::npos);
  // ...and stays cancelled.
  EXPECT_NE(Call("GET", "/v1/runs/" + queued_id)
                .body.find("\"state\":\"cancelled\""),
            std::string::npos);
  // Capacity freed: a new submission is accepted again.
  EXPECT_EQ(Call("POST", "/v1/runs", DatasetCsv()).status, 202);
}

// A malformed run option fails the submission with 400 naming the query
// parameter, and nothing is admitted. atoi/atof used to read these as 0
// (evals: no evaluation cap; deadline: no whole-run cap) or wrap them
// (nominations=-1 became SIZE_MAX).
TEST_F(RestServiceTest, MalformedRunOptionsAre400) {
  const std::pair<const char*, const char*> kBad[] = {
      {"evals", "abc"},        {"deadline", "abc"},
      {"nominations", "-1"},   {"budget", "-1"},
      {"evals", "-3"},         {"deadline", "-0.5"},
      {"evals", "5x"},         {"budget", "1.5s"},
      {"budget", "inf"},       {"budget", "nan"},
      {"budget", "1e999"},     {"evals", "2x"},
      {"evals", "99999999999"}, {"threads", "two"},
      {"selection_only", "yes"}, {"ensemble", ""},
      {"interpretability", "off"},
  };
  for (const auto& [key, value] : kBad) {
    for (const char* path : {"/v1/runs", "/v1/batch"}) {
      const std::string body =
          std::string(path) == "/v1/runs"
              ? DatasetCsv()
              : "{\"items\":[{\"csv\":\"" + JsonWriter::Escape(DatasetCsv()) +
                    "\"}]}";
      const HttpResponse response = Call("POST", path, body, {{key, value}});
      EXPECT_EQ(response.status, 400)
          << path << "?" << key << "=" << value << ": " << response.body;
      EXPECT_NE(response.body.find("\"invalid_argument\""), std::string::npos)
          << response.body;
      EXPECT_NE(response.body.find(std::string("\\\"") + key + "\\\""),
                std::string::npos)
          << response.body;
    }
  }
  EXPECT_TRUE(jobs_.List({}).empty());
}

// A batch item override of the wrong JSON type, or out of range, fails the
// whole call with 400 naming the item index and the key. A string "budget"
// used to be dropped silently.
TEST_F(RestServiceTest, MalformedBatchItemOverridesAre400) {
  const std::string csv = JsonWriter::Escape(DatasetCsv());
  const std::pair<const char*, const char*> kBad[] = {
      {"budget", R"("budget":"5")"},         {"evals", R"("evals":true)"},
      {"evals", R"("evals":-1)"},            {"budget", R"("budget":-2.5)"},
      {"selection_only", R"("selection_only":1)"},
      {"evals", R"("evals":1e300)"},
  };
  for (const auto& [key, member] : kBad) {
    const std::string body = "{\"items\":[{\"csv\":\"" + csv +
                             "\"},{\"csv\":\"" + csv + "\"," + member + "}]}";
    const HttpResponse response = Call("POST", "/v1/batch", body);
    EXPECT_EQ(response.status, 400) << member << ": " << response.body;
    EXPECT_NE(response.body.find("\"invalid_argument\""), std::string::npos)
        << response.body;
    EXPECT_NE(response.body.find("items[1]"), std::string::npos)
        << response.body;
    EXPECT_NE(response.body.find(std::string("\\\"") + key + "\\\""),
              std::string::npos)
        << response.body;
  }
  EXPECT_TRUE(jobs_.List({}).empty());
}

// Well-formed values keep their meaning: booleans take 0/1/true/false,
// threads <= 0 still means "auto", and zero budgets, caps and deadlines are
// valid.
TEST_F(RestServiceTest, WellFormedRunOptionsAreAccepted) {
  const std::string id = RunToCompletion(
      DatasetCsv(), {{"selection_only", "true"},
                     {"ensemble", "false"},
                     {"interpretability", "0"},
                     {"threads", "-1"},
                     {"budget", "2.5"},
                     {"evals", "0"},
                     {"deadline", "0"},
                     {"nominations", "2"}});
  const HttpResponse done = Call("GET", "/v1/runs/" + id);
  EXPECT_NE(done.body.find("\"state\":\"done\""), std::string::npos)
      << done.body;
  EXPECT_NE(done.body.find("\"best_algorithm\":\"\""), std::string::npos)
      << done.body;

  const HttpResponse batch = Call(
      "POST", "/v1/batch",
      "{\"items\":[{\"csv\":\"" + JsonWriter::Escape(DatasetCsv()) +
          "\",\"budget\":1.5,\"evals\":4,\"selection_only\":true}]}",
      {{"threads", "0"}, {"ensemble", "1"}});
  ASSERT_EQ(batch.status, 202) << batch.body;
  auto parsed = ParseJson(batch.body);
  ASSERT_TRUE(parsed.ok());
  const std::string item = parsed->Find("items")->array[0].Find("id")->string;
  auto finished = jobs_.Wait(item, 60.0);
  ASSERT_TRUE(finished.ok()) << finished.status().ToString();
  EXPECT_EQ(finished->state, JobState::kDone);
  EXPECT_EQ(finished->best_algorithm, "");  // selection_only took effect.
}

// ---------------------------------------------------------------------------
// Real socket round trip
// ---------------------------------------------------------------------------

TEST(HttpServerTest, LoopbackRoundTrip) {
  SmartMlOptions options;
  options.max_evaluations = 6;
  options.cv_folds = 2;
  options.cold_start_algorithms = {"knn"};
  SmartML framework(options);
  RestService service(&framework);
  HttpServer server(&service);
  auto port = server.Bind(0);
  ASSERT_TRUE(port.ok()) << port.status().ToString();

  std::thread server_thread([&] { (void)server.Serve(/*max_requests=*/1); });

  // Raw-socket client.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(*port));
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string request =
      "GET /v1/health HTTP/1.1\r\nHost: localhost\r\n\r\n";
  ASSERT_EQ(::write(fd, request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  std::string reply;
  char buffer[4096];
  ssize_t n;
  while ((n = ::read(fd, buffer, sizeof(buffer))) > 0) {
    reply.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  server.Stop();
  server_thread.join();

  EXPECT_NE(reply.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(reply.find("\"status\":\"ok\""), std::string::npos);
}

}  // namespace
}  // namespace smartml
