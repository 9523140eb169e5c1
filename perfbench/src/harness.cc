#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "src/metafeatures/metafeatures.h"

namespace perfbench {

using smartml::JsonValue;

smartml::SmartMlOptions BaseOptions() {
  smartml::SmartMlOptions options;
  options.cv_folds = 2;
  options.update_kb = false;
  return options;
}

smartml::StatusOr<std::unique_ptr<BenchServer>> BenchServer::Start(
    const WorkloadSpec& spec, const std::string& kb_path,
    const std::string& journal_dir) {
  std::unique_ptr<BenchServer> server(new BenchServer());
  server->framework_ =
      std::make_unique<smartml::SmartML>(BaseOptions());
  if (spec.seed_kb) {
    SMARTML_RETURN_NOT_OK(server->framework_->LoadKnowledgeBase(kb_path));
  }
  smartml::JobManagerOptions job_options;
  job_options.num_workers = 1;
  if (spec.journal) job_options.journal_dir = journal_dir;
  server->jobs_ = std::make_unique<smartml::JobManager>(
      server->framework_.get(), job_options);
  server->service_ = std::make_unique<smartml::RestService>(
      server->framework_.get(), server->jobs_.get());
  // Each client loop holds a keep-alive connection and, while a run is
  // pending, an event stream: two handler threads per loop, so no request
  // queues behind an idle keep-alive connection.
  smartml::HttpServerOptions http_options;
  http_options.num_workers = 2 * spec.connections;
  server->http_ = std::make_unique<smartml::HttpServer>(
      server->service_.get(), http_options);
  server->service_->set_http_server(server->http_.get());
  SMARTML_ASSIGN_OR_RETURN(server->port_, server->http_->Bind(0));
  BenchServer* raw = server.get();
  server->serve_thread_ = std::thread([raw] { (void)raw->http_->Serve(); });
  return server;
}

BenchServer::~BenchServer() {
  if (http_ != nullptr) http_->Stop();
  if (serve_thread_.joinable()) serve_thread_.join();
  http_.reset();
  service_.reset();
  jobs_.reset();
  framework_.reset();
}

namespace {

double Seconds(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double NumberOr(const JsonValue* value, double fallback) {
  return value != nullptr && value->is_number() ? value->number : fallback;
}

std::string StringOr(const JsonValue* value, const std::string& fallback) {
  return value != nullptr && value->is_string() ? value->string : fallback;
}

// Fills the result fields of `record` from a GET /v1/runs/{id} body.
void ParseResult(const std::string& body, RunRecord* record) {
  auto parsed = smartml::ParseJson(body);
  if (!parsed.ok() || !parsed->is_object()) return;
  const JsonValue& run = *parsed;
  record->fetched = StringOr(run.Find("state"), "") == "done";
  const JsonValue* degraded = run.Find("degraded");
  record->degraded = degraded != nullptr && degraded->is_bool() &&
                     degraded->boolean;
  record->failed_candidates =
      static_cast<size_t>(NumberOr(run.Find("failed_candidates"), 0.0));
  record->best_algorithm = StringOr(run.Find("best_algorithm"), "");
  record->accuracy = NumberOr(run.Find("best_validation_accuracy"), 0.0);
  if (const JsonValue* phases = run.Find("phase_seconds")) {
    record->preprocess_s = NumberOr(phases->Find("preprocessing"), 0.0);
    record->select_s = NumberOr(phases->Find("selection"), 0.0);
    record->tune_s = NumberOr(phases->Find("tuning"), 0.0);
    record->output_s = NumberOr(phases->Find("output"), 0.0);
  }
  const JsonValue* result = run.Find("result");
  if (result == nullptr || !result->is_object()) return;
  if (const JsonValue* mf = result->Find("meta_features")) {
    const auto& names = smartml::MetaFeatureNames();
    record->has_meta_features = true;
    for (size_t i = 0; i < names.size(); ++i) {
      const JsonValue* value = mf->Find(names[i]);
      if (value == nullptr || !value->is_number()) {
        record->has_meta_features = false;
        break;
      }
      record->meta_features[i] = value->number;
    }
  }
  if (const JsonValue* algorithms = result->Find("algorithms")) {
    for (const JsonValue& a : algorithms->array) {
      Candidate c;
      c.algorithm = StringOr(a.Find("algorithm"), "");
      c.evaluations = static_cast<size_t>(NumberOr(a.Find("evaluations"), 0));
      c.validation_accuracy = NumberOr(a.Find("validation_accuracy"), 0.0);
      if (const JsonValue* config = a.Find("best_config")) c.config = *config;
      record->candidates.push_back(std::move(c));
    }
  }
}

}  // namespace

std::string SelectBody(const smartml::MetaFeatureVector& mf) {
  return "{\"meta_features\": " + smartml::MetaFeaturesToJson(mf) + "}";
}

RunRecord RunOnce(HttpConnection* connection, int port,
                  const WorkloadSpec& spec, const std::string& name,
                  const std::string& csv, SpanRecorder* spans) {
  RunRecord record;
  record.name = name;
  ScopedSpan loop_span(spans, "client.loop");
  const auto submitted_at = std::chrono::steady_clock::now();
  HttpReply submit;
  {
    ScopedSpan span(spans, "client.submit");
    submit = connection->Request("POST",
                                 "/v1/runs?name=" + name + "&" + spec.run_query,
                                 csv, "text/csv");
  }
  record.submit_status = submit.status;
  record.submitted = submit.status == 202;
  if (!record.submitted) return record;
  auto accepted = smartml::ParseJson(submit.body);
  const std::string id =
      accepted.ok() ? StringOr(accepted->Find("id"), "") : std::string();
  if (id.empty()) {
    record.submitted = false;
    return record;
  }

  HttpReply terminal;
  {
    ScopedSpan span(spans, "client.wait_terminal");
    terminal = WaitForTerminalEvent(port, "/v1/runs/" + id + "/events");
  }
  if (terminal.status != 200) {
    record.terminal = "no terminal event: " + terminal.error;
    return record;
  }
  record.latency_s = Seconds(terminal.at - submitted_at);
  auto event = smartml::ParseJson(terminal.body);
  record.terminal =
      event.ok() ? StringOr(event->Find("message"), "?") : std::string("?");

  HttpReply result;
  {
    ScopedSpan span(spans, "client.get_result");
    result = connection->Request("GET", "/v1/runs/" + id);
  }
  if (result.status != 200) return record;
  record.result_bytes = result.body.size();
  ParseResult(result.body, &record);
  if (!record.has_meta_features) return record;

  const auto select_at = std::chrono::steady_clock::now();
  HttpReply select;
  {
    ScopedSpan span(spans, "client.select");
    select = connection->Request("POST", "/v1/select",
                                 SelectBody(record.meta_features),
                                 "application/json");
  }
  record.select_status = select.status;
  record.select_latency_s = Seconds(select.at - select_at);
  record.select_request = connection->last_request();
  record.select_reply = std::move(select.body);
  return record;
}

Measurement Measure(const WorkloadSpec& spec, const Inputs& inputs, int port,
                    const RestartServer& restart, uint64_t seed,
                    double seconds, HostSpeed* speed, SpanRecorder* spans) {
  Measurement m;
  const auto start = m.start = std::chrono::steady_clock::now();
  if (spec.fixed_list) {
    HttpConnection connection(port);
    Round round;
    do {
      for (size_t i = 0; i < inputs.uploads.size(); ++i) {
        const double cpu_start = ProcessCpuSeconds();
        RunRecord record =
            RunOnce(&connection, port, spec, inputs.uploads[i].name,
                    inputs.uploads[i].csv, spans);
        const double cpu = ProcessCpuSeconds() - cpu_start;
        record.input = i;
        m.runs.push_back(std::move(record));
        round.cpu_s += cpu;
        speed->Sample(3);
      }
      ++m.passes;
    } while (Seconds(std::chrono::steady_clock::now() - start) < seconds);
    m.elapsed_s = Seconds(std::chrono::steady_clock::now() - start);
    round.wall_s = m.elapsed_s;
    for (const RunRecord& r : m.runs) round.done += r.fetched ? 1 : 0;
    m.rounds.push_back(round);
    return m;
  }

  // Hot/fresh mix: each loop flips a fair coin per upload between one of
  // the hot datasets and a fresh permutation of a cold base.
  do {
    const int round_port = restart();
    if (round_port < 0) break;
    const size_t round_index = m.rounds.size();
    std::vector<std::vector<RunRecord>> per_loop(spec.connections);
    std::vector<std::unique_ptr<SpanRecorder>> recorders;
    for (int c = 0; c < spec.connections; ++c) {
      recorders.push_back(
          std::make_unique<SpanRecorder>(spans->enabled(), spans->epoch()));
    }
    const auto round_start = std::chrono::steady_clock::now();
    const double cpu_start = ProcessCpuSeconds();
    std::vector<std::thread> loops;
    for (int c = 0; c < spec.connections; ++c) {
      loops.emplace_back([&, c] {
        HttpConnection connection(round_port);
        uint64_t stream = seed * 0x100000001b3ULL +
                          round_index * 0x9e3779b97f4a7c15ULL +
                          static_cast<uint64_t>(c);
        for (size_t pass = 0; pass < kRoundPasses; ++pass) {
          const uint64_t draw = SplitMix64(&stream);
          const size_t pick = static_cast<size_t>(draw >> 1);
          RunRecord record;
          if ((draw & 1) != 0) {
            const Upload& hot = inputs.uploads[pick % inputs.uploads.size()];
            record = RunOnce(&connection, round_port, spec, hot.name, hot.csv,
                             recorders[c].get());
            record.input = pick % inputs.uploads.size();
          } else {
            const size_t base = pick % inputs.cold.size();
            const uint64_t key = SplitMix64(&stream);
            record = RunOnce(&connection, round_port, spec,
                             inputs.cold[base].name,
                             FreshCsv(inputs.cold[base], key),
                             recorders[c].get());
            record.input = base;
            record.fresh = true;
            record.fresh_key = key;
          }
          record.round = round_index;
          per_loop[c].push_back(std::move(record));
        }
      });
    }
    for (std::thread& t : loops) t.join();
    Round round;
    round.cpu_s = ProcessCpuSeconds() - cpu_start;
    round.wall_s = Seconds(std::chrono::steady_clock::now() - round_start);
    for (int c = 0; c < spec.connections; ++c) {
      for (RunRecord& r : per_loop[c]) {
        round.done += r.fetched ? 1 : 0;
        m.runs.push_back(std::move(r));
      }
      spans->Merge(*recorders[c]);
    }
    m.rounds.push_back(round);
    speed->Sample(4);
  } while (Seconds(std::chrono::steady_clock::now() - start) < seconds);
  m.elapsed_s = Seconds(std::chrono::steady_clock::now() - start);
  return m;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

Timing WindowTiming(const Measurement& m) {
  Timing t;
  std::vector<double> p50, p90, select, cpu;
  for (size_t k = 0; k < m.rounds.size(); ++k) {
    const Round& round = m.rounds[k];
    std::vector<double> latencies, selects;
    for (const RunRecord& r : m.runs) {
      if (!r.fetched || r.round != k) continue;
      latencies.push_back(r.latency_s * 1e3);
      if (r.select_status == 200) selects.push_back(r.select_latency_s * 1e3);
    }
    t.done += round.done;
    t.round_runs_per_min.push_back(
        60.0 * static_cast<double>(round.done) / round.wall_s);
    p50.push_back(Percentile(latencies, 0.5));
    p90.push_back(Percentile(latencies, 0.9));
    select.push_back(Percentile(selects, 0.5));
    if (round.done > 0) {
      cpu.push_back(1e3 * round.cpu_s / static_cast<double>(round.done));
    }
  }
  t.runs_per_min = Percentile(t.round_runs_per_min, 0.5);
  t.run_p50_ms = Percentile(p50, 0.5);
  t.run_p90_ms = Percentile(p90, 0.5);
  t.select_p50_ms = Percentile(select, 0.5);
  t.cpu_ms_per_run = Percentile(cpu, 0.5);
  if (m.rounds.size() == 1) t.round_runs_per_min.clear();
  return t;
}

std::string CsvFor(const Inputs& inputs, const RunRecord& record) {
  if (record.fresh) {
    return FreshCsv(inputs.cold[record.input], record.fresh_key);
  }
  return inputs.uploads[record.input].csv;
}

std::map<std::string, double> ScrapeMetrics(int port) {
  std::map<std::string, double> out;
  HttpConnection connection(port);
  const HttpReply reply = connection.Request("GET", "/v1/metrics");
  std::istringstream lines(reply.body);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t name_end = line.find_first_of("{ ");
    const size_t value_at = line.rfind(' ');
    if (name_end == std::string::npos || value_at == std::string::npos) {
      continue;
    }
    out[line.substr(0, name_end)] += std::strtod(line.c_str() + value_at + 1,
                                                 nullptr);
  }
  return out;
}

double RetainedJobs(int port) {
  HttpConnection connection(port);
  const HttpReply reply = connection.Request("GET", "/v1/health");
  auto parsed = smartml::ParseJson(reply.body);
  if (!parsed.ok()) return 0.0;
  const JsonValue* jobs = parsed->Find("jobs");
  if (jobs == nullptr) return 0.0;
  double total = 0.0;
  for (const char* key : {"queued", "running", "done", "failed", "cancelled"}) {
    total += NumberOr(jobs->Find(key), 0.0);
  }
  return total;
}

}  // namespace perfbench
