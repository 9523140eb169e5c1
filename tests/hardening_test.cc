// Fuzz-style hardening tests: truncated, garbage and structurally broken
// inputs fed to every text parser that accepts external data (ARFF, CSV, KB
// cache, HTTP request framing). Each case must come back as a Status error —
// never a crash, hang or silent partial parse presented as success.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/api/rest.h"
#include "src/common/fault_injection.h"
#include "src/common/strings.h"
#include "src/core/smartml.h"
#include "src/data/arff.h"
#include "src/data/csv.h"
#include "src/data/synthetic.h"
#include "src/kb/knowledge_base.h"
#include "src/persist/checkpoint.h"
#include "src/persist/journal.h"

namespace smartml {
namespace {

// ---------------------------------------------------------------------------
// ARFF
// ---------------------------------------------------------------------------

const char kGoodArff[] =
    "@relation demo\n"
    "@attribute a numeric\n"
    "@attribute b numeric\n"
    "@attribute class {yes,no}\n"
    "@data\n"
    "1.0,2.0,yes\n"
    "3.0,4.0,no\n";

TEST(ArffHardeningTest, WellFormedBaselineParses) {
  auto dataset = ReadArffString(kGoodArff);
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
  EXPECT_EQ(dataset->NumRows(), 2u);
}

TEST(ArffHardeningTest, TruncationsAtEveryByteNeverCrash) {
  const std::string good = kGoodArff;
  for (size_t len = 0; len < good.size(); ++len) {
    auto dataset = ReadArffString(good.substr(0, len));
    // Some prefixes are legitimately complete (e.g. ending after a full data
    // row); the rest must fail cleanly. Either way: no crash.
    if (!dataset.ok()) {
      EXPECT_FALSE(dataset.status().message().empty());
    }
  }
}

TEST(ArffHardeningTest, GarbageInputsAreStatusErrors) {
  const std::vector<std::string> cases = {
      "",
      "\n\n\n",
      "complete garbage",
      "@data\n1,2,3\n",                            // Data before attributes.
      "@relation x\n@attribute a numeric\n@data\n en,dash \n",
      "@relation x\n@attribute class {a,b}\n@data\nc\n",  // Unknown label.
      "@relation x\n@attribute a numeric\n@attribute class {y,n}\n"
      "@data\n1\n",                                // Too few columns.
      "@relation x\n@attribute a numeric\n@attribute class {y,n}\n"
      "@data\n1,2,3,4\n",                          // Too many columns.
      std::string(3, '\0') + "@relation x\n",      // Embedded NULs.
      "@relation \xff\xfe\n@data\n",               // Non-UTF8 bytes.
  };
  for (const auto& text : cases) {
    auto dataset = ReadArffString(text);
    EXPECT_FALSE(dataset.ok()) << "accepted: " << text.substr(0, 40);
  }
}

// ---------------------------------------------------------------------------
// CSV
// ---------------------------------------------------------------------------

TEST(CsvHardeningTest, GarbageInputsAreStatusErrors) {
  const std::vector<std::string> cases = {
      "",
      "\n",
      "a,b,class\n",              // Header only, zero rows.
      "a,b,class\n1,2\n",         // Ragged row (too few fields).
      "a,b,class\n1,2,3,4\n",     // Ragged row (too many fields).
  };
  for (const auto& text : cases) {
    auto dataset = ReadCsvString(text);
    EXPECT_FALSE(dataset.ok()) << "accepted: " << text.substr(0, 40);
  }
}

TEST(CsvHardeningTest, TruncationsOfValidFileNeverCrash) {
  const std::string good = "a,b,class\n1.5,2.5,x\n3.5,4.5,y\n2.5,3.5,x\n";
  for (size_t len = 0; len < good.size(); ++len) {
    auto dataset = ReadCsvString(good.substr(0, len));
    if (!dataset.ok()) {
      EXPECT_FALSE(dataset.status().message().empty());
    }
  }
}

// ---------------------------------------------------------------------------
// KB cache
// ---------------------------------------------------------------------------

std::string SerializedKb() {
  KnowledgeBase kb;
  for (int i = 0; i < 3; ++i) {
    KbRecord record;
    record.dataset_name = "ds_" + std::to_string(i);
    record.meta_features[0] = 10.0 * i;
    KbAlgorithmResult result;
    result.algorithm = "svm";
    result.accuracy = 0.5;
    record.results.push_back(result);
    kb.AddRecord(record);
  }
  return kb.Serialize();
}

TEST(KbHardeningTest, GarbageInputsAreStatusErrors) {
  const std::vector<std::string> cases = {
      "complete garbage",
      "smartml_kb not_a_version\n",
      "\x00\x01\x02",
      "crc32 deadbeef\n",
  };
  for (const auto& text : cases) {
    auto kb = KnowledgeBase::Deserialize(text);
    EXPECT_FALSE(kb.ok()) << "accepted: " << text.substr(0, 40);
  }
}

TEST(KbHardeningTest, EveryTruncationParsesStrictlyOrFailsCleanly) {
  const std::string good = SerializedKb();
  for (size_t len = 0; len < good.size(); ++len) {
    auto kb = KnowledgeBase::Deserialize(good.substr(0, len));
    if (kb.ok()) {
      EXPECT_LE(kb->NumRecords(), 3u);
    }
  }
}

TEST(KbHardeningTest, EveryTruncationSalvagesWithoutCrashing) {
  const std::string good = SerializedKb();
  for (size_t len = 0; len < good.size(); ++len) {
    size_t skipped = 0;
    auto kb = KnowledgeBase::DeserializeSalvage(good.substr(0, len), &skipped);
    if (kb.ok()) {
      EXPECT_LE(kb->NumRecords(), 3u);
    }
  }
}

TEST(KbHardeningTest, ByteFlipsAreDetectedByTheChecksum) {
  const std::string good = SerializedKb();
  // Flip a byte at several positions across the body; the strict parser must
  // either reject (checksum/format) — flips inside numeric fields must never
  // pass the checksum silently.
  for (size_t pos = 0; pos < good.size(); pos += 7) {
    std::string corrupted = good;
    corrupted[pos] ^= 0x04;
    if (corrupted == good) continue;
    auto kb = KnowledgeBase::Deserialize(corrupted);
    EXPECT_FALSE(kb.ok()) << "undetected corruption at byte " << pos;
  }
}

TEST(KbHardeningTest, SalvageReportsSkippedLines) {
  std::string torn = SerializedKb();
  torn = torn.substr(0, torn.size() / 2);
  torn += "\nnot a kb line at all\n";
  size_t skipped = 0;
  auto kb = KnowledgeBase::DeserializeSalvage(torn, &skipped);
  ASSERT_TRUE(kb.ok()) << kb.status().ToString();
  EXPECT_GE(skipped, 1u);
}

// ---------------------------------------------------------------------------
// Job journal + checkpoint store (the durability layer's external inputs:
// segment files on disk after a crash, each exercised under the fault points
// the layer introduces — journal_write_torn, journal_fsync_fail,
// checkpoint_corrupt)
// ---------------------------------------------------------------------------

class JournalHardeningTest : public testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(FaultInjection::Instance().SetSpec("").ok());
    dir_ = testing::TempDir() + "/journal_hardening_" +
           std::to_string(::getpid()) + "_" + std::to_string(counter_++);
    // A dead process with the same pid may have left this directory behind.
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override {
    ASSERT_TRUE(FaultInjection::Instance().SetSpec("").ok());
  }

  static size_t CountReplayed(const std::string& dir) {
    auto journal = JobJournal::Open(dir);
    EXPECT_TRUE(journal.ok());
    size_t count = 0;
    auto stats = (*journal)->Replay([&](const JournalRecord&) { ++count; });
    EXPECT_TRUE(stats.ok());
    return count;
  }

  std::string dir_;
  static int counter_;
};

int JournalHardeningTest::counter_ = 0;

TEST_F(JournalHardeningTest, GarbageSegmentFilesNeverCrashReplay) {
  const std::vector<std::string> garbage = {
      "",
      "not a journal at all",
      std::string(64, '\0'),
      std::string(64, '\xff'),                    // Huge body_len prefix.
      std::string("\x04\x00\x00\x00") + "zzzz",   // Length, then garbage crc.
      EncodeJournalFrame({1, "k", "v"}).substr(0, 7),  // Sub-header tail.
  };
  for (const std::string& bytes : garbage) {
    const std::string dir = dir_ + "_g" + std::to_string(&bytes - &garbage[0]);
    ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
    std::ofstream out(dir + "/journal-000001.wal", std::ios::binary);
    out << bytes;
    out.close();
    EXPECT_EQ(CountReplayed(dir), 0u) << "fabricated records from garbage";
  }
}

TEST_F(JournalHardeningTest, TornWriteAtEveryRecordSalvagesThePrefix) {
  // Fire journal_write_torn on the k-th append: replay must salvage exactly
  // the k records before it, for every k.
  for (size_t k = 0; k < 5; ++k) {
    const std::string dir = dir_ + "_t" + std::to_string(k);
    {
      auto journal = JobJournal::Open(dir);
      ASSERT_TRUE(journal.ok());
      for (size_t i = 0; i < 5; ++i) {
        if (i == k) {
          ASSERT_TRUE(FaultInjection::Instance()
                          .SetSpec("journal_write_torn:1x")
                          .ok());
        }
        (void)(*journal)->Append(
            {1, "job-" + std::to_string(i), "payload"});
      }
      ASSERT_TRUE(FaultInjection::Instance().SetSpec("").ok());
    }
    // Salvage stops at the torn frame: the records after it were written
    // into the same segment and are unreachable until compaction rewrites
    // it — exactly the crash-consistency contract.
    EXPECT_EQ(CountReplayed(dir), k) << "torn append " << k;
  }
}

TEST_F(JournalHardeningTest, FsyncFailuresLeaveTheJournalConsistent) {
  {
    auto journal = JobJournal::Open(dir_);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE((*journal)->Append({1, "a", "ok"}).ok());
    // Every other append fails its fsync; the caller sees the error either
    // way, and the journal must stay appendable and replayable.
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(
          FaultInjection::Instance().SetSpec("journal_fsync_fail:1x").ok());
      EXPECT_FALSE((*journal)->Append({1, "flaky", "x"}).ok());
      ASSERT_TRUE(FaultInjection::Instance().SetSpec("").ok());
      ASSERT_TRUE((*journal)->Append({1, "b", "ok"}).ok());
    }
  }
  // Unacknowledged records may or may not survive (fsync failed after the
  // write); acknowledged ones must. No crash, no fabricated records.
  auto journal = JobJournal::Open(dir_);
  ASSERT_TRUE(journal.ok());
  size_t acked = 0, total = 0;
  auto stats = (*journal)->Replay([&](const JournalRecord& record) {
    ++total;
    if (record.payload == "ok") ++acked;
  });
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(acked, 7u);
  EXPECT_LE(total, 13u);
}

TEST_F(JournalHardeningTest, CheckpointByteFlipsNeverReturnCorruptData) {
  FileCheckpointStore store(dir_);
  const std::string blob = "generation 7 rng 0x1p3 incumbent 0.25\n";
  ASSERT_TRUE(store.Put("job/state", blob).ok());
  const std::string path = dir_ + "/" + FileCheckpointStore::SanitizeKey(
                                            "job/state");
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string good = buf.str();
  in.close();
  for (size_t pos = 0; pos < good.size(); ++pos) {
    std::string bad = good;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x20);
    if (bad == good) continue;
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << bad;
    }
    auto loaded = store.Get("job/state");
    // A flip inside the hex trailer may be semantically neutral (case of a
    // hex digit); every other flip must fail the crc. Never corrupt data.
    if (loaded.ok()) {
      EXPECT_EQ(*loaded, blob) << "silent corruption at byte " << pos;
    }
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << good;
}

TEST_F(JournalHardeningTest, CheckpointCorruptFaultAlwaysFailsClosed) {
  FileCheckpointStore store(dir_);
  ASSERT_TRUE(store.Put("job/state", "tuner state").ok());
  ASSERT_TRUE(FaultInjection::Instance().SetSpec("checkpoint_corrupt").ok());
  for (int i = 0; i < 8; ++i) {
    auto loaded = store.Get("job/state");
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.status().code(), StatusCode::kNotFound);
  }
  ASSERT_TRUE(FaultInjection::Instance().SetSpec("").ok());
  auto clean = store.Get("job/state");
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(*clean, "tuner state");
}

// ---------------------------------------------------------------------------
// HTTP request framing (RFC 9112 §6)
// ---------------------------------------------------------------------------

StatusOr<HttpRequest> ParseWithHeaders(const std::string& headers) {
  return ParseHttpRequest("POST /v1/select HTTP/1.1\r\nHost: x\r\n" + headers +
                          "\r\n");
}

TEST(HttpFramingTest, ContentLengthMustBeDigitsThatFitInt64) {
  for (const char* bad :
       {"-1", "5abc", "+5", "0x10", "1 2", "", "9223372036854775808",
        "99999999999999999999999"}) {
    auto parsed =
        ParseWithHeaders(std::string("Content-Length: ") + bad + "\r\n");
    ASSERT_FALSE(parsed.ok()) << bad;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(parsed.status().message().find("Content-Length"),
              std::string::npos)
        << parsed.status().ToString();
  }
  auto max = ParseWithHeaders("Content-Length: 9223372036854775807\r\n");
  ASSERT_TRUE(max.ok()) << max.status().ToString();
  EXPECT_EQ(max->headers.at("content-length"), "9223372036854775807");
}

TEST(HttpFramingTest, DuplicateContentLengthsMustAgree) {
  auto conflicting =
      ParseWithHeaders("Content-Length: 5\r\nContent-Length: 50\r\n");
  ASSERT_FALSE(conflicting.ok());
  EXPECT_EQ(conflicting.status().code(), StatusCode::kInvalidArgument);
  // Repeats of one value (leading zeros included) frame the same body.
  auto agreeing =
      ParseWithHeaders("Content-Length: 5\r\ncontent-length: 005\r\n");
  ASSERT_TRUE(agreeing.ok()) << agreeing.status().ToString();
  EXPECT_EQ(agreeing->headers.at("content-length"), "5");
}

TEST(HttpFramingTest, AnyTransferEncodingIsNotImplemented) {
  for (const char* coding : {"chunked", "gzip, chunked", "identity"}) {
    auto parsed = ParseWithHeaders(std::string("Transfer-Encoding: ") +
                                   coding + "\r\nContent-Length: 3\r\n");
    ASSERT_FALSE(parsed.ok()) << coding;
    EXPECT_EQ(parsed.status().code(), StatusCode::kUnimplemented) << coding;
  }
}

// A TE.CL smuggling attempt: a front end honouring Transfer-Encoding sees
// one request whose chunk is a GET, while Content-Length framing would end
// the body after the chunk-size line and run that GET as a second request.
// The server must answer 501 once and close instead.
TEST(HttpFramingTest, ChunkedBodyIsNotRunAsASecondRequest) {
  SmartML framework;
  RestService service(&framework);
  HttpServer server(&service, HttpServerOptions());
  auto port = server.Bind(0);
  ASSERT_TRUE(port.ok()) << port.status().ToString();
  std::thread serve([&] { EXPECT_TRUE(server.Serve().ok()); });

  const std::string smuggled = "GET /v1/health HTTP/1.1\r\nHost: x\r\n\r\n";
  const std::string size_line = StrFormat("%zx\r\n", smuggled.size());
  const std::string wire =
      StrFormat("POST /v1/algorithms HTTP/1.1\r\nHost: x\r\n"
                "Content-Length: %zu\r\nTransfer-Encoding: chunked\r\n\r\n",
                size_line.size()) +
      size_line + smuggled + "\r\n0\r\n\r\n";

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(*port));
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(::write(fd, wire.data(), wire.size()),
            static_cast<ssize_t>(wire.size()));
  std::string reply;  // Read to EOF: the server must close the connection.
  char buffer[4096];
  ssize_t n;
  while ((n = ::read(fd, buffer, sizeof(buffer))) > 0) {
    reply.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  server.Stop();
  serve.join();

  EXPECT_EQ(reply.rfind("HTTP/1.1 501 Not Implemented\r\n", 0), 0u) << reply;
  EXPECT_EQ(reply.find("HTTP/1.1", 1), std::string::npos)
      << "a second response means the chunk ran as a request:\n" << reply;
  EXPECT_NE(reply.find("Connection: close"), std::string::npos) << reply;
  EXPECT_EQ(server.requests_served(), 1);
}

// Sends `pieces` to a fresh loopback server, pausing between them so each
// arrives in its own read, then reads the reply until the server closes the
// connection. The client gives up after 5 s, half the server's I/O timeout,
// so a server that waits for more bytes fails the test instead of answering
// 408. Returns the reply and the number of requests the server served.
std::pair<std::string, int64_t> Exchange(
    const std::vector<std::string>& pieces) {
  SmartML framework;
  RestService service(&framework);
  HttpServer server(&service, HttpServerOptions());
  auto port = server.Bind(0);
  EXPECT_TRUE(port.ok()) << port.status().ToString();
  std::thread serve([&] { EXPECT_TRUE(server.Serve().ok()); });

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  timeval timeout{};
  timeout.tv_sec = 5;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(*port));
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_EQ(::write(fd, pieces[i].data(), pieces[i].size()),
              static_cast<ssize_t>(pieces[i].size()));
  }
  std::string reply;
  char buffer[4096];
  ssize_t n;
  while ((n = ::read(fd, buffer, sizeof(buffer))) > 0) {
    reply.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  server.Stop();
  serve.join();
  return {reply, server.requests_served()};
}

// A Content-Length over the body cap is answered 413 at once, without
// waiting for (or reading) the body, and the connection closes.
TEST(HttpFramingTest, OversizedBodyIsRejectedBeforeItIsRead) {
  const auto [reply, served] = Exchange(
      {"POST /v1/metafeatures HTTP/1.1\r\nHost: x\r\n"
       "Content-Length: 16777217\r\n\r\nf1,class\n"});
  EXPECT_EQ(reply.rfind("HTTP/1.1 413 Content Too Large\r\n", 0), 0u)
      << reply;
  EXPECT_NE(reply.find("payload_too_large"), std::string::npos) << reply;
  EXPECT_NE(reply.find("Connection: close"), std::string::npos) << reply;
  EXPECT_EQ(served, 1);
}

// A header block that passes 64 KiB without its blank line is answered 431
// and the connection closes. The request is exactly one byte over the cap,
// so the server has read all of it when it answers.
TEST(HttpFramingTest, OversizedHeaderBlockGets431) {
  std::string head = "GET /v1/health HTTP/1.1\r\nHost: x\r\nX-Pad: ";
  head.append(64 * 1024 + 1 - head.size(), 'a');
  const auto [reply, served] = Exchange({head});
  EXPECT_EQ(
      reply.rfind("HTTP/1.1 431 Request Header Fields Too Large\r\n", 0), 0u)
      << reply.substr(0, 200);
  EXPECT_NE(reply.find("Connection: close"), std::string::npos) << reply;
  EXPECT_EQ(served, 1);
}

// The terminator search resumes after each read: a blank line split across
// two reads, and a header block sent a few bytes at a time, still frame.
TEST(HttpFramingTest, HeaderTerminatorSplitAcrossReads) {
  const auto [reply, served] =
      Exchange({"GET /v1/health HTTP/1.1\r\nHo", "st: x\r\nConnection:",
                " close\r\n\r", "\n"});
  EXPECT_EQ(reply.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << reply;
  EXPECT_EQ(served, 1);
}

// A body several read windows long, arriving in pieces (the first with its
// header, the last followed by a pipelined request), is read whole and
// exactly: the reply is the in-process one, and the pipelined request is
// served after it.
TEST(HttpFramingTest, LargeBodyInPiecesIsReadExactly) {
  SyntheticSpec spec;
  spec.num_instances = 600;
  spec.num_informative = 20;
  spec.seed = 5;
  const std::string csv = WriteCsvString(GenerateSynthetic(spec));
  ASSERT_GT(csv.size(), 3u * 64 * 1024);
  const std::string head = StrFormat(
      "POST /v1/metafeatures HTTP/1.1\r\nHost: x\r\nContent-Length: %zu\r\n\r\n",
      csv.size());
  const std::string next =
      "GET /v1/health HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n";
  const auto [reply, served] =
      Exchange({head + csv.substr(0, 100), csv.substr(100, 70000),
                csv.substr(70100, 80000), csv.substr(150100) + next});

  SmartML framework;
  RestService service(&framework);
  HttpRequest request;
  request.method = "POST";
  request.path = "/v1/metafeatures";
  request.body = csv;
  const HttpResponse want = service.Handle(request);
  ASSERT_EQ(want.status, 200) << want.body;
  EXPECT_EQ(reply.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << reply.substr(0, 300);
  const size_t first_body = reply.find("\r\n\r\n") + 4;
  EXPECT_EQ(reply.compare(first_body, want.body.size(), want.body), 0)
      << reply.substr(0, 300);
  EXPECT_NE(reply.find("HTTP/1.1 200 OK\r\n", first_body), std::string::npos)
      << "the pipelined request was not served";
  EXPECT_EQ(served, 2);
}

// A client that pipelines requests and hangs up without reading the
// responses makes the server's later writes fail with EPIPE. That must drop
// the connection, not raise SIGPIPE and kill the process: a fresh
// connection afterwards still gets its 200. One server worker, so the fresh
// connection is served only after the hung-up one was handled.
TEST(HttpFramingTest, ClientHangupDoesNotKillTheServer) {
  SmartML framework;
  RestService service(&framework);
  HttpServerOptions options;
  options.num_workers = 1;
  HttpServer server(&service, options);
  auto port = server.Bind(0);
  ASSERT_TRUE(port.ok()) << port.status().ToString();
  std::thread serve([&] { EXPECT_TRUE(server.Serve().ok()); });

  auto connect = [&] {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(*port));
    EXPECT_EQ(
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    return fd;
  };
  std::string pipelined;
  for (int i = 0; i < 8; ++i) {
    pipelined += "GET /v1/health HTTP/1.1\r\nHost: x\r\n\r\n";
  }
  const int hangup = connect();
  ASSERT_EQ(::write(hangup, pipelined.data(), pipelined.size()),
            static_cast<ssize_t>(pipelined.size()));
  ::close(hangup);

  const std::string health =
      "GET /v1/health HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n";
  const int fd = connect();
  ASSERT_EQ(::write(fd, health.data(), health.size()),
            static_cast<ssize_t>(health.size()));
  std::string reply;  // Read to EOF: Connection: close.
  char buffer[4096];
  ssize_t n;
  while ((n = ::read(fd, buffer, sizeof(buffer))) > 0) {
    reply.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  server.Stop();
  serve.join();
  EXPECT_EQ(reply.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << reply;
}

}  // namespace
}  // namespace smartml
