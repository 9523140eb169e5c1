// ThreadSanitizer-friendly stress tests for the KnowledgeBase shared_mutex
// synchronization: concurrent writers (AddRecord, merge-updates) against
// concurrent readers (NumRecords, SnapshotRecords, Nominate, Serialize) and
// copy construction. Run under SMARTML_SANITIZE=thread to prove the
// reader/writer locking is race-free.
#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "src/kb/knowledge_base.h"

namespace smartml {
namespace {

KbRecord MakeRecord(const std::string& name, double accuracy) {
  KbRecord record;
  record.dataset_name = name;
  for (size_t i = 0; i < kNumMetaFeatures; ++i) {
    record.meta_features[i] = static_cast<double>(i) + accuracy;
  }
  KbAlgorithmResult result;
  result.algorithm = accuracy > 0.5 ? "rf" : "knn";
  result.accuracy = accuracy;
  record.results.push_back(result);
  return record;
}

TEST(KbConcurrencyTest, ReadersAndWritersDoNotRace) {
  KnowledgeBase kb;
  kb.AddRecord(MakeRecord("seed", 0.9));

  constexpr int kWriters = 2;
  constexpr int kReaders = 2;
  constexpr int kIterations = 150;
  std::atomic<bool> stop{false};
  std::atomic<int> reads_done{0};
  // Start latch: writers begin only after every reader and the copier have
  // finished one full iteration. Otherwise, under load, the writers can
  // finish before any reader is scheduled, and nothing reads concurrently.
  std::latch warmed_up(kReaders + 1);
  auto warm = [&warmed_up](bool* counted) {
    if (!*counted) warmed_up.count_down();
    *counted = true;
  };

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&kb, &warmed_up, w] {
      warmed_up.wait();
      for (int i = 0; i < kIterations; ++i) {
        // Alternate fresh inserts with merges into an existing record.
        const bool merge = i % 3 == 0;
        const std::string name =
            merge ? "seed" : "ds-" + std::to_string(w) + "-" + std::to_string(i);
        kb.AddRecord(MakeRecord(name, (i % 10) / 10.0));
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      MetaFeatureVector query{};
      query[0] = 1.0;
      NominationOptions options;
      options.max_algorithms = 3;
      bool counted = false;
      while (!stop.load(std::memory_order_relaxed)) {
        const size_t n = kb.NumRecords();
        const auto snapshot = kb.SnapshotRecords();
        EXPECT_GE(snapshot.size(), 1u);
        EXPECT_GE(n, 1u);
        const auto nominations = kb.Nominate(query, options);
        EXPECT_LE(nominations.size(), options.max_algorithms);
        EXPECT_NE(kb.Serialize().find("smartml-kb"), std::string::npos);
        reads_done.fetch_add(1, std::memory_order_relaxed);
        warm(&counted);
      }
    });
  }
  // Concurrent copies (used by StatusOr plumbing) must also be safe.
  threads.emplace_back([&] {
    bool counted = false;
    while (!stop.load(std::memory_order_relaxed)) {
      KnowledgeBase copy = kb;
      EXPECT_GE(copy.NumRecords(), 1u);
      warm(&counted);
    }
  });

  for (int w = 0; w < kWriters; ++w) threads[w].join();
  stop.store(true);
  for (size_t t = kWriters; t < threads.size(); ++t) threads[t].join();

  EXPECT_GT(reads_done.load(), 0);
  // No lost updates: "seed" plus each writer's fresh inserts (i % 3 != 0).
  size_t fresh_per_writer = 0;
  for (int i = 0; i < kIterations; ++i) {
    if (i % 3 != 0) ++fresh_per_writer;
  }
  EXPECT_EQ(kb.NumRecords(), 1u + kWriters * fresh_per_writer);
}

TEST(KbConcurrencyTest, FindAndNearestRecordsDoNotRaceWithAddRecord) {
  // Regression for the pointer-stability bug: Find/NearestRecords used to
  // return pointers into records_, which a concurrent AddRecord push_back
  // could reallocate out from under the reader (use-after-free under TSan/
  // ASan). The copy-returning API must let readers keep using results while
  // writers grow the KB.
  KnowledgeBase kb;
  kb.AddRecord(MakeRecord("stable", 0.9));

  constexpr int kInserts = 300;
  std::atomic<bool> stop{false};
  std::atomic<int> lookups_done{0};

  std::vector<std::thread> threads;
  // One writer forcing many reallocations of the record vector.
  threads.emplace_back([&kb] {
    for (int i = 0; i < kInserts; ++i) {
      kb.AddRecord(MakeRecord("grow-" + std::to_string(i), (i % 10) / 10.0));
    }
  });
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&] {
      MetaFeatureVector query{};
      query[0] = 1.0;
      while (!stop.load(std::memory_order_relaxed)) {
        // Hammer the copy-returning lookups and *use* the results after the
        // call returns — exactly what dangled before the fix.
        const std::optional<KbRecord> found = kb.Find("stable");
        ASSERT_TRUE(found.has_value());
        EXPECT_EQ(found->dataset_name, "stable");
        EXPECT_FALSE(found->results.empty());

        const auto neighbors = kb.NearestRecords(query, 3);
        for (const auto& neighbor : neighbors) {
          EXPECT_FALSE(neighbor.record.dataset_name.empty());
          EXPECT_GE(neighbor.distance, 0.0);
        }
        lookups_done.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  threads[0].join();
  // Under heavy machine load the writer can finish before a reader gets
  // through one iteration; hold the readers open until at least one full
  // lookup round completed so the assertion below is meaningful.
  while (lookups_done.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }
  stop.store(true);
  for (size_t t = 1; t < threads.size(); ++t) threads[t].join();

  EXPECT_GT(lookups_done.load(), 0);
  EXPECT_EQ(kb.NumRecords(), 1u + kInserts);
}

TEST(KbConcurrencyTest, SerializeIsConsistentUnderWrites) {
  KnowledgeBase kb;
  std::thread writer([&kb] {
    for (int i = 0; i < 100; ++i) {
      kb.AddRecord(MakeRecord("ds-" + std::to_string(i), 0.8));
    }
  });
  // Every serialized snapshot must round-trip, even mid-write.
  for (int i = 0; i < 20; ++i) {
    auto restored = KnowledgeBase::Deserialize(kb.Serialize());
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    EXPECT_LE(restored->NumRecords(), 100u);
  }
  writer.join();
  EXPECT_EQ(kb.NumRecords(), 100u);
}

}  // namespace
}  // namespace smartml
