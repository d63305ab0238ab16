// Concurrency and correctness coverage for the per-request flight
// recorder (obs/flight_recorder.h): the seqlock ring must never return
// a torn record to a reader racing 8 writers, ids must stay monotone,
// and the ring must wrap without corruption. Part of the TSan ctest
// set in CI.

#include "obs/flight_recorder.h"

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace colossal {
namespace {

// A record whose every field is a function of its id, so any torn read
// (a mix of two records) is detectable by re-deriving the fields.
FlightRecord SelfValidatingRecord(uint64_t id) {
  FlightRecord record;
  record.id = id;
  record.start_unix_nanos = static_cast<int64_t>(id * 3 + 1);
  record.dataset_fingerprint = id * 0x9e3779b97f4a7c15ull;
  record.options_hash = ~id;
  record.response_bytes = static_cast<int64_t>(id * 7);
  record.total_nanos = static_cast<int64_t>(id * 11);
  for (int p = 0; p < kNumTracePhases; ++p) {
    record.phase_nanos[p] = static_cast<int64_t>(id + p);
  }
  record.admission_wait_nanos = static_cast<int64_t>(id * 13);
  record.shards = static_cast<int32_t>(id % 64);
  record.shard_parallelism = static_cast<int32_t>(id % 8);
  SetFlightField(record.transport, id % 2 == 0 ? "tcp" : "http");
  SetFlightField(record.source, id % 3 == 0 ? "mined" : "cache");
  SetFlightField(record.status, "OK");
  const std::string dataset = "/data/set_" + std::to_string(id) + ".fimi";
  SetFlightField(record.dataset, dataset);
  return record;
}

::testing::AssertionResult IsSelfConsistent(const FlightRecord& record) {
  const FlightRecord want = SelfValidatingRecord(record.id);
  if (std::memcmp(&record, &want, sizeof(FlightRecord)) != 0) {
    return ::testing::AssertionFailure()
           << "torn record for id " << record.id;
  }
  return ::testing::AssertionSuccess();
}

TEST(FlightRecorderTest, MintIdIsMonotoneFromOne) {
  FlightRecorder recorder(4);
  EXPECT_EQ(recorder.MintId(), 1u);
  EXPECT_EQ(recorder.MintId(), 2u);
  EXPECT_EQ(recorder.MintId(), 3u);
}

TEST(FlightRecorderTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(FlightRecorder(1).capacity(), 2u);
  EXPECT_EQ(FlightRecorder(5).capacity(), 8u);
  EXPECT_EQ(FlightRecorder(64).capacity(), 64u);
  EXPECT_EQ(FlightRecorder().capacity(), FlightRecorder::kDefaultCapacity);
}

TEST(FlightRecorderTest, RecordFindRoundTripsEveryField) {
  FlightRecorder recorder(8);
  const FlightRecord record = SelfValidatingRecord(recorder.MintId());
  recorder.Record(record);

  FlightRecord found;
  ASSERT_TRUE(recorder.Find(record.id, &found));
  EXPECT_TRUE(IsSelfConsistent(found));
  EXPECT_EQ(found.id, record.id);
  EXPECT_EQ(recorder.recorded(), 1);
  EXPECT_EQ(recorder.dropped(), 0);

  EXPECT_FALSE(recorder.Find(999, &found));
}

TEST(FlightRecorderTest, RecentIsNewestFirstAndBounded) {
  FlightRecorder recorder(8);
  for (int i = 0; i < 5; ++i) {
    recorder.Record(SelfValidatingRecord(recorder.MintId()));
  }
  std::vector<FlightRecord> recent = recorder.Recent(3);
  ASSERT_EQ(recent.size(), 3u);
  EXPECT_EQ(recent[0].id, 5u);
  EXPECT_EQ(recent[1].id, 4u);
  EXPECT_EQ(recent[2].id, 3u);

  recent = recorder.Recent(100);
  ASSERT_EQ(recent.size(), 5u);
  for (size_t i = 0; i < recent.size(); ++i) {
    EXPECT_EQ(recent[i].id, 5u - i);
    EXPECT_TRUE(IsSelfConsistent(recent[i]));
  }
}

TEST(FlightRecorderTest, RingWrapKeepsOnlyTheNewest) {
  FlightRecorder recorder(4);  // capacity 4 exactly
  for (int i = 0; i < 10; ++i) {
    recorder.Record(SelfValidatingRecord(recorder.MintId()));
  }
  const std::vector<FlightRecord> recent = recorder.Recent(100);
  ASSERT_EQ(recent.size(), 4u);
  for (size_t i = 0; i < recent.size(); ++i) {
    EXPECT_EQ(recent[i].id, 10u - i);
    EXPECT_TRUE(IsSelfConsistent(recent[i]));
  }
  // Overwritten ids are gone; surviving ids are found intact.
  FlightRecord found;
  EXPECT_FALSE(recorder.Find(1, &found));
  EXPECT_FALSE(recorder.Find(6, &found));
  ASSERT_TRUE(recorder.Find(7, &found));
  EXPECT_TRUE(IsSelfConsistent(found));
  EXPECT_EQ(recorder.recorded(), 10);
}

// 8 writers hammer a deliberately small ring while readers continuously
// call Recent() and Find(): every record a reader ever sees must be
// self-consistent (the seqlock skipped every torn slot), and ids in a
// Recent() snapshot must be strictly descending.
TEST(FlightRecorderTest, ConcurrentWritersNeverTearReads) {
  constexpr int kWriters = 8;
  constexpr int kPerWriter = 2000;
  FlightRecorder recorder(64);

  std::atomic<bool> stop{false};
  std::atomic<int64_t> reads_checked{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&recorder, &stop, &reads_checked]() {
      uint64_t probe = 1;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::vector<FlightRecord> recent = recorder.Recent(32);
        uint64_t prev = ~uint64_t{0};
        for (const FlightRecord& record : recent) {
          ASSERT_TRUE(IsSelfConsistent(record));
          ASSERT_LT(record.id, prev) << "Recent() ids not descending";
          prev = record.id;
        }
        FlightRecord found;
        if (recorder.Find(probe, &found)) {
          ASSERT_TRUE(IsSelfConsistent(found));
          ASSERT_EQ(found.id, probe);
        }
        probe = probe % (kWriters * kPerWriter) + 1;
        reads_checked.fetch_add(1 + static_cast<int64_t>(recent.size()),
                                std::memory_order_relaxed);
      }
    });
  }

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&recorder]() {
      for (int i = 0; i < kPerWriter; ++i) {
        recorder.Record(SelfValidatingRecord(recorder.MintId()));
      }
    });
  }
  for (std::thread& writer : writers) writer.join();
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& reader : readers) reader.join();

  EXPECT_GT(reads_checked.load(), 0);
  EXPECT_EQ(recorder.recorded() + recorder.dropped(),
            int64_t{kWriters} * kPerWriter);
  // After the dust settles the ring holds intact, distinct, descending
  // records.
  const std::vector<FlightRecord> recent = recorder.Recent(64);
  EXPECT_GT(recent.size(), 0u);
  uint64_t prev = ~uint64_t{0};
  for (const FlightRecord& record : recent) {
    EXPECT_TRUE(IsSelfConsistent(record));
    EXPECT_LT(record.id, prev);
    prev = record.id;
  }
}

TEST(FlightRecorderTest, JsonCarriesEveryPhaseAndIdentityField) {
  const FlightRecord record = SelfValidatingRecord(42);
  const std::string json = FlightRecordJson(record);
  EXPECT_NE(json.find("\"id\":42"), std::string::npos) << json;
  for (const char* key :
       {"\"start_unix_ms\":", "\"transport\":", "\"dataset\":",
        "\"fingerprint\":", "\"options_hash\":", "\"source\":",
        "\"status\":", "\"response_bytes\":", "\"total_ms\":",
        "\"parse\":", "\"cache_lookup\":", "\"registry\":",
        "\"pool_mine\":", "\"stitch\":", "\"fusion\":", "\"serialize\":",
        "\"admission_wait_ms\":", "\"shards\":", "\"shard_parallelism\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " missing: "
                                                 << json;
  }
}

TEST(FlightRecorderTest, SetFlightFieldTruncatesAndTerminates) {
  char field[8];
  SetFlightField(field, "short");
  EXPECT_STREQ(field, "short");
  SetFlightField(field, "definitely-longer-than-eight");
  EXPECT_EQ(std::strlen(field), 7u);
  EXPECT_STREQ(field, "definit");
}

}  // namespace
}  // namespace colossal
