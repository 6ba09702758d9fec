// Shard write path (DESIGN.md §13.3): journal-driven snapshot publish,
// one publish per RESTORE, and snapshot timestamps rebased into the
// reader's clock.  The churn test races readers against every kind of
// journaled write; run it under ThreadSanitizer via scripts/tsan.sh.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/snapshot.h"
#include "embedding/simd_kernels.h"
#include "serve/concurrent_engine.h"
#include "test_helpers.h"

namespace cortex {
namespace {

using cortex::testing::MiniWorld;
using serve::ConcurrentEngineOptions;
using serve::ConcurrentShardedEngine;

std::vector<SeId> Sorted(std::vector<SeId> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

class WritePathTest : public ::testing::Test {
 protected:
  WritePathTest() : world_(64, /*seed=*/53) {}

  ConcurrentEngineOptions BaseOptions(std::atomic<double>* clock) {
    ConcurrentEngineOptions opts;
    opts.num_shards = 4;
    opts.cache.capacity_tokens = 1e7;
    opts.housekeeping_interval_sec = 0.0;
    if (clock != nullptr) opts.clock = [clock] { return clock->load(); };
    return opts;
  }

  InsertRequest RequestFor(std::size_t topic, std::size_t paraphrase = 0) {
    InsertRequest req;
    req.key = world_.query(topic, paraphrase);
    req.value = world_.answer(topic);
    req.staticity = world_.topic(topic).staticity;
    req.initial_frequency = 1;
    return req;
  }

  // Every shard's published snapshot holds exactly the store's ids.
  void ExpectSnapshotsMatchStore(ConcurrentShardedEngine& engine,
                                 const std::string& context) {
    for (std::size_t s = 0; s < engine.num_shards(); ++s) {
      ASSERT_EQ(Sorted(engine.PublishedIds(s)), Sorted(engine.StoreIds(s)))
          << "shard " << s << " after " << context;
    }
  }

  std::uint64_t CounterValue(ConcurrentShardedEngine& engine,
                             const char* name) {
    return engine.registry()->GetCounter(name)->Value();
  }

  MiniWorld world_;
};

// A snapshot mixing every RestoreElement path: plain restores, entries
// already expired at load, value duplicates (dedup), and exact-key
// collisions with new content (replace).
std::vector<SemanticElement> MixedElements(const MiniWorld& world) {
  std::vector<SemanticElement> out;
  const std::size_t topics = world.universe->size();
  for (std::size_t t = 0; t < topics; ++t) {
    SemanticElement se;
    se.key = world.query(t, 0);
    se.value = world.answer(t);
    se.staticity = world.topic(t).staticity;
    se.frequency = t % 7;
    se.created_at = 1.0;
    se.last_access = 2.0;
    se.expiration_time = t % 9 == 0 ? 5.0 : 1e6 + static_cast<double>(t);
    out.push_back(se);
    if (t % 5 == 0) {  // same knowledge under another phrasing: dedup
      se.key = world.query(t, 1);
      se.frequency = 11;
      se.expiration_time = 2e6;
      out.push_back(se);
    }
    if (t % 8 == 0) {  // same key, new content: replace
      se.key = world.query(t, 0);
      se.value = world.answer(t) + " (revised)";
      out.push_back(se);
    }
  }
  return out;
}

TEST_F(WritePathTest, BulkRestoreMatchesPerElementRestore) {
  const std::vector<SemanticElement> elements = MixedElements(world_);
  std::ostringstream blob;
  serve::WriteEngineSnapshot(blob, elements);

  for (const RowFormat format :
       {RowFormat::kF32, RowFormat::kF16, RowFormat::kI8}) {
    std::atomic<double> now{10.0};
    ConcurrentEngineOptions opts = BaseOptions(&now);
    opts.probe_scan_format = format;
    ConcurrentShardedEngine bulk(&world_.embedder, world_.judger.get(), opts);
    ConcurrentShardedEngine single(&world_.embedder, world_.judger.get(),
                                   opts);

    std::istringstream in(blob.str());
    const SnapshotStats stats = bulk.LoadSnapshot(in);
    std::size_t restored = 0;
    for (const SemanticElement& se : elements) {
      if (se.ExpiredAt(now.load())) continue;
      if (single.RestoreElement(se)) ++restored;
    }
    EXPECT_EQ(stats.entries_restored, restored);
    EXPECT_GT(stats.entries_expired, 0u);

    const std::string fmt = RowFormatName(format);
    EXPECT_EQ(bulk.TotalSize(), single.TotalSize()) << fmt;
    EXPECT_EQ(bulk.TotalUsageTokens(), single.TotalUsageTokens()) << fmt;
    const CacheCounters a = bulk.TotalCounters();
    const CacheCounters b = single.TotalCounters();
    EXPECT_EQ(a.insertions, b.insertions) << fmt;
    EXPECT_EQ(a.evictions, b.evictions) << fmt;
    EXPECT_EQ(a.expirations, b.expirations) << fmt;
    EXPECT_EQ(a.dedup_refreshes, b.dedup_refreshes) << fmt;
    EXPECT_EQ(a.rejected_too_large, b.rejected_too_large) << fmt;
    ExpectSnapshotsMatchStore(bulk, "bulk restore " + fmt);
    ExpectSnapshotsMatchStore(single, "per-element restore " + fmt);

    for (std::size_t t = 0; t < world_.universe->size(); ++t) {
      for (std::size_t p = 0; p < 6; ++p) {
        const auto& q = world_.query(t, p);
        const auto x = bulk.Peek(q);
        const auto y = single.Peek(q);
        ASSERT_EQ(x.has_value(), y.has_value()) << fmt << " q=" << q;
        if (x) {
          EXPECT_EQ(x->id, y->id);
          EXPECT_EQ(x->value, y->value);
          EXPECT_EQ(x->matched_key, y->matched_key);
          EXPECT_EQ(x->similarity, y->similarity);
          EXPECT_EQ(x->judger_score, y->judger_score);
        }
      }
    }
  }
}

TEST_F(WritePathTest, RestorePublishesOncePerTouchedShard) {
  std::atomic<double> now{10.0};
  ConcurrentShardedEngine engine(&world_.embedder, world_.judger.get(),
                                 BaseOptions(&now));
  const std::vector<SemanticElement> elements = MixedElements(world_);
  std::vector<char> touched(engine.num_shards(), 0);
  for (const SemanticElement& se : elements) {
    touched[engine.ShardFor(se.key)] = 1;
  }
  const auto shards_touched = static_cast<std::uint64_t>(
      std::count(touched.begin(), touched.end(), 1));

  std::ostringstream blob;
  serve::WriteEngineSnapshot(blob, elements);
  std::istringstream in(blob.str());
  const std::uint64_t before =
      CounterValue(engine, "cortex_engine_snapshot_publishes");
  engine.LoadSnapshot(in);
  EXPECT_EQ(CounterValue(engine, "cortex_engine_snapshot_publishes") - before,
            shards_touched);

  // A single-SE publish copies the shard's previous arrays once, and
  // nothing else.
  const InsertRequest req = RequestFor(3, 2);
  const std::size_t shard = engine.ShardFor(req.key);
  const std::size_t resident = engine.PublishedIds(shard).size();
  InsertRequest fresh = req;
  fresh.value = "a brand new answer";
  const std::uint64_t copied_before =
      CounterValue(engine, "cortex_engine_snapshot_rows_copied");
  ASSERT_TRUE(engine.Insert(std::move(fresh)).has_value());
  EXPECT_EQ(CounterValue(engine, "cortex_engine_snapshot_rows_copied") -
                copied_before,
            resident);
  ExpectSnapshotsMatchStore(engine, "single insert");
}

TEST_F(WritePathTest, WritePathStateIsInStats) {
  std::atomic<double> now{0.0};
  ConcurrentEngineOptions opts = BaseOptions(&now);
  opts.cache.min_ttl_sec = 10.0;
  opts.cache.max_ttl_sec = 10.0;
  ConcurrentShardedEngine engine(&world_.embedder, world_.judger.get(), opts);
  for (std::size_t t = 0; t < 8; ++t) engine.Insert(RequestFor(t));
  now.store(100.0);
  EXPECT_EQ(engine.RemoveExpired(), 8u);
  // Every purged row waits out its grace period in limbo.
  EXPECT_GE(engine.registry()->GetGauge("cortex_engine_limbo_rows")->Value(),
            1.0);
  // The flat key=value pairs the STATS wire response carries.
  std::vector<std::pair<std::string, std::string>> stats;
  engine.registry()->Snapshot().AppendKeyValues(&stats);
  for (const char* key :
       {"cortex_engine_snapshot_publishes",
        "cortex_engine_snapshot_rows_copied",
        "cortex_engine_publish_seconds_p99", "cortex_engine_limbo_rows",
        "cortex_engine_restore_future_dated", "cortex_engine_epoch_lag",
        "cortex_engine_retired_pending"}) {
    EXPECT_TRUE(std::any_of(stats.begin(), stats.end(),
                            [&](const auto& kv) { return kv.first == key; }))
        << key;
  }
  EXPECT_GT(CounterValue(engine, "cortex_engine_snapshot_publishes"), 0u);
}

// cortex_engine_scan_rows counts snapshot rows streamed by stage-1 scans:
// every probed shard group (a Peek, or one shard's share of a LookupBatch)
// adds its snapshot's size once.
TEST_F(WritePathTest, ScanRowsCountProbedSnapshotSizes) {
  ConcurrentShardedEngine engine(&world_.embedder, world_.judger.get(),
                                 BaseOptions(nullptr));
  for (std::size_t t = 0; t < 24; ++t) {
    ASSERT_TRUE(engine.Insert(RequestFor(t)).has_value());
  }
  const auto rows_of = [&](std::string_view q) {
    return static_cast<std::uint64_t>(
        engine.PublishedIds(engine.ShardFor(q)).size());
  };

  std::uint64_t expected = 0;
  for (std::size_t t = 0; t < 8; ++t) {
    const std::string& q = world_.query(t, 1);
    expected += rows_of(q);
    engine.Peek(q);
  }
  ASSERT_GT(expected, 0u);
  EXPECT_EQ(CounterValue(engine, "cortex_engine_scan_rows"), expected);

  // One batch: each distinct shard among its queries is scanned once.
  std::vector<serve::BatchLookupRequest> batch;
  std::vector<bool> probed(engine.num_shards(), false);
  for (std::size_t t = 0; t < 24; t += 2) {
    const std::string& q = world_.query(t, 2);
    const std::size_t shard = engine.ShardFor(q);
    if (!probed[shard]) expected += rows_of(q);
    probed[shard] = true;
    batch.emplace_back().query = q;
  }
  engine.LookupBatch(batch);
  EXPECT_EQ(CounterValue(engine, "cortex_engine_scan_rows"), expected);

  std::vector<std::pair<std::string, std::string>> stats;
  engine.registry()->Snapshot().AppendKeyValues(&stats);
  EXPECT_TRUE(std::any_of(stats.begin(), stats.end(), [](const auto& kv) {
    return kv.first == "cortex_engine_scan_rows";
  }));
}

// Wraps an oracle and parks every judger call for `park_on` until
// released, so a Lookup for that query stays inside its EpochReadGuard.
struct ParkingOracle : EquivalenceOracle {
  const EquivalenceOracle* inner = nullptr;
  std::string park_on;
  mutable std::atomic<bool> parked{false};
  std::atomic<bool> release{false};

  bool Equivalent(std::string_view query,
                  std::string_view cached_query) const override {
    if (query == park_on) {
      parked.store(true);
      while (!release.load()) std::this_thread::yield();
    }
    return inner->Equivalent(query, cached_query);
  }
  double Staticity(std::string_view query) const override {
    return inner->Staticity(query);
  }
};

// Polls `pred` until it holds or 10 s pass.
template <typename Pred>
bool Eventually(Pred pred) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!pred() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

TEST_F(WritePathTest, EpochBacklogGaugesTrackAPinnedReader) {
  ParkingOracle oracle;
  oracle.inner = world_.oracle.get();
  oracle.park_on = world_.query(0, 0);
  JudgerOptions jopts;
  jopts.noise_sigma = 0.5;
  const JudgerModel judger(&oracle, jopts);
  ConcurrentEngineOptions opts = BaseOptions(nullptr);
  // Only the housekeeping thread's epoch flush (every 20 ms of wall time)
  // matters here, not its purge cadence.
  opts.housekeeping_interval_sec = 3600.0;
  ConcurrentShardedEngine engine(&world_.embedder, &judger, opts);
  ASSERT_TRUE(engine.Insert(RequestFor(0)).has_value());
  const auto gauge = [&](const char* name) {
    return engine.registry()->GetGauge(name)->Value();
  };
  const auto drained = [&] {
    return gauge("cortex_engine_epoch_lag") == 0.0 &&
           gauge("cortex_engine_retired_pending") == 0.0;
  };
  ASSERT_TRUE(Eventually(drained));

  std::thread reader([&] { engine.Lookup(oracle.park_on); });
  const bool parked = Eventually([&] { return oracle.parked.load(); });
  // Every publish into the parked query's shard retires a snapshot the
  // reader may still hold.
  const std::size_t shard = engine.ShardFor(oracle.park_on);
  std::size_t published = 0;
  for (std::size_t t = 1; parked && published < 8; ++t) {
    if (engine.ShardFor(world_.query(t, 0)) != shard) continue;
    ASSERT_TRUE(engine.Insert(RequestFor(t)).has_value());
    ++published;
  }
  EXPECT_TRUE(parked && Eventually([&] {
                return gauge("cortex_engine_epoch_lag") == 2.0 &&
                       gauge("cortex_engine_retired_pending") >= 8.0;
              }));
  oracle.release.store(true);
  reader.join();
  EXPECT_TRUE(Eventually(drained));
}

// SEs restored without an embedding (servebench seeds its worlds this
// way) are embedded from their key: querying with the key scores exactly
// dot(Embed(key), Embed(key)) in the fp32 rerank.
TEST_F(WritePathTest, EmbeddinglessRestoreEmbedsTheKey) {
  std::vector<SemanticElement> elements(16);
  for (std::size_t t = 0; t < elements.size(); ++t) {
    elements[t].key = world_.query(t, 0);
    elements[t].value = world_.answer(t);
    elements[t].staticity = world_.topic(t).staticity;
  }
  std::ostringstream blob;
  serve::WriteEngineSnapshot(blob, elements);
  const auto& exact = simd::KernelsFor(simd::Variant::kScalar);

  for (const RowFormat format : {RowFormat::kF32, RowFormat::kI8}) {
    std::atomic<double> now{10.0};
    ConcurrentEngineOptions opts = BaseOptions(&now);
    opts.probe_scan_format = format;
    ConcurrentShardedEngine engine(&world_.embedder, world_.judger.get(), opts);
    std::istringstream in(blob.str());
    ASSERT_EQ(engine.LoadSnapshot(in).entries_restored, 16u);
    for (const SemanticElement& se : elements) {
      const Vector e = world_.embedder.Embed(se.key);
      for (const auto& hit : {engine.Peek(se.key), engine.Lookup(se.key)}) {
        ASSERT_TRUE(hit.has_value()) << RowFormatName(format) << " " << se.key;
        EXPECT_EQ(hit->matched_key, se.key);
        EXPECT_EQ(hit->similarity, exact.dot(e.data(), e.data(), e.size()));
      }
    }
    EXPECT_EQ(engine.Stats().hits, 16u);
  }
}

TEST_F(WritePathTest, JournalChurnKeepsSnapshotEqualToStore) {
  std::atomic<double> now{0.0};
  ConcurrentEngineOptions opts = BaseOptions(&now);
  opts.num_shards = 2;
  opts.cache.min_ttl_sec = 3.0;
  opts.cache.max_ttl_sec = 6.0;
  opts.cache.promote_distinct_tenants = 2;
  // Small enough that the churn below keeps evicting.
  opts.cache.capacity_tokens = 900.0;
  ConcurrentShardedEngine engine(&world_.embedder, world_.judger.get(), opts);

  const std::size_t topics = world_.universe->size();
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (std::size_t tid = 0; tid < 3; ++tid) {
    readers.emplace_back([&, tid] {
      const char* tenant = tid == 0 ? "" : (tid == 1 ? "acme" : "globex");
      std::size_t i = tid;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto& q = world_.query(i % topics, i % 6);
        if (i % 2 == 0) {
          engine.Peek(q, tenant);
        } else {
          engine.Lookup(q, nullptr, tenant);
        }
        ++i;
      }
    });
  }

  for (std::size_t round = 0; round < 30; ++round) {
    for (std::size_t topic = round % 3; topic < topics; topic += 3) {
      InsertRequest req = RequestFor(topic, round % 6);
      if (topic % 8 == 1) {
        // Nonzero cost and latency give these a positive LCFU score, so
        // they outlive the zero-score churn long enough to expire.
        req.retrieval_cost_dollars = 0.01;
        req.retrieval_latency_sec = 1.0;
      }
      engine.Insert(std::move(req));  // insert / dedup refresh
      ExpectSnapshotsMatchStore(engine, "insert");
      if (topic % 4 == 0) {  // the same private value from two tenants:
                             // the second retags the first into the pool
        const std::string value =
            world_.answer(topic) + " private " + std::to_string(round);
        InsertRequest a = RequestFor(topic, 1);
        a.value = value;
        a.tenant = "acme";
        engine.Insert(std::move(a));
        ExpectSnapshotsMatchStore(engine, "tenant insert");
        InsertRequest b = RequestFor(topic, 2);
        b.value = value;
        b.tenant = "globex";
        engine.Insert(std::move(b));
        ExpectSnapshotsMatchStore(engine, "promotion");
      }
      if (topic % 5 == 0) {  // same key, new content: replace
        InsertRequest r = RequestFor(topic);
        r.value = world_.answer(topic) + " v" + std::to_string(round);
        engine.Insert(std::move(r));
        ExpectSnapshotsMatchStore(engine, "replace");
      }
    }
    now.store(now.load() + 2.0);  // march entries past their TTLs
    engine.RemoveExpired();
    ExpectSnapshotsMatchStore(engine, "expire");
  }
  stop.store(true);
  for (auto& t : readers) t.join();

  const CacheCounters totals = engine.TotalCounters();
  EXPECT_GT(totals.evictions, 0u);
  EXPECT_GT(totals.expirations, 0u);
  EXPECT_GT(totals.dedup_refreshes, 0u);
  EXPECT_GT(totals.promotions, 0u);
}

// ---------------------------------------------------------------------------
// Snapshot clock domain: timestamps travel in the writer's clock and are
// rebased into the reader's on RESTORE.

TEST_F(WritePathTest, RestoreIntoYoungerEngineIsVisibleAtOnce) {
  std::atomic<double> source_now{5000.0};
  ConcurrentShardedEngine source(&world_.embedder, world_.judger.get(),
                                 BaseOptions(&source_now));
  for (std::size_t t = 0; t < 16; ++t) {
    ASSERT_TRUE(source.Insert(RequestFor(t)).has_value());
  }
  std::stringstream blob;
  source.SaveSnapshot(blob);

  std::atomic<double> joiner_now{2.0};  // started long after the source
  ConcurrentShardedEngine joiner(&world_.embedder, world_.judger.get(),
                                 BaseOptions(&joiner_now));
  EXPECT_EQ(joiner.LoadSnapshot(blob).entries_restored, 16u);
  for (std::size_t t = 0; t < 16; ++t) {
    EXPECT_TRUE(joiner.Peek(world_.query(t, 0)).has_value()) << t;
  }
  EXPECT_EQ(CounterValue(joiner, "cortex_engine_restore_future_dated"), 0u);
}

TEST_F(WritePathTest, RestorePreservesAgeAndRemainingTtl) {
  std::atomic<double> source_now{1000.0};
  ConcurrentEngineOptions opts = BaseOptions(&source_now);
  opts.cache.min_ttl_sec = 100.0;
  opts.cache.max_ttl_sec = 100.0;
  ConcurrentShardedEngine source(&world_.embedder, world_.judger.get(), opts);
  ASSERT_TRUE(source.Insert(RequestFor(0)).has_value());  // expires at 1100
  source_now.store(1040.0);  // 60 s of TTL left, 40 s old
  std::stringstream blob;
  source.SaveSnapshot(blob);

  std::atomic<double> joiner_now{7.0};
  opts.clock = [&joiner_now] { return joiner_now.load(); };
  ConcurrentShardedEngine joiner(&world_.embedder, world_.judger.get(), opts);
  ASSERT_EQ(joiner.LoadSnapshot(blob).entries_restored, 1u);

  std::stringstream again;
  joiner.SaveSnapshot(again);
  std::optional<double> writer_now;
  std::vector<SemanticElement> seen;
  serve::ForEachEngineSnapshotElement(
      again, [&](SemanticElement se) { seen.push_back(std::move(se)); },
      &writer_now);
  ASSERT_TRUE(writer_now.has_value());
  EXPECT_EQ(*writer_now, 7.0);
  ASSERT_EQ(seen.size(), 1u);
  constexpr double kEps = 1e-9;
  EXPECT_NEAR(seen[0].expiration_time - *writer_now, 60.0, kEps);
  EXPECT_NEAR(*writer_now - seen[0].created_at, 40.0, kEps);

  joiner_now.store(7.0 + 59.0);
  EXPECT_TRUE(joiner.Peek(world_.query(0, 0)).has_value());
  joiner_now.store(7.0 + 61.0);
  EXPECT_FALSE(joiner.Peek(world_.query(0, 0)).has_value());
}

TEST_F(WritePathTest, UnclockedBlobRestoresTimestampsVerbatim) {
  std::vector<SemanticElement> elements;
  for (std::size_t t = 0; t < 2; ++t) {
    SemanticElement se;
    se.key = world_.query(t, 0);
    se.value = world_.answer(t);
    se.created_at = t == 0 ? 3.0 : 500.0;  // the second is future-dated
    se.last_access = se.created_at;
    se.expiration_time = 1e6;
    elements.push_back(se);
  }
  std::stringstream blob;
  serve::WriteEngineSnapshot(blob, elements);

  std::atomic<double> now{100.0};
  ConcurrentShardedEngine engine(&world_.embedder, world_.judger.get(),
                                 BaseOptions(&now));
  EXPECT_EQ(engine.LoadSnapshot(blob).entries_restored, 2u);
  EXPECT_EQ(CounterValue(engine, "cortex_engine_restore_future_dated"), 1u);
  EXPECT_TRUE(engine.Peek(world_.query(0, 0)).has_value());
  EXPECT_FALSE(engine.Peek(world_.query(1, 0)).has_value());

  std::stringstream again;
  engine.SaveSnapshot(again);
  std::vector<double> created;
  serve::ForEachEngineSnapshotElement(
      again, [&](SemanticElement se) { created.push_back(se.created_at); });
  std::sort(created.begin(), created.end());
  EXPECT_EQ(created, (std::vector<double>{3.0, 500.0}));
}

TEST_F(WritePathTest, VersionOneEngineBlobStillLoads) {
  // The v1 engine header: magic, version 1, shard count — no clock.
  std::stringstream blob;
  const std::uint32_t magic = 0x43525853, version = 1;
  const std::uint64_t shards = 1;
  blob.write(reinterpret_cast<const char*>(&magic), sizeof magic);
  blob.write(reinterpret_cast<const char*>(&version), sizeof version);
  blob.write(reinterpret_cast<const char*>(&shards), sizeof shards);
  SemanticElement se;
  se.key = world_.query(4, 0);
  se.value = world_.answer(4);
  se.created_at = 1.0;
  se.expiration_time = 1e6;
  WriteSnapshotHeader(blob, 1);
  WriteSnapshotElement(blob, se);

  std::optional<double> writer_now = 123.0;
  std::stringstream copy(blob.str());
  EXPECT_EQ(serve::ForEachEngineSnapshotElement(
                copy, [](SemanticElement) {}, &writer_now),
            1u);
  EXPECT_FALSE(writer_now.has_value());

  std::atomic<double> now{50.0};
  ConcurrentShardedEngine engine(&world_.embedder, world_.judger.get(),
                                 BaseOptions(&now));
  EXPECT_EQ(engine.LoadSnapshot(blob).entries_restored, 1u);
  EXPECT_TRUE(engine.Peek(world_.query(4, 0)).has_value());
}

TEST_F(WritePathTest, UnknownEngineVersionIsRejected) {
  std::stringstream blob;
  const std::uint32_t magic = 0x43525853, version = 3;
  blob.write(reinterpret_cast<const char*>(&magic), sizeof magic);
  blob.write(reinterpret_cast<const char*>(&version), sizeof version);
  ConcurrentShardedEngine engine(&world_.embedder, world_.judger.get(),
                                 BaseOptions(nullptr));
  EXPECT_THROW(engine.LoadSnapshot(blob), std::runtime_error);
}

}  // namespace
}  // namespace cortex
