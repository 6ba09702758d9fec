// Serving-layer concurrency tests: N real threads doing mixed
// lookup/insert against the same shard set.  Run these under
// ThreadSanitizer via scripts/tsan.sh (CORTEX_SANITIZE=thread).
#include "serve/concurrent_engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "test_helpers.h"

namespace cortex {
namespace {

using cortex::testing::MiniWorld;
using serve::BatchLookupRequest;
using serve::ConcurrentEngineOptions;
using serve::ConcurrentShardedEngine;

class ConcurrentEngineTest : public ::testing::Test {
 protected:
  ConcurrentEngineTest() : world_(64, /*seed=*/43) {}

  ConcurrentEngineOptions BaseOptions() {
    ConcurrentEngineOptions opts;
    opts.num_shards = 4;
    opts.cache.capacity_tokens = 1e7;        // no capacity evictions
    opts.housekeeping_interval_sec = 0.0;    // tests drive purges by hand
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

  MiniWorld world_;
};

TEST_F(ConcurrentEngineTest, MixedLookupInsertKeepsCountersConsistent) {
  ConcurrentShardedEngine engine(&world_.embedder, world_.judger.get(),
                                 BaseOptions());
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kRounds = 3;
  const std::size_t topics = world_.universe->size();

  std::atomic<std::uint64_t> lookups_issued{0};
  std::atomic<std::uint64_t> inserts_accepted{0};
  std::atomic<std::uint64_t> inserts_rejected{0};

  std::vector<std::thread> pool;
  for (std::size_t tid = 0; tid < kThreads; ++tid) {
    pool.emplace_back([&, tid] {
      for (std::size_t round = 0; round < kRounds; ++round) {
        for (std::size_t topic = 0; topic < topics; ++topic) {
          // Every thread inserts its "own" topics and looks up everything,
          // so the same shards see concurrent reads and writes.
          if (topic % kThreads == tid) {
            if (engine.Insert(RequestFor(topic, round))) {
              inserts_accepted.fetch_add(1);
            } else {
              inserts_rejected.fetch_add(1);
            }
          }
          engine.Lookup(world_.query(topic, (round + tid) % 6));
          lookups_issued.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : pool) t.join();

  const auto stats = engine.Stats();
  const auto totals = engine.TotalCounters();
  // Engine atomics and per-shard counters must agree exactly with the
  // offered load: no lost or double-counted operations.
  EXPECT_EQ(stats.lookups, lookups_issued.load());
  EXPECT_EQ(totals.lookups, lookups_issued.load());
  EXPECT_EQ(stats.hits, totals.hits);
  EXPECT_LE(totals.hits, totals.lookups);
  EXPECT_EQ(stats.inserts, inserts_accepted.load());
  EXPECT_EQ(stats.insert_rejects, inserts_rejected.load());
  // Accepted inserts are either fresh insertions or value-dedup refreshes.
  EXPECT_EQ(totals.insertions + totals.dedup_refreshes,
            inserts_accepted.load());
}

TEST_F(ConcurrentEngineTest, NoLostInsertsAcrossThreads) {
  ConcurrentShardedEngine engine(&world_.embedder, world_.judger.get(),
                                 BaseOptions());
  constexpr std::size_t kThreads = 8;
  const std::size_t topics = world_.universe->size();

  std::vector<std::thread> pool;
  for (std::size_t tid = 0; tid < kThreads; ++tid) {
    pool.emplace_back([&, tid] {
      for (std::size_t topic = tid; topic < topics; topic += kThreads) {
        ASSERT_TRUE(engine.Insert(RequestFor(topic)).has_value());
      }
    });
  }
  for (auto& t : pool) t.join();

  // Capacity is huge and every topic has a distinct value, so nothing may
  // be dropped: every inserted key must still be resident.
  for (std::size_t topic = 0; topic < topics; ++topic) {
    EXPECT_TRUE(engine.ContainsKey(world_.query(topic, 0)))
        << "lost insert for topic " << topic;
  }
  EXPECT_EQ(engine.TotalSize(), topics);
  EXPECT_EQ(engine.Stats().inserts, topics);
}

TEST_F(ConcurrentEngineTest, ParallelLookupsServeHitsAfterWarmup) {
  ConcurrentShardedEngine engine(&world_.embedder, world_.judger.get(),
                                 BaseOptions());
  const std::size_t topics = world_.universe->size();
  for (std::size_t topic = 0; topic < topics; ++topic) {
    ASSERT_TRUE(engine.Insert(RequestFor(topic)).has_value());
  }

  constexpr std::size_t kThreads = 8;
  std::atomic<std::uint64_t> hits{0};
  std::vector<std::thread> pool;
  for (std::size_t tid = 0; tid < kThreads; ++tid) {
    pool.emplace_back([&, tid] {
      for (std::size_t topic = 0; topic < topics; ++topic) {
        const auto hit = engine.Lookup(world_.query(topic, 1 + tid % 5));
        if (hit) {
          hits.fetch_add(1);
          EXPECT_FALSE(hit->value.empty());
        }
      }
    });
  }
  for (auto& t : pool) t.join();

  // Paraphrase lookups of resident topics hit at the usual (noisy-judger)
  // rate; concurrency must not change that materially.
  EXPECT_GE(hits.load(), kThreads * topics * 6 / 10);
  EXPECT_EQ(engine.Stats().hits, hits.load());
}

TEST_F(ConcurrentEngineTest, HousekeepingThreadPurgesExpiredEntries) {
  std::atomic<double> fake_now{0.0};
  ConcurrentEngineOptions opts = BaseOptions();
  opts.cache.min_ttl_sec = 10.0;
  opts.cache.max_ttl_sec = 20.0;
  opts.housekeeping_interval_sec = 0.5;  // engine-clock seconds
  opts.clock = [&fake_now] { return fake_now.load(); };
  ConcurrentShardedEngine engine(&world_.embedder, world_.judger.get(),
                                 opts);

  for (std::size_t topic = 0; topic < 16; ++topic) {
    ASSERT_TRUE(engine.Insert(RequestFor(topic)).has_value());
  }
  EXPECT_EQ(engine.TotalSize(), 16u);

  // Jump the engine clock past every TTL; the housekeeping thread (polling
  // wall-clock, triggering on the engine clock) must purge everything.
  fake_now.store(1000.0);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (engine.TotalSize() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(engine.TotalSize(), 0u);
  EXPECT_GE(engine.Stats().expired_removed, 16u);
  EXPECT_GE(engine.Stats().housekeeping_runs, 1u);
  EXPECT_EQ(engine.TotalCounters().expirations, 16u);
}

TEST_F(ConcurrentEngineTest, RecalibrationTickRunsOnEveryShard) {
  ConcurrentEngineOptions opts = BaseOptions();
  opts.recalibration.samples_per_round = 4;
  ConcurrentShardedEngine engine(&world_.embedder, world_.judger.get(),
                                 opts);
  engine.SetGroundTruthFetcher([this](std::string_view query) {
    return world_.oracle->ExpectedInfo(query);
  });

  // Warm the judgment logs: inserts + paraphrase lookups generate judged
  // candidates on every shard.
  const std::size_t topics = world_.universe->size();
  for (std::size_t topic = 0; topic < topics; ++topic) {
    ASSERT_TRUE(engine.Insert(RequestFor(topic)).has_value());
  }
  for (std::size_t round = 0; round < 4; ++round) {
    for (std::size_t topic = 0; topic < topics; ++topic) {
      engine.Lookup(world_.query(topic, round + 1));
    }
  }

  engine.RecalibrateAllShards();
  EXPECT_EQ(engine.Stats().recalibrations, engine.num_shards());
  for (std::size_t shard = 0; shard < engine.num_shards(); ++shard) {
    const double tau = engine.tau_lsm(shard);
    EXPECT_GE(tau, opts.recalibration.min_tau);
    EXPECT_LE(tau, opts.recalibration.max_tau);
  }
}

TEST_F(ConcurrentEngineTest, JudgmentLogHoldsEveryJudgedCandidate) {
  ConcurrentEngineOptions opts = BaseOptions();
  opts.recalibration.samples_per_round = 1000000;  // annotate the whole log
  ConcurrentShardedEngine engine(&world_.embedder, world_.judger.get(),
                                 opts);
  std::multiset<std::string> fetched;
  engine.SetGroundTruthFetcher([&](std::string_view query) {
    fetched.emplace(query);
    return world_.oracle->ExpectedInfo(query);
  });
  const std::size_t topics = world_.universe->size();
  for (std::size_t topic = 0; topic < topics; ++topic) {
    ASSERT_TRUE(engine.Insert(RequestFor(topic)).has_value());
  }
  // Nothing is evicted, so every judged candidate is logged once, with
  // the query that judged it.
  std::multiset<std::string> judged;
  for (std::size_t round = 1; round < 4; ++round) {
    std::vector<BatchLookupRequest> batch(topics);
    for (std::size_t topic = 0; topic < topics; ++topic) {
      batch[topic].query = world_.query(topic, round);
    }
    engine.LookupBatch(batch);
    for (const BatchLookupRequest& r : batch) {
      for (std::size_t k = 0; k < r.judger_calls; ++k) {
        judged.emplace(r.query);
      }
    }
  }
  ASSERT_GT(judged.size(), topics);
  engine.RecalibrateAllShards();
  EXPECT_EQ(fetched, judged);
}

// ---------------------------------------------------------------------------
// Lock-free probe (DESIGN.md §13) vs the single-threaded core.  The epoch
// path's exact quantized scan + fp32 rerank must reproduce a plain
// SemanticCache over FlatIndex per shard (same ShardFor routing) bit for
// bit — same hits, ids, similarities and judger scores, same counters —
// whatever the scan format, through both Lookup and LookupBatch.

void ExpectSameHit(const std::optional<CacheHit>& want,
                   const std::optional<CacheHit>& got,
                   const std::string& context) {
  ASSERT_EQ(want.has_value(), got.has_value()) << context;
  if (!want) return;
  EXPECT_EQ(want->id, got->id) << context;
  EXPECT_EQ(want->value, got->value) << context;
  EXPECT_EQ(want->matched_key, got->matched_key) << context;
  EXPECT_EQ(want->similarity, got->similarity) << context;  // bit-exact
  EXPECT_EQ(want->judger_score, got->judger_score) << context;
}

TEST_F(ConcurrentEngineTest, LockFreeProbeMatchesLockedPathExactly) {
  constexpr double kNow = 1.0;
  for (const RowFormat format :
       {RowFormat::kF32, RowFormat::kF16, RowFormat::kI8}) {
    ConcurrentEngineOptions opts = BaseOptions();
    opts.probe_scan_format = format;
    opts.clock = [] { return kNow; };
    ConcurrentShardedEngine sequential(&world_.embedder, world_.judger.get(),
                                       opts);
    ConcurrentShardedEngine batched(&world_.embedder, world_.judger.get(),
                                    opts);
    SemanticCacheOptions per_shard = opts.cache;
    per_shard.capacity_tokens /= static_cast<double>(opts.num_shards);
    std::vector<std::unique_ptr<SemanticCache>> reference;
    for (std::size_t s = 0; s < opts.num_shards; ++s) {
      reference.push_back(std::make_unique<SemanticCache>(
          &world_.embedder,
          MakeIndex(IndexType::kFlat, world_.embedder.dimension()),
          world_.judger.get(), MakeEviction(opts.eviction), per_shard));
    }
    const auto ref = [&](std::string_view q) -> SemanticCache& {
      return *reference[sequential.ShardFor(q)];
    };

    const std::size_t topics = world_.universe->size();
    for (std::size_t topic = 0; topic < topics; ++topic) {
      InsertRequest req = RequestFor(topic);
      const auto want = ref(req.key).Insert(req, kNow);
      ASSERT_EQ(sequential.Insert(req), want);
      ASSERT_EQ(batched.Insert(std::move(req)), want);
    }

    std::uint64_t ref_lookups = 0;
    std::uint64_t ref_hits = 0;
    for (std::size_t round = 0; round < 3; ++round) {
      std::vector<serve::BatchLookupRequest> batch;
      std::vector<std::optional<CacheHit>> want;
      for (std::size_t topic = 0; topic < topics; ++topic) {
        const std::string& q = world_.query(topic, round + 1);
        want.push_back(ref(q).Lookup(q, kNow).hit);
        ++ref_lookups;
        if (want.back()) ++ref_hits;
        const std::string context = std::string("format=") +
                                    RowFormatName(format) +
                                    " topic=" + std::to_string(topic) +
                                    " round=" + std::to_string(round);
        ExpectSameHit(want.back(), sequential.Lookup(q), "Lookup " + context);
        batch.emplace_back().query = q;
      }
      batched.LookupBatch(batch);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        ExpectSameHit(want[i], batch[i].hit,
                      std::string("LookupBatch format=") +
                          RowFormatName(format) + " i=" + std::to_string(i));
      }
    }

    for (const ConcurrentShardedEngine* engine : {&sequential, &batched}) {
      EXPECT_EQ(engine->Stats().lookups, ref_lookups);
      EXPECT_EQ(engine->Stats().hits, ref_hits);
      const CacheCounters counters = engine->TotalCounters();
      EXPECT_EQ(counters.lookups, ref_lookups);
      EXPECT_EQ(counters.hits, ref_hits);
    }
    EXPECT_GT(ref_hits, 0u);
  }
}

TEST_F(ConcurrentEngineTest, LockFreeProbeHonoursTtlWithoutPurge) {
  std::atomic<double> fake_now{0.0};
  ConcurrentEngineOptions opts = BaseOptions();
  opts.cache.min_ttl_sec = 10.0;
  opts.cache.max_ttl_sec = 20.0;
  opts.clock = [&fake_now] { return fake_now.load(); };
  ConcurrentShardedEngine engine(&world_.embedder, world_.judger.get(), opts);

  ASSERT_TRUE(engine.Insert(RequestFor(0)).has_value());
  EXPECT_TRUE(engine.Lookup(world_.query(0, 0)).has_value());

  // Jump past the TTL without purging: the snapshot still references the
  // record, so the probe's visibility filter alone must turn it away.
  fake_now.store(1000.0);
  EXPECT_FALSE(engine.Lookup(world_.query(0, 0)).has_value());

  // The purge then rebuilds the snapshot without the entry; a re-insert
  // republishes and serves hits again.
  EXPECT_EQ(engine.RemoveExpired(), 1u);
  EXPECT_FALSE(engine.Lookup(world_.query(0, 0)).has_value());
  ASSERT_TRUE(engine.Insert(RequestFor(0)).has_value());
  EXPECT_TRUE(engine.Lookup(world_.query(0, 0)).has_value());
}

TEST_F(ConcurrentEngineTest, LockFreeProbeKeepsTenantsInvisible) {
  ConcurrentShardedEngine engine(&world_.embedder, world_.judger.get(),
                                 BaseOptions());
  InsertRequest req = RequestFor(3);
  req.tenant = "acme";
  ASSERT_TRUE(engine.Insert(std::move(req)).has_value());

  EXPECT_TRUE(engine.Lookup(world_.query(3, 0), nullptr, "acme").has_value());
  EXPECT_FALSE(engine.Lookup(world_.query(3, 0), nullptr, "rival").has_value());
  EXPECT_FALSE(engine.Lookup(world_.query(3, 0)).has_value());
}

TEST_F(ConcurrentEngineTest, LookupsRaceChurnUnderLockFreeProbe) {
  // Readers race inserts, TTL churn, and housekeeping: epoch reclamation
  // must keep every snapshot readable (run under TSan via scripts/tsan.sh).
  std::atomic<double> fake_now{0.0};
  ConcurrentEngineOptions opts = BaseOptions();
  opts.cache.min_ttl_sec = 1.0;
  opts.cache.max_ttl_sec = 2.0;
  opts.housekeeping_interval_sec = 0.01;
  opts.clock = [&fake_now] { return fake_now.load(); };
  ConcurrentShardedEngine engine(&world_.embedder, world_.judger.get(), opts);

  const std::size_t topics = world_.universe->size();
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> lookups{0};
  std::vector<std::thread> readers;
  for (std::size_t tid = 0; tid < 4; ++tid) {
    readers.emplace_back([&, tid] {
      std::size_t i = tid;
      while (!stop.load(std::memory_order_relaxed)) {
        engine.Lookup(world_.query(i % topics, i % 6));
        lookups.fetch_add(1, std::memory_order_relaxed);
        ++i;
      }
    });
  }
  // Writer: keep inserting while the clock marches entries over their
  // TTLs, so snapshots churn continuously.
  for (std::size_t round = 0; round < 40; ++round) {
    for (std::size_t topic = 0; topic < topics; topic += 4) {
      engine.Insert(RequestFor(topic, round % 6));
    }
    fake_now.store(fake_now.load() + 0.25);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.store(true);
  for (auto& t : readers) t.join();

  EXPECT_EQ(engine.Stats().lookups, lookups.load());
  EXPECT_GT(lookups.load(), 0u);
}

TEST_F(ConcurrentEngineTest, RoutingMatchesShardedCache) {
  // The serving tier must agree with ShardedSemanticCache on where every
  // query lives (snapshots and sim results stay comparable).
  ConcurrentShardedEngine engine(&world_.embedder, world_.judger.get(),
                                 BaseOptions());
  ShardedCacheOptions sopts;
  sopts.num_shards = 4;
  ShardedSemanticCache reference(&world_.embedder, world_.judger.get(),
                                 sopts);
  for (std::size_t topic = 0; topic < world_.universe->size(); ++topic) {
    for (std::size_t p = 0; p < 3; ++p) {
      const auto& q = world_.query(topic, p);
      EXPECT_EQ(engine.ShardFor(q), reference.ShardFor(q));
    }
  }
}

}  // namespace
}  // namespace cortex
