#include "core/semantic_cache.h"

#include <gtest/gtest.h>

#include "ann/flat_index.h"
#include <algorithm>
#include <limits>
#include <set>
#include <vector>

#include "llm/tags.h"
#include "test_helpers.h"

namespace cortex {
namespace {

using cortex::testing::MiniWorld;

class SemanticCacheTest : public ::testing::Test {
 protected:
  SemanticCacheTest() { Rebuild({}); }

  void Rebuild(SemanticCacheOptions options) {
    if (options.capacity_tokens == SemanticCacheOptions{}.capacity_tokens) {
      options.capacity_tokens = 1e6;  // default: effectively unbounded
    }
    cache_ = std::make_unique<SemanticCache>(
        &world_.embedder,
        std::make_unique<FlatIndex>(world_.embedder.dimension()),
        world_.judger.get(), std::make_unique<LcfuPolicy>(), options);
  }

  InsertRequest RequestFor(std::size_t topic_id, std::size_t paraphrase = 0,
                           std::uint64_t freq = 1) {
    InsertRequest req;
    req.key = world_.query(topic_id, paraphrase);
    req.value = world_.answer(topic_id);
    req.staticity = world_.topic(topic_id).staticity;
    req.retrieval_latency_sec = 0.4;
    req.retrieval_cost_dollars = 0.005;
    req.initial_frequency = freq;
    return req;
  }

  MiniWorld world_;
  std::unique_ptr<SemanticCache> cache_;
};

TEST_F(SemanticCacheTest, MissOnEmptyThenHitAfterInsert) {
  auto miss = cache_->Lookup(world_.query(0, 1), 0.0);
  EXPECT_FALSE(miss.hit.has_value());
  EXPECT_EQ(miss.query_embedding.size(), world_.embedder.dimension());

  ASSERT_TRUE(cache_->Insert(RequestFor(0), 1.0).has_value());
  auto hit = cache_->Lookup(world_.query(0, 2), 2.0);
  ASSERT_TRUE(hit.hit.has_value());
  EXPECT_EQ(hit.hit->value, world_.answer(0));
  EXPECT_EQ(hit.hit->matched_key, world_.query(0, 0));
  EXPECT_EQ(cache_->counters().hits, 1u);
  EXPECT_EQ(cache_->counters().lookups, 2u);
}

TEST_F(SemanticCacheTest, HitIncrementsFrequencyAndRecency) {
  const auto id = cache_->Insert(RequestFor(0), 0.0);
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(cache_->Get(*id)->frequency, 1u);
  cache_->Lookup(world_.query(0, 3), 5.0);
  const SemanticElement* se = cache_->Get(*id);
  EXPECT_EQ(se->frequency, 2u);
  EXPECT_DOUBLE_EQ(se->last_access, 5.0);
}

TEST_F(SemanticCacheTest, ContainsKeyIsExact) {
  cache_->Insert(RequestFor(0, 0), 0.0);
  EXPECT_TRUE(cache_->ContainsKey(world_.query(0, 0)));
  EXPECT_FALSE(cache_->ContainsKey(world_.query(0, 1)));  // paraphrase
}

TEST_F(SemanticCacheTest, TtlScalesWithStaticity) {
  SemanticCacheOptions opts;
  opts.min_ttl_sec = 100;
  opts.max_ttl_sec = 1000;
  Rebuild(opts);
  InsertRequest ephemeral = RequestFor(0);
  ephemeral.staticity = 1.0;
  InsertRequest stable = RequestFor(1);
  stable.staticity = 10.0;
  const auto id_e = cache_->Insert(std::move(ephemeral), 0.0);
  const auto id_s = cache_->Insert(std::move(stable), 0.0);
  EXPECT_DOUBLE_EQ(cache_->Get(*id_e)->expiration_time, 100.0);
  EXPECT_DOUBLE_EQ(cache_->Get(*id_s)->expiration_time, 1000.0);
}

TEST_F(SemanticCacheTest, ExpiredEntriesDoNotServeHits) {
  SemanticCacheOptions opts;
  opts.min_ttl_sec = 10;
  opts.max_ttl_sec = 20;
  Rebuild(opts);
  cache_->Insert(RequestFor(0), 0.0);
  auto hit = cache_->Lookup(world_.query(0, 1), 5.0);
  EXPECT_TRUE(hit.hit.has_value());
  auto stale = cache_->Lookup(world_.query(0, 1), 50.0);
  EXPECT_FALSE(stale.hit.has_value());
  EXPECT_EQ(cache_->counters().expirations, 1u);
  EXPECT_EQ(cache_->size(), 0u);
}

TEST_F(SemanticCacheTest, RemoveExpiredPurgesOnlyExpired) {
  SemanticCacheOptions opts;
  opts.min_ttl_sec = 10;
  opts.max_ttl_sec = 1000;
  Rebuild(opts);
  InsertRequest short_lived = RequestFor(0);
  short_lived.staticity = 1.0;
  InsertRequest long_lived = RequestFor(1);
  long_lived.staticity = 10.0;
  cache_->Insert(std::move(short_lived), 0.0);
  cache_->Insert(std::move(long_lived), 0.0);
  EXPECT_EQ(cache_->RemoveExpired(500.0), 1u);
  EXPECT_EQ(cache_->size(), 1u);
}

TEST_F(SemanticCacheTest, TtlDisabledMeansImmortalEntries) {
  SemanticCacheOptions opts;
  opts.ttl_enabled = false;
  Rebuild(opts);
  cache_->Insert(RequestFor(0), 0.0);
  EXPECT_EQ(cache_->RemoveExpired(1e12), 0u);
  EXPECT_TRUE(cache_->Lookup(world_.query(0, 1), 1e12).hit.has_value());
}

TEST_F(SemanticCacheTest, CapacityEnforcedByEviction) {
  // Room for roughly two answers.
  const double two_answers =
      static_cast<double>(ApproxTokenCount(world_.answer(0)) +
                          ApproxTokenCount(world_.answer(1))) +
      4.0;
  SemanticCacheOptions opts;
  opts.capacity_tokens = two_answers;
  Rebuild(opts);
  cache_->Insert(RequestFor(0), 0.0);
  cache_->Insert(RequestFor(1), 1.0);
  cache_->Insert(RequestFor(2), 2.0);
  EXPECT_LE(cache_->usage_tokens(), cache_->capacity_tokens());
  EXPECT_GE(cache_->counters().evictions, 1u);
  EXPECT_LE(cache_->size(), 2u);
}

TEST_F(SemanticCacheTest, LcfuEvictsLowestValueItem) {
  SemanticCacheOptions opts;
  opts.capacity_tokens = 3.0 * 80.0;  // answers are ~60 tokens
  Rebuild(opts);
  const auto hot = cache_->Insert(RequestFor(0, 0, /*freq=*/1), 0.0);
  cache_->Insert(RequestFor(1, 0, /*freq=*/1), 0.0);
  ASSERT_TRUE(hot.has_value());
  // Make topic 0 hot via confirmed hits.
  for (int i = 0; i < 5; ++i) cache_->Lookup(world_.query(0, 1), 1.0 + i);
  // Fill past capacity: the cold entry (topic 1) should go first.
  cache_->Insert(RequestFor(2), 10.0);
  cache_->Insert(RequestFor(3), 11.0);
  EXPECT_TRUE(cache_->Lookup(world_.query(0, 2), 20.0).hit.has_value());
}

TEST_F(SemanticCacheTest, OversizedValueIsRejected) {
  SemanticCacheOptions opts;
  opts.capacity_tokens = 10.0;
  Rebuild(opts);
  EXPECT_FALSE(cache_->Insert(RequestFor(0), 0.0).has_value());
  EXPECT_EQ(cache_->counters().rejected_too_large, 1u);
  EXPECT_EQ(cache_->size(), 0u);
}

TEST_F(SemanticCacheTest, ExactKeyReinsertReplaces) {
  const auto id1 = cache_->Insert(RequestFor(0, 0), 0.0);
  InsertRequest replacement = RequestFor(0, 0);
  replacement.value = "fresh replacement value";
  const auto id2 = cache_->Insert(std::move(replacement), 1.0);
  ASSERT_TRUE(id2.has_value());
  EXPECT_NE(*id1, *id2);
  EXPECT_EQ(cache_->size(), 1u);
  EXPECT_EQ(cache_->Get(*id2)->value, "fresh replacement value");
  EXPECT_EQ(cache_->Get(*id1), nullptr);
}

TEST_F(SemanticCacheTest, ValueDedupRefreshesInsteadOfDuplicating) {
  const auto id1 = cache_->Insert(RequestFor(0, 0), 0.0);
  // Same knowledge fetched under a different paraphrase key.
  const auto id2 = cache_->Insert(RequestFor(0, 1), 50.0);
  ASSERT_TRUE(id1.has_value() && id2.has_value());
  EXPECT_EQ(*id1, *id2);
  EXPECT_EQ(cache_->size(), 1u);
  EXPECT_EQ(cache_->counters().dedup_refreshes, 1u);
  const SemanticElement* se = cache_->Get(*id1);
  EXPECT_EQ(se->frequency, 2u);  // credit accumulated
  EXPECT_DOUBLE_EQ(se->last_access, 50.0);
}

TEST_F(SemanticCacheTest, DedupRenewsTtl) {
  SemanticCacheOptions opts;
  opts.min_ttl_sec = 100;
  opts.max_ttl_sec = 100;
  Rebuild(opts);
  const auto id = cache_->Insert(RequestFor(0, 0), 0.0);
  cache_->Insert(RequestFor(0, 1), 80.0);  // re-fetch renews lifetime
  EXPECT_DOUBLE_EQ(cache_->Get(*id)->expiration_time, 180.0);
}

TEST_F(SemanticCacheTest, RemoveDeletesEverywhere) {
  const auto id = cache_->Insert(RequestFor(0), 0.0);
  ASSERT_TRUE(cache_->Remove(*id));
  EXPECT_FALSE(cache_->Remove(*id));
  EXPECT_FALSE(cache_->ContainsKey(world_.query(0, 0)));
  EXPECT_EQ(cache_->sine().size(), 0u);
  EXPECT_DOUBLE_EQ(cache_->usage_tokens(), 0.0);
  // Value-identical re-insert must not resurrect the removed id.
  const auto id2 = cache_->Insert(RequestFor(0), 1.0);
  EXPECT_NE(*id2, *id);
}

TEST_F(SemanticCacheTest, UsageTracksInsertAndEvict) {
  EXPECT_DOUBLE_EQ(cache_->usage_tokens(), 0.0);
  cache_->Insert(RequestFor(0), 0.0);
  const double after_one = cache_->usage_tokens();
  EXPECT_GT(after_one, 0.0);
  cache_->Insert(RequestFor(1), 0.0);
  EXPECT_GT(cache_->usage_tokens(), after_one);
}

// ---------------------------------------------------------------------------
// Change journal + expiration lower bound (DESIGN.md §13.3).

TEST_F(SemanticCacheTest, JournalIsOffUntilEnabled) {
  cache_->Insert(RequestFor(0), 0.0);
  std::vector<SeId> drained{42};
  cache_->DrainJournal(drained);
  EXPECT_TRUE(drained.empty());
}

TEST_F(SemanticCacheTest, JournalRecordsEveryProbeRelevantChange) {
  SemanticCacheOptions opts;
  opts.min_ttl_sec = 10;
  opts.max_ttl_sec = 10;
  Rebuild(opts);
  cache_->EnableJournal();
  std::vector<SeId> drained;

  const SeId a = *cache_->Insert(RequestFor(0, 0), 0.0);
  cache_->DrainJournal(drained);
  EXPECT_EQ(drained, std::vector<SeId>{a});

  // Lookup commits bump frequency/last_access only: not probe-relevant.
  ASSERT_TRUE(cache_->Lookup(world_.query(0, 1), 1.0).hit.has_value());
  cache_->DrainJournal(drained);
  EXPECT_TRUE(drained.empty());

  // Dedup refresh renews expiration_time.
  EXPECT_EQ(*cache_->Insert(RequestFor(0, 2), 2.0), a);
  cache_->DrainJournal(drained);
  EXPECT_EQ(drained, std::vector<SeId>{a});

  // Exact-key replace: the old id goes, the new one arrives.
  InsertRequest replace = RequestFor(0, 0);
  replace.value = "a different answer";
  const SeId b = *cache_->Insert(std::move(replace), 3.0);
  cache_->DrainJournal(drained);
  EXPECT_EQ(drained, (std::vector<SeId>{a, b}));

  // Expiry removal.
  EXPECT_EQ(cache_->RemoveExpired(100.0), 1u);
  cache_->DrainJournal(drained);
  EXPECT_EQ(drained, std::vector<SeId>{b});
}

TEST_F(SemanticCacheTest, JournalRecordsEvictionAndPromotionRetag) {
  SemanticCacheOptions opts;
  opts.promote_distinct_tenants = 2;
  std::size_t largest = 0;
  for (std::size_t topic = 0; topic < 6; ++topic) {
    largest = std::max(largest, ApproxTokenCount(world_.answer(topic)));
  }
  opts.capacity_tokens = 2.5 * static_cast<double>(largest);
  Rebuild(opts);
  cache_->EnableJournal();
  std::vector<SeId> drained;

  InsertRequest first = RequestFor(0);
  first.tenant = "acme";
  const SeId a = *cache_->Insert(std::move(first), 0.0);
  InsertRequest second = RequestFor(0, 1);
  second.tenant = "globex";
  EXPECT_EQ(*cache_->Insert(std::move(second), 1.0), a);  // retag in place
  EXPECT_EQ(cache_->counters().promotions, 1u);
  EXPECT_TRUE(cache_->Get(a)->tenant.empty());
  cache_->DrainJournal(drained);
  EXPECT_EQ(drained, (std::vector<SeId>{a, a}));

  // Fill past capacity: every eviction is journaled.
  for (std::size_t topic = 1; topic < 6; ++topic) {
    cache_->Insert(RequestFor(topic), 2.0 + static_cast<double>(topic));
  }
  ASSERT_GT(cache_->counters().evictions, 0u);
  cache_->DrainJournal(drained);
  std::set<SeId> gone;
  for (const SeId id : drained) {
    if (cache_->Get(id) == nullptr) gone.insert(id);
  }
  EXPECT_EQ(gone.size(), cache_->counters().evictions);
}

TEST_F(SemanticCacheTest, ExpiredEntryIsPurgedByTheNextInsert) {
  SemanticCacheOptions opts;
  opts.min_ttl_sec = 10;
  opts.max_ttl_sec = 10;
  Rebuild(opts);
  const SeId old_id = *cache_->Insert(RequestFor(0), 0.0);
  cache_->Insert(RequestFor(1), 5.0);
  EXPECT_EQ(cache_->counters().expirations, 0u);
  // t=12: the first SE is past its TTL; the insert's purge must find it
  // even though the previous insert's purge skipped the scan.
  cache_->Insert(RequestFor(2), 12.0);
  EXPECT_EQ(cache_->counters().expirations, 1u);
  EXPECT_EQ(cache_->Get(old_id), nullptr);
  EXPECT_EQ(cache_->size(), 2u);
  // The bound was recomputed from the survivors: the t=5 SE goes at 15.
  cache_->Insert(RequestFor(3), 15.0);
  EXPECT_EQ(cache_->counters().expirations, 2u);
  EXPECT_EQ(cache_->size(), 2u);
}

TEST_F(SemanticCacheTest, RestoredShortTtlLowersTheExpiryBound) {
  SemanticCacheOptions opts;
  opts.min_ttl_sec = 1000;
  opts.max_ttl_sec = 1000;
  Rebuild(opts);
  cache_->Insert(RequestFor(0), 0.0);  // expires at 1000
  SemanticElement se;
  se.key = world_.query(1, 0);
  se.value = world_.answer(1);
  se.expiration_time = 20.0;  // far below the resident bound
  const SeId restored = *cache_->RestoreElement(std::move(se), 1.0);
  EXPECT_EQ(cache_->RemoveExpired(25.0), 1u);
  EXPECT_EQ(cache_->Get(restored), nullptr);
  EXPECT_EQ(cache_->size(), 1u);
}

// Capacity sweep: usage never exceeds capacity under sustained churn.
class CacheCapacityTest : public SemanticCacheTest,
                          public ::testing::WithParamInterface<double> {};

TEST_P(CacheCapacityTest, InvariantUnderChurn) {
  SemanticCacheOptions opts;
  opts.capacity_tokens = GetParam();
  Rebuild(opts);
  Rng rng(1);
  for (int i = 0; i < 300; ++i) {
    const auto topic = rng.NextBelow(world_.universe->size());
    const auto para = rng.NextBelow(6);
    const double now = i * 0.5;
    auto lookup = cache_->Lookup(world_.query(topic, para), now);
    if (!lookup.hit) {
      cache_->Insert(RequestFor(topic, para), now);
    }
    ASSERT_LE(cache_->usage_tokens(), opts.capacity_tokens + 1e-9);
    // Book-keeping invariant: usage equals the sum over entries.
    double sum = 0.0;
    for (const auto& [id, se] : cache_->entries()) sum += se.size_tokens;
    ASSERT_NEAR(sum, cache_->usage_tokens(), 1e-6);
  }
  EXPECT_GT(cache_->counters().hits, 0u);
}

INSTANTIATE_TEST_SUITE_P(Capacities, CacheCapacityTest,
                         ::testing::Values(150.0, 400.0, 1200.0, 5000.0));

TEST_F(SemanticCacheTest, EvictionAlwaysRemovesTheLowestScoredEntry) {
  SemanticCacheOptions opts;
  opts.capacity_tokens = 6.0 * 80.0;
  Rebuild(opts);
  Rng rng(9);
  const LcfuPolicy policy;
  double now = 0.0;
  for (int i = 0; i < 120; ++i) {
    now += 1.0;
    const auto topic = rng.NextBelow(world_.universe->size());
    // Random metadata so scores differ meaningfully.
    InsertRequest req = RequestFor(topic, rng.NextBelow(6));
    req.retrieval_latency_sec = rng.Uniform(0.1, 2.0);
    req.retrieval_cost_dollars = rng.Uniform(0.0, 0.05);
    req.initial_frequency = rng.NextBelow(5);

    // Reference model: predicted victim set = entries with the minimum
    // policy score before the insert.
    std::vector<SeId> before_ids;
    double min_score = std::numeric_limits<double>::infinity();
    for (const auto& [id, se] : cache_->entries()) {
      before_ids.push_back(id);
      min_score = std::min(min_score, policy.Score(se, now));
    }
    std::vector<SeId> min_ids;
    for (const auto& [id, se] : cache_->entries()) {
      if (policy.Score(se, now) == min_score) min_ids.push_back(id);
    }
    const auto evictions_before = cache_->counters().evictions;
    cache_->Insert(std::move(req), now);
    if (cache_->counters().evictions == evictions_before + 1) {
      // Exactly one entry was evicted: it must be one of the minimum-score
      // candidates from the reference model.
      for (SeId id : before_ids) {
        if (cache_->Get(id) == nullptr) {
          EXPECT_NE(std::find(min_ids.begin(), min_ids.end(), id),
                    min_ids.end())
              << "evicted entry was not a minimum-score candidate";
        }
      }
    }
  }
  EXPECT_GT(cache_->counters().evictions, 10u);
}

}  // namespace
}  // namespace cortex
