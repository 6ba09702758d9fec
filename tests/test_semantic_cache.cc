#include "core/semantic_cache.h"

#include <gtest/gtest.h>

#include "ann/flat_index.h"
#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "core/engine.h"
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

TEST_F(SemanticCacheTest, LastAccessNeverMovesBackwards) {
  const SeId id = *cache_->Insert(RequestFor(0), 0.0);
  SemanticCache::LookupResult hit;
  hit.hit = CacheHit{id, world_.answer(0), world_.query(0), 1.0, 1.0};
  cache_->CommitLookup(hit, 10.0);
  cache_->CommitLookup(hit, 5.0);  // an older batch commits late
  EXPECT_DOUBLE_EQ(cache_->Get(id)->last_access, 10.0);
  EXPECT_EQ(cache_->Get(id)->frequency, 3u);
  // A dedup refresh stamped with an older clock keeps it too.
  ASSERT_EQ(cache_->Insert(RequestFor(0, 1), 7.0), id);
  EXPECT_DOUBLE_EQ(cache_->Get(id)->last_access, 10.0);
}

// ---------------------------------------------------------------------------
// Victim order.  Equal scores lose oldest first, and the lazy victim heaps
// pick exactly the victims of an O(n) scan over the store.

TEST_F(SemanticCacheTest, EqualScoresEvictInAscendingIdOrder) {
  SemanticCacheOptions opts;
  opts.capacity_tokens = 400.0;
  Rebuild(opts);
  cache_->EnableJournal();
  std::vector<SeId> journal;
  std::vector<SeId> evicted;
  std::set<SeId> resident;
  for (std::size_t topic = 0; topic < world_.universe->size(); ++topic) {
    InsertRequest req = RequestFor(topic);
    req.retrieval_cost_dollars = 0.0;  // LCFU score 0, like a wire INSERT
    req.retrieval_latency_sec = 0.0;
    const SeId id = *cache_->Insert(std::move(req), 1.0);
    cache_->DrainJournal(journal);
    for (const SeId j : journal) {
      if (resident.erase(j) > 0) evicted.push_back(j);
    }
    resident.insert(id);
  }
  ASSERT_GT(evicted.size(), 10u);
  EXPECT_TRUE(std::is_sorted(evicted.begin(), evicted.end()));
  // Everything evicted is older than everything still resident.
  EXPECT_LT(evicted.back(), *resident.begin());
}

TEST_F(SemanticCacheTest, StaleHeapEntriesStayBounded) {
  SemanticCacheOptions opts;
  opts.capacity_tokens = 3000.0;
  Rebuild(opts);
  Rng rng(17);
  std::size_t max_entries = 0;
  for (int i = 0; i < 10000; ++i) {
    // Few keys, fresh values: nearly every insert replaces a resident SE
    // and leaves its heap entry stale.
    const std::size_t topic = rng.NextBelow(world_.universe->size());
    if (i % 7 == 0 && cache_->size() > 0) {
      cache_->Remove(cache_->entries().begin()->first);
    }
    InsertRequest req = RequestFor(topic, rng.NextBelow(6));
    req.value += " v" + std::to_string(i);
    cache_->Insert(std::move(req), 1.0 + i * 1e-3);
    // The bound is enforced on every push, so it holds after each insert.
    ASSERT_LE(cache_->victim_heap_entries(), 2 * cache_->size() + 64) << i;
    max_entries = std::max(max_entries, cache_->victim_heap_entries());
  }
  EXPECT_GT(cache_->counters().evictions, 0u);
  EXPECT_LE(max_entries, 2 * 240 + 64);  // 40 topics x 6 keys resident max
}

TEST_F(SemanticCacheTest, NanScoreFromARestoreRanksAsZero) {
  SemanticCacheOptions opts;
  opts.capacity_tokens = 300.0;
  Rebuild(opts);
  // A RESTORE carries metadata from outside; a negative cost makes the
  // LCFU score NaN.
  SemanticElement bad;
  bad.key = world_.query(0);
  bad.value = world_.answer(0);
  bad.frequency = 3;
  bad.retrieval_cost_dollars = -1.0;
  bad.retrieval_latency_sec = 1.0;
  bad.staticity = 5.0;
  const SeId bad_id = *cache_->RestoreElement(std::move(bad), 1.0);
  ASSERT_TRUE(std::isnan(
      cache_->eviction_policy().Score(*cache_->Get(bad_id), 1.0)));
  std::size_t topic = 1;
  while (cache_->counters().evictions == 0) {
    ASSERT_TRUE(cache_->Insert(RequestFor(topic++), 2.0).has_value());
  }
  EXPECT_EQ(cache_->Get(bad_id), nullptr);  // the lowest, not skipped
  for (; topic < world_.universe->size(); ++topic) {
    cache_->Insert(RequestFor(topic), 3.0);
    ASSERT_LE(cache_->usage_tokens(), opts.capacity_tokens);
  }
}

// The O(n) reference: one pass over the resident SEs per victim, ranked
// by (tier, score, id) with the tiers EvictDownTo documents.  It replays
// each eviction pass on a copy of the cache's pre-operation store, so it
// judges only the victim choice.
class ReferenceEvictor {
 public:
  explicit ReferenceEvictor(const EvictionPolicy& policy) : policy_(policy) {}

  void SetBudget(const std::string& tenant, double budget) {
    if (!tenant.empty() && budget > 0.0) budgets_[tenant] = budget;
  }
  const std::map<std::string, std::uint64_t>& evictions() const {
    return evictions_;
  }

  // Victims, in order, of an insert of `incoming` (tenant and size as
  // stored) into `store`, which already lacks the replaced and expired
  // SEs.  `budget` > 0 runs the tenant's budget pass first.
  std::vector<SeId> Evict(std::map<SeId, SemanticElement> store,
                          const SemanticElement& incoming, double budget,
                          double capacity, double now) {
    std::vector<SeId> victims;
    const auto tokens_of = [&store](const std::string& tenant) {
      double sum = 0.0;
      for (const auto& [id, se] : store) {
        if (se.tenant == tenant) sum += se.size_tokens;
      }
      return sum;
    };
    const auto evict = [&](auto tier_of, double target, auto usage) {
      while (usage() > std::max(target, 0.0)) {
        std::optional<std::tuple<int, double, SeId>> best;
        for (const auto& [id, se] : store) {
          const int tier = tier_of(se);
          if (tier < 0) continue;
          const std::tuple<int, double, SeId> rank{
              tier, policy_.Score(se, now), id};
          if (!best || rank < *best) best = rank;
        }
        if (!best) return;
        const SeId victim = std::get<2>(*best);
        ++evictions_[store.at(victim).tenant];
        victims.push_back(victim);
        store.erase(victim);
      }
    };
    const std::string& offender = incoming.tenant;
    if (!offender.empty() && budget > 0.0) {
      evict([&](const SemanticElement& se) {
              return se.tenant == offender ? 0 : -1;
            },
            budget - incoming.size_tokens,
            [&] { return tokens_of(offender); });
    }
    evict(
        [&](const SemanticElement& se) {
          if (!offender.empty() && se.tenant == offender) return 0;
          if (se.tenant.empty()) return 2;
          const auto b = budgets_.find(se.tenant);
          return b != budgets_.end() && tokens_of(se.tenant) > b->second ? 1
                                                                         : 3;
        },
        capacity - incoming.size_tokens, [&] {
          double sum = 0.0;
          for (const auto& [id, se] : store) sum += se.size_tokens;
          return sum;
        });
    return victims;
  }

 private:
  const EvictionPolicy& policy_;
  std::map<std::string, double> budgets_;
  std::map<std::string, std::uint64_t> evictions_;
};

class EvictionDifferentialTest
    : public SemanticCacheTest,
      public ::testing::WithParamInterface<EvictionKind> {};

TEST_P(EvictionDifferentialTest, HeapsEvictExactlyWhatAScanWould) {
  SemanticCacheOptions opts;
  opts.capacity_tokens = 700.0;
  opts.min_ttl_sec = 20.0;
  opts.max_ttl_sec = 60.0;
  opts.promote_distinct_tenants = 2;
  SemanticCache cache(&world_.embedder, /*index=*/nullptr,
                      world_.judger.get(), MakeEviction(GetParam()), opts);
  cache.EnableJournal();
  ReferenceEvictor reference(cache.eviction_policy());
  const std::vector<std::string> tenants = {"", "acme", "globex", "initech"};
  Rng rng(0xd1ff + static_cast<std::uint64_t>(GetParam()));

  std::vector<SeId> journal;
  std::size_t checked_victims = 0;
  double clock = 0.0;
  std::uint64_t serial = 0;
  // Runs one store-adding operation and compares its victims with the
  // reference's replay on the pre-operation store.
  const auto run = [&](const std::string& tenant, double budget, double now,
                       const auto& op) {
    std::map<SeId, SemanticElement> before;
    for (const auto& [id, se] : cache.entries()) {
      before.emplace(id, se).first->second.embedding.clear();
    }
    const CacheCounters counters = cache.counters();
    reference.SetBudget(tenant, budget);
    const std::optional<SeId> added = op();
    cache.DrainJournal(journal);
    if (cache.counters().insertions == counters.insertions) {
      EXPECT_EQ(cache.counters().evictions, counters.evictions);
      return;
    }
    ASSERT_TRUE(added.has_value());
    const SemanticElement& incoming = *cache.Get(*added);
    // The reference starts from the store the eviction pass saw: minus
    // the exact key this insert replaced and the SEs expired at `now`.
    std::map<SeId, SemanticElement> store;
    for (const auto& [id, se] : before) {
      const bool replaced = se.tenant == incoming.tenant &&
                            se.key == incoming.key;
      if (!replaced && !se.ExpiredAt(now)) store.emplace(id, se);
    }
    std::vector<SeId> victims;
    for (const SeId id : journal) {
      if (store.contains(id) && cache.Get(id) == nullptr &&
          std::find(victims.begin(), victims.end(), id) == victims.end()) {
        victims.push_back(id);
      }
    }
    const double tenant_budget = tenant == incoming.tenant ? budget : 0.0;
    EXPECT_EQ(victims, reference.Evict(std::move(store), incoming,
                                       tenant_budget, opts.capacity_tokens,
                                       now))
        << "op " << serial;
    checked_victims += victims.size();
  };

  for (int step = 0; step < 5000; ++step, ++serial) {
    clock += rng.Uniform(0.0, 0.5);
    // Concurrent batches commit with their own, sometimes older, clocks.
    const double now = clock - (rng.NextBelow(4) == 0 ? rng.Uniform(0, 2) : 0);
    const std::string& tenant = tenants[rng.NextBelow(tenants.size())];
    const double budget =
        tenant.empty() || rng.NextBelow(3) == 0 ? 0.0 : rng.Uniform(100, 300);
    // Few topics, so tenants often fetch the same value: dedup refreshes
    // and promotion retags are frequent.
    const std::size_t topic = rng.NextBelow(12);
    switch (rng.NextBelow(10)) {
      case 0:
      case 1:
      case 2:
      case 3: {  // insert: new, key replace, dedup refresh or promotion
        InsertRequest req = RequestFor(topic, rng.NextBelow(6),
                                       rng.NextBelow(3));
        if (rng.NextBelow(2) == 0) {  // a zero-score wire insert
          req.retrieval_cost_dollars = 0.0;
          req.retrieval_latency_sec = 0.0;
        }
        if (rng.NextBelow(3) == 0) {
          req.value += " rev " + std::to_string(rng.NextBelow(4));
        }
        req.tenant = tenant;
        req.budget_tokens = budget;
        req.shareable = rng.NextBelow(4) != 0;
        run(tenant, budget, now,
            [&] { return cache.Insert(std::move(req), now); });
        break;
      }
      case 4: {  // restore a fully populated SE
        SemanticElement se;
        se.key = world_.query(topic, rng.NextBelow(6));
        se.value = world_.answer(topic) + " restored";
        se.tenant = tenant;
        se.staticity = rng.Uniform(1.0, 10.0);
        se.frequency = rng.NextBelow(5);
        se.retrieval_cost_dollars = rng.Uniform(0.0, 0.01);
        se.retrieval_latency_sec = rng.Uniform(0.0, 1.0);
        se.created_at = now - rng.Uniform(0.0, 5.0);
        se.last_access = now - rng.Uniform(0.0, 3.0);
        se.expiration_time = now + rng.Uniform(1.0, 40.0);
        run("", 0.0, now, [&] {
          return cache.RestoreElement(std::move(se), now);
        });
        break;
      }
      case 5:
      case 6:
      case 7: {  // a committed hit bumps frequency and recency
        if (cache.size() == 0) break;
        auto it = cache.entries().begin();
        std::advance(it, rng.NextBelow(cache.size()));
        SemanticCache::LookupResult hit;
        hit.hit = CacheHit{it->first, it->second.value, it->second.key, 1, 1};
        cache.CommitLookup(hit, now);
        break;
      }
      case 8: {
        if (cache.size() == 0) break;
        auto it = cache.entries().begin();
        std::advance(it, rng.NextBelow(cache.size()));
        cache.Remove(it->first);
        break;
      }
      default:
        cache.RemoveExpired(now);
        break;
    }
  }

  EXPECT_GT(checked_victims, 1000u);
  EXPECT_GT(cache.counters().expirations, 20u);
  EXPECT_GT(cache.counters().promotions, 20u);
  EXPECT_GT(cache.counters().dedup_refreshes, 200u);
  std::map<std::string, std::uint64_t> evictions;
  for (const auto& [tenant, usage] : cache.tenant_usage()) {
    if (usage.evictions > 0) evictions[tenant] = usage.evictions;
  }
  EXPECT_EQ(evictions, reference.evictions());
  EXPECT_GT(evictions.size(), 2u);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, EvictionDifferentialTest,
    ::testing::Values(EvictionKind::kLcfu, EvictionKind::kLru,
                      EvictionKind::kLfu),
    [](const ::testing::TestParamInfo<EvictionKind>& info) {
      return MakeEviction(info.param)->name();
    });

}  // namespace
}  // namespace cortex
