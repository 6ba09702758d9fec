#include "core/semantic_cache.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <limits>
#include <vector>

#include "llm/tags.h"
#include "util/check.h"

namespace cortex {

namespace {

double ElapsedSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// key_to_id_ key: one exact-key slot per namespace.  0x1f (unit
// separator) cannot appear in tenant ids, so the mapping is injective.
std::string NamespacedKey(std::string_view tenant, std::string_view key) {
  std::string k;
  k.reserve(tenant.size() + 1 + key.size());
  k.append(tenant);
  k.push_back('\x1f');
  k.append(key);
  return k;
}

}  // namespace

SemanticCache::SemanticCache(const Embedder* embedder,
                             std::unique_ptr<VectorIndex> index,
                             const JudgerModel* judger,
                             std::unique_ptr<EvictionPolicy> eviction,
                             SemanticCacheOptions options)
    : sine_(embedder, std::move(index), judger, options.sine),
      eviction_(std::move(eviction)),
      options_(options) {
  CHECK(eviction_ != nullptr);
  CHECK_GT(options_.capacity_tokens, 0.0);
}

SemanticCache::LookupResult SemanticCache::Lookup(std::string_view query,
                                                  double now,
                                                  std::string_view tenant) {
  // Expired entries must not serve hits; purge lazily before matching.
  RemoveExpired(now);
  LookupResult result;
  result.query_embedding = sine_.EmbedQuery(query);
  // An SE whose retrieval completes in the future must not serve hits yet
  // (inserts are recorded eagerly with their completion-time timestamps;
  // visibility honours the clock), and another tenant's private entries
  // must stay invisible.
  result.sine =
      sine_.Lookup(query, result.query_embedding,
                   [this, now, tenant](SeId id) -> const SemanticElement* {
                     const SemanticElement* se = Get(id);
                     return se && se->created_at <= now && !se->ExpiredAt(now) &&
                                    VisibleTo(*se, tenant)
                                ? se
                                : nullptr;
                   });
  if (result.sine.match) {
    const SemanticElement* se = Get(result.sine.match->id);
    CHECK(se != nullptr) << "SINE matched an id absent from the store";
    result.hit = CacheHit{se->id, se->value, se->key,
                          result.sine.match->similarity,
                          result.sine.match->judger_score};
  }
  CommitLookup(result, now);
  return result;
}

void SemanticCache::CommitLookup(const LookupResult& result, double now) {
  ++counters_.lookups;
  if (!result.hit) return;
  ++counters_.hits;
  const auto it = store_.find(result.hit->id);
  if (it == store_.end()) return;  // evicted between probe and commit
  ++it->second.frequency;
  // Batches commit with their own clock reads, possibly out of order;
  // max keeps last_access (and so the LRU score) from ever falling.
  it->second.last_access = std::max(it->second.last_access, now);
}

std::optional<SeId> SemanticCache::Insert(InsertRequest request, double now,
                                          InsertTiming* timing) {
  const double size_tokens =
      static_cast<double>(ApproxTokenCount(request.value));
  if (size_tokens > options_.capacity_tokens) {
    ++counters_.rejected_too_large;
    return std::nullopt;
  }

  // Remember the tenant's budget so later global evictions can identify
  // over-budget namespaces, and reject values no budget share could hold.
  if (!request.tenant.empty() && request.budget_tokens > 0.0) {
    tenant_budget_[request.tenant] = request.budget_tokens;
    if (size_tokens > request.budget_tokens) {
      ++counters_.budget_rejects;
      return std::nullopt;
    }
  }

  // Admission doorkeeper: under capacity pressure, knowledge must prove
  // itself (be fetched twice in the recent window) before it may displace
  // resident content.  Counting by value means paraphrases pool their
  // evidence.
  if (options_.admission_enabled) {
    admission_sketch_.Add(request.value);
    // Age the sketch so "recently" tracks a sliding window.
    if (admission_sketch_.total_additions() >
        16 * std::max<std::uint64_t>(1, store_.size())) {
      admission_sketch_.Halve();
    }
    const bool under_pressure =
        usage_tokens_ + size_tokens >
        options_.admission_pressure * options_.capacity_tokens;
    if (under_pressure && !ContainsValue(request.value) &&
        admission_sketch_.Estimate(request.value) <
            options_.admission_threshold) {
      ++counters_.admission_rejects;
      return std::nullopt;
    }
  }

  // Cross-tenant promotion evidence: count the distinct tenants that have
  // (shareably) fetched this exact value.  Reaching the K threshold
  // graduates the value to the shared pool — either by retagging the
  // resident private copy below, or by inserting the new SE as shared.
  const std::size_t value_hash = std::hash<std::string>{}(request.value);
  bool promote = false;
  if (options_.promote_distinct_tenants > 0 && !request.tenant.empty() &&
      request.shareable &&
      request.staticity >= options_.promote_min_staticity) {
    auto seen = promote_seen_.find(value_hash);
    if (seen == promote_seen_.end() &&
        promote_seen_.size() < options_.promote_tracker_capacity) {
      seen = promote_seen_.emplace(value_hash, std::vector<std::string>())
                 .first;
    }
    if (seen != promote_seen_.end()) {
      std::vector<std::string>& confirmers = seen->second;
      if (std::find(confirmers.begin(), confirmers.end(), request.tenant) ==
          confirmers.end()) {
        confirmers.push_back(request.tenant);
      }
      promote = confirmers.size() >= options_.promote_distinct_tenants;
      if (promote) promote_seen_.erase(seen);
    }
  }

  // Value-identity dedup: the same knowledge fetched under a different
  // phrasing refreshes the existing SE instead of spending capacity twice.
  // Only SEs visible to the inserting tenant qualify — a byte-identical
  // value in another tenant's namespace stays separate (unless promotion
  // just graduated it).
  for (auto [it, end] = value_hash_to_id_.equal_range(value_hash); it != end;
       ++it) {
    const auto se_it = store_.find(it->second);
    if (se_it == store_.end() || se_it->second.value != request.value) {
      continue;
    }
    SemanticElement& se = se_it->second;
    // Promotion may retag a resident private copy (the inserter's own or
    // a foreign tenant's) into the shared pool, but only when that copy's
    // own metadata allows sharing.
    const bool promote_this = promote && !se.tenant.empty() && se.shareable &&
                              se.staticity >= options_.promote_min_staticity;
    if (!VisibleTo(se, request.tenant) && !promote_this) continue;
    if (promote_this) {
      tenant_usage_[se.tenant].tokens -= se.size_tokens;
      key_to_id_.erase(NamespacedKey(se.tenant, se.key));
      se.tenant.clear();
      tenant_usage_[se.tenant].tokens += se.size_tokens;
      // The shared namespace may already hold this exact key with other
      // content; the freshly promoted copy replaces it.
      if (const auto shared_it = key_to_id_.find(NamespacedKey("", se.key));
          shared_it != key_to_id_.end() && shared_it->second != se.id) {
        RemoveInternal(shared_it->second, /*expired=*/false);
      }
      key_to_id_[NamespacedKey("", se.key)] = se.id;
      PushVictim(se, now);
      ++counters_.promotions;
    }
    se.shareable = se.shareable && request.shareable;
    se.frequency += request.initial_frequency;
    se.last_access = std::max(se.last_access, now);
    // The content was just re-retrieved fresh, so renew its lifetime.
    if (options_.ttl_enabled) {
      se.expiration_time = now + options_.min_ttl_sec +
                           (options_.max_ttl_sec - options_.min_ttl_sec) *
                               (se.staticity - 1.0) / 9.0;
      min_expiration_ = std::min(min_expiration_, se.expiration_time);
    }
    ++counters_.dedup_refreshes;
    Journal(se.id);
    return se.id;
  }

  // A promoted value with no resident copy enters the shared pool
  // directly.
  if (promote) request.tenant.clear();

  // Replace semantics on exact key collision, per namespace.
  if (const auto it =
          key_to_id_.find(NamespacedKey(request.tenant, request.key));
      it != key_to_id_.end()) {
    RemoveInternal(it->second, /*expired=*/false);
  }

  const auto evict_t0 = std::chrono::steady_clock::now();
  RemoveExpired(now);
  // Budget first: the inserting tenant makes room inside its own share
  // before the cache considers anyone else's entries.
  if (!request.tenant.empty() && request.budget_tokens > 0.0) {
    EvictTenantDownTo(request.tenant, request.budget_tokens - size_tokens,
                      now);
  }
  EvictDownTo(options_.capacity_tokens - size_tokens, now, request.tenant);
  if (timing != nullptr) timing->evict_seconds = ElapsedSince(evict_t0);

  SemanticElement se;
  se.id = next_id_++;
  se.key = std::move(request.key);
  se.value = std::move(request.value);
  se.tenant = std::move(request.tenant);
  se.shareable = request.shareable;
  se.embedding = request.embedding ? std::move(*request.embedding)
                                   : sine_.EmbedQuery(se.key);
  se.staticity = std::clamp(request.staticity, 1.0, 10.0);
  se.frequency = request.initial_frequency;
  se.retrieval_latency_sec = request.retrieval_latency_sec;
  se.retrieval_cost_dollars = request.retrieval_cost_dollars;
  se.size_tokens = size_tokens;
  se.created_at = now;
  se.last_access = now;
  se.expiration_time =
      options_.ttl_enabled
          ? now + options_.min_ttl_sec +
                (options_.max_ttl_sec - options_.min_ttl_sec) *
                    (se.staticity - 1.0) / 9.0
          : std::numeric_limits<double>::infinity();

  usage_tokens_ += se.size_tokens;
  tenant_usage_[se.tenant].tokens += se.size_tokens;
  min_expiration_ = std::min(min_expiration_, se.expiration_time);
  sine_.Insert(se);
  key_to_id_.emplace(NamespacedKey(se.tenant, se.key), se.id);
  value_hash_to_id_.emplace(value_hash, se.id);
  const SeId id = se.id;
  PushVictim(store_.emplace(id, std::move(se)).first->second, now);
  ++counters_.insertions;
  Journal(id);
  return id;
}

std::optional<SeId> SemanticCache::RestoreElement(SemanticElement se,
                                                  double now) {
  if (se.ExpiredAt(now)) return std::nullopt;
  se.size_tokens = static_cast<double>(ApproxTokenCount(se.value));
  if (se.size_tokens > options_.capacity_tokens) {
    ++counters_.rejected_too_large;
    return std::nullopt;
  }
  if (se.embedding.size() != sine_.dimension()) {
    se.embedding = sine_.EmbedQuery(se.key);
  }

  // Value-identity dedup: keep whichever copy has the richer history.
  // Restores only merge within the incoming SE's own visibility — its
  // namespace plus the shared pool — so one tenant's snapshot can never
  // collapse another tenant's private copy.
  const std::size_t value_hash = std::hash<std::string>{}(se.value);
  for (auto [it, end] = value_hash_to_id_.equal_range(value_hash); it != end;
       ++it) {
    const auto se_it = store_.find(it->second);
    if (se_it == store_.end() || se_it->second.value != se.value) continue;
    SemanticElement& existing = se_it->second;
    if (!VisibleTo(existing, se.tenant)) continue;
    existing.frequency = std::max(existing.frequency, se.frequency);
    existing.last_access = std::max(existing.last_access, se.last_access);
    existing.expiration_time =
        std::max(existing.expiration_time, se.expiration_time);
    existing.shareable = existing.shareable && se.shareable;
    ++counters_.dedup_refreshes;
    Journal(existing.id);
    return existing.id;
  }

  if (const auto it = key_to_id_.find(NamespacedKey(se.tenant, se.key));
      it != key_to_id_.end()) {
    RemoveInternal(it->second, /*expired=*/false);
  }
  RemoveExpired(now);
  EvictDownTo(options_.capacity_tokens - se.size_tokens, now, se.tenant);

  se.id = next_id_++;
  usage_tokens_ += se.size_tokens;
  tenant_usage_[se.tenant].tokens += se.size_tokens;
  min_expiration_ = std::min(min_expiration_, se.expiration_time);
  sine_.Insert(se);
  key_to_id_.emplace(NamespacedKey(se.tenant, se.key), se.id);
  value_hash_to_id_.emplace(value_hash, se.id);
  const SeId id = se.id;
  PushVictim(store_.emplace(id, std::move(se)).first->second, now);
  ++counters_.insertions;
  Journal(id);
  return id;
}

bool SemanticCache::ContainsKey(std::string_view key,
                                std::string_view tenant) const {
  return key_to_id_.contains(NamespacedKey(tenant, key));
}

bool SemanticCache::ContainsValue(std::string_view value) const {
  const std::size_t value_hash = std::hash<std::string_view>{}(value);
  for (auto [it, end] = value_hash_to_id_.equal_range(value_hash); it != end;
       ++it) {
    const auto se_it = store_.find(it->second);
    if (se_it != store_.end() && se_it->second.value == value) return true;
  }
  return false;
}

std::size_t SemanticCache::RemoveExpired(double now) {
  // Nothing resident can have expired yet: skip the scan.  When it does
  // run it is the same loop in the same order as always, so which entries
  // go (and when) is unchanged — only provably empty scans are skipped.
  if (now < min_expiration_) return 0;
  std::vector<SeId> expired;
  double survivor_min = std::numeric_limits<double>::infinity();
  for (const auto& [id, se] : store_) {
    if (se.ExpiredAt(now)) {
      expired.push_back(id);
    } else {
      survivor_min = std::min(survivor_min, se.expiration_time);
    }
  }
  for (SeId id : expired) RemoveInternal(id, /*expired=*/true);
  min_expiration_ = survivor_min;
  return expired.size();
}

void SemanticCache::EvictDownTo(double target_tokens, double now,
                                const std::string& offender) {
  target_tokens = std::max(target_tokens, 0.0);
  // Victim tiers, best first: the offending tenant's own entries, then
  // any tenant holding more than its recorded budget, then the shared
  // pool, and only as a last resort a within-budget bystander tenant
  // (reachable only when budgets oversubscribe the capacity).  Each tier
  // is the lowest head among its namespaces' heaps.
  while (usage_tokens_ > target_tokens && !store_.empty()) {
    VictimHeap* victim = nullptr;
    const auto consider = [&](const std::string& tenant) {
      VictimHeap* heap = HeapFor(tenant);
      if (heap != nullptr && ValidHead(tenant, *heap, now) &&
          (victim == nullptr || heap->front() < victim->front())) {
        victim = heap;
      }
    };
    if (!offender.empty()) consider(offender);
    if (victim == nullptr) {
      for (const auto& [tenant, budget] : tenant_budget_) {
        const auto usage = tenant_usage_.find(tenant);
        if (tenant != offender && budget > 0.0 &&
            usage != tenant_usage_.end() && usage->second.tokens > budget) {
          consider(tenant);
        }
      }
    }
    if (victim == nullptr) consider("");
    if (victim == nullptr) {
      // Every earlier tier is empty, so the remaining heads are exactly
      // the bystanders'.
      for (const auto& [tenant, heap] : victim_heaps_) consider(tenant);
    }
    CHECK(victim != nullptr) << "resident SEs missing from the victim heaps";
    EvictHead(*victim);
  }
}

void SemanticCache::EvictTenantDownTo(const std::string& tenant,
                                      double budget_tokens, double now) {
  budget_tokens = std::max(budget_tokens, 0.0);
  VictimHeap* heap = HeapFor(tenant);
  while (heap != nullptr) {
    const auto usage = tenant_usage_.find(tenant);
    if (usage == tenant_usage_.end() || usage->second.tokens <= budget_tokens ||
        !ValidHead(tenant, *heap, now)) {
      return;
    }
    EvictHead(*heap);
  }
}

void SemanticCache::EvictHead(VictimHeap& heap) {
  const SeId victim = heap.front().id;
  std::pop_heap(heap.begin(), heap.end(), std::greater<>());
  heap.pop_back();
  --victim_entries_;
  const auto it = store_.find(victim);
  CHECK(it != store_.end());
  ++tenant_usage_[it->second.tenant].evictions;
  RemoveInternal(victim, /*expired=*/false);
  ++counters_.evictions;
}

bool SemanticCache::ValidHead(const std::string& tenant, VictimHeap& heap,
                              double now) {
  while (!heap.empty()) {
    const auto it = store_.find(heap.front().id);
    if (it == store_.end() || it->second.tenant != tenant) {
      // Gone (evicted, expired, replaced, removed) or retagged by a
      // promotion.
      std::pop_heap(heap.begin(), heap.end(), std::greater<>());
      heap.pop_back();
      --victim_entries_;
      continue;
    }
    const double score = VictimScore(it->second, now);
    DCHECK_GE(score, heap.front().score)
        << "eviction score of SE " << it->first << " fell while resident";
    if (score <= heap.front().score) return true;
    // Keyed below its risen score: re-key it and look again.
    std::pop_heap(heap.begin(), heap.end(), std::greater<>());
    heap.back().score = score;
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
  }
  return false;
}

SemanticCache::VictimHeap* SemanticCache::HeapFor(const std::string& tenant) {
  const auto it = victim_heaps_.find(tenant);
  return it == victim_heaps_.end() ? nullptr : &it->second;
}

double SemanticCache::VictimScore(const SemanticElement& se,
                                  double now) const {
  // A NaN (only a corrupt snapshot's metadata yields one) would break the
  // heap's total order; it ranks as 0.
  const double score = eviction_->Score(se, now);
  return std::isnan(score) ? 0.0 : score;
}

void SemanticCache::PushVictim(const SemanticElement& se, double now) {
  if (++victim_entries_ <= 2 * store_.size() + 64) {
    VictimHeap& heap = victim_heaps_[se.tenant];
    heap.push_back({VictimScore(se, now), se.id});
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
    return;
  }
  // Too many stale entries: rebuild every heap from the store, which
  // also drops the heaps of namespaces with nothing resident.
  victim_heaps_.clear();
  for (const auto& [id, resident] : store_) {
    victim_heaps_[resident.tenant].push_back({VictimScore(resident, now), id});
  }
  for (auto& [tenant, heap] : victim_heaps_) {
    std::make_heap(heap.begin(), heap.end(), std::greater<>());
  }
  victim_entries_ = store_.size();
}

SemanticCache::TenantUsage SemanticCache::TenantUsageFor(
    std::string_view tenant) const {
  const auto it = tenant_usage_.find(std::string(tenant));
  return it != tenant_usage_.end() ? it->second : TenantUsage{};
}

void SemanticCache::RemoveInternal(SeId id, bool expired) {
  const auto it = store_.find(id);
  if (it == store_.end()) return;
  usage_tokens_ -= it->second.size_tokens;
  tenant_usage_[it->second.tenant].tokens -= it->second.size_tokens;
  key_to_id_.erase(NamespacedKey(it->second.tenant, it->second.key));
  const std::size_t value_hash = std::hash<std::string>{}(it->second.value);
  for (auto [vit, vend] = value_hash_to_id_.equal_range(value_hash);
       vit != vend; ++vit) {
    if (vit->second == id) {
      value_hash_to_id_.erase(vit);
      break;
    }
  }
  sine_.Remove(id);
  if (expired) ++counters_.expirations;
  store_.erase(it);
  Journal(id);
}

bool SemanticCache::Remove(SeId id) {
  if (!store_.contains(id)) return false;
  RemoveInternal(id, /*expired=*/false);
  return true;
}

const SemanticElement* SemanticCache::Get(SeId id) const {
  const auto it = store_.find(id);
  return it == store_.end() ? nullptr : &it->second;
}

}  // namespace cortex
