// SemanticCache: the cache architecture layered on Sine (paper §4.3).
//
// Turns Sine's probabilistic matches into deterministic cache behaviour:
//   * a lookup is a *hit* only when a candidate passes both retrieval
//     stages — a hit increments the SE's confirmed frequency;
//   * capacity is bounded (in value tokens); admission evicts expired items
//     first (TTL purge), then the lowest-scoring items under the configured
//     eviction policy (LCFU by default, LRU/LFU for the Table-6 baselines);
//   * every entry carries a staticity-scaled TTL, so even high-value items
//     are periodically refreshed (§4.3's aging mechanism).
#pragma once

#include <compare>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/eviction.h"
#include "core/sine.h"
#include "util/count_min.h"

namespace cortex {

struct SemanticCacheOptions {
  // Capacity in value tokens; "cache ratio" benches set this to
  // ratio x workload knowledge footprint.
  double capacity_tokens = 50000.0;
  SineOptions sine;
  // TTL grows linearly with staticity: stat=1 -> min, stat=10 -> max.
  bool ttl_enabled = true;
  double min_ttl_sec = 600.0;
  double max_ttl_sec = 4.0 * 3600.0;

  // Admission doorkeeper (TinyLFU-style) — an answer to §3.2's open
  // question "how should admission operate".  When the cache is under
  // capacity pressure, newly fetched knowledge is only admitted once its
  // *value* has been fetched at least `admission_threshold` times within
  // the recent window (tracked by a count-min sketch, so semantically
  // equivalent queries that fetch the same knowledge count together).
  // One-hit-wonder fetches then stop evicting proven content.
  bool admission_enabled = false;
  std::uint32_t admission_threshold = 2;
  // Pressure point: admission control only engages above this fill level
  // (an underfull cache should take everything).
  double admission_pressure = 0.9;

  // Cross-tenant promotion (DESIGN.md §12): a byte-identical value
  // inserted (with shareable=true) by this many *distinct* tenants
  // graduates to the shared pool, where every tenant's lookups can match
  // it.  0 disables promotion entirely.
  std::size_t promote_distinct_tenants = 0;
  // Promotion additionally requires the value's staticity to be at least
  // this floor — volatile knowledge stays private even when popular.
  double promote_min_staticity = 0.0;
  // Bound on distinct values the promotion tracker follows at once; new
  // values stop accumulating evidence when it is full.
  std::size_t promote_tracker_capacity = 4096;
};

struct CacheHit {
  SeId id = 0;
  std::string value;
  std::string matched_key;
  double similarity = 0.0;
  double judger_score = 0.0;
};

struct CacheCounters {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::uint64_t expirations = 0;
  std::uint64_t rejected_too_large = 0;
  std::uint64_t dedup_refreshes = 0;
  std::uint64_t admission_rejects = 0;
  // Inserts rejected because the value alone exceeds the tenant's budget.
  std::uint64_t budget_rejects = 0;
  // Private SEs retagged into the shared pool by cross-tenant promotion.
  std::uint64_t promotions = 0;

  double HitRate() const noexcept {
    return lookups ? static_cast<double>(hits) / static_cast<double>(lookups)
                   : 0.0;
  }
};

// Optional wall time spent on TTL purge + eviction inside an Insert.
struct InsertTiming {
  double evict_seconds = 0.0;
};

struct InsertRequest {
  std::string key;
  std::string value;
  // Pass the embedding if already computed during the miss lookup;
  // otherwise the cache embeds the key itself.
  std::optional<Vector> embedding;
  double staticity = 5.0;
  double retrieval_latency_sec = 0.0;
  double retrieval_cost_dollars = 0.0;
  // A prefetched SE enters with zero confirmed frequency (§4.3).
  std::uint64_t initial_frequency = 0;
  // Owning namespace; empty inserts straight into the shared pool.
  std::string tenant;
  // Privacy gate: may this value ever graduate to the shared pool?
  bool shareable = true;
  // Token budget for `tenant` (0 = unlimited).  Supplied by the serving
  // layer from the TenantRegistry; the core only enforces it, keeping
  // quota *policy* out of core/.
  double budget_tokens = 0.0;
};

class SemanticCache {
 public:
  // `index` may be null (see Sine): the cache then keeps its store,
  // eviction and journal but cannot serve Lookup itself.
  SemanticCache(const Embedder* embedder, std::unique_ptr<VectorIndex> index,
                const JudgerModel* judger,
                std::unique_ptr<EvictionPolicy> eviction,
                SemanticCacheOptions options = {});

  struct LookupResult {
    std::optional<CacheHit> hit;
    // The query's embedding, reusable by an insert after a miss.
    Vector query_embedding;
    // Stage telemetry for latency modelling and recalibration logging.
    SineLookupResult sine;
  };

  // Two-stage semantic lookup at time `now`, scoped to `tenant`: only the
  // tenant's own namespace plus the shared pool can match, and an SE
  // created after `now` cannot.  Purges expired entries first, then
  // commits (CommitLookup): a hit bumps the SE's frequency and
  // last_access.  Requires the cache to have been built with an index.
  LookupResult Lookup(std::string_view query, double now,
                      std::string_view tenant = {});

  // The mutating half of a lookup: counts the lookup (and hit) and bumps
  // the matched SE's confirmed frequency / last_access.  The serving tier
  // probes its own snapshot and commits here; the SE may have been
  // evicted between probe and commit, in which case the hit still counts
  // — the caller served the value — but the bump is skipped.
  void CommitLookup(const LookupResult& result, double now);

  // Inserts (evicting as needed); returns the new SE's id, or nullopt when
  // the value alone exceeds capacity.  Re-inserting an existing exact key
  // replaces that entry.  If an SE with a byte-identical value already
  // exists, the insert dedups onto it instead: the existing SE is
  // refreshed (frequency credited, TTL renewed) and its id returned —
  // re-fetching the same knowledge under a different phrasing must not
  // spend capacity twice.  `timing`, when non-null, receives the wall time
  // spent purging + evicting to make room.
  std::optional<SeId> Insert(InsertRequest request, double now,
                             InsertTiming* timing = nullptr);

  // Re-admits a fully-populated SE (e.g. from a snapshot), preserving its
  // accumulated metadata — frequency, timestamps, expiration — instead of
  // resetting it the way Insert does.  Subject to the usual capacity,
  // key-replace, value-dedup, and TTL rules; ids are reassigned.
  std::optional<SeId> RestoreElement(SemanticElement se, double now);

  // Exact-key presence probe (Algorithm 3's Cache.Contains guard), scoped
  // to one namespace: the same key may exist independently per tenant.
  bool ContainsKey(std::string_view key, std::string_view tenant = {}) const;
  // Value-identity presence probe (is this knowledge already resident?).
  bool ContainsValue(std::string_view value) const;

  // TTL purge; returns the number of entries removed.  O(1) while `now`
  // is below the resident expiration lower bound (nothing can have
  // expired); otherwise one scan of the store, which also recomputes the
  // bound.
  std::size_t RemoveExpired(double now);

  bool Remove(SeId id);
  const SemanticElement* Get(SeId id) const;

  // Per-namespace accounting (tokens resident / evictions suffered).  The
  // shared pool appears under the empty tenant id.
  struct TenantUsage {
    double tokens = 0.0;
    std::uint64_t evictions = 0;
  };
  TenantUsage TenantUsageFor(std::string_view tenant) const;
  const std::unordered_map<std::string, TenantUsage>& tenant_usage()
      const noexcept {
    return tenant_usage_;
  }

  // Entries across all victim heaps, stale ones included.  At most
  // 2 x size() + 64 after every insert: a push past that rebuilds every
  // heap from the store.
  std::size_t victim_heap_entries() const noexcept { return victim_entries_; }

  std::size_t size() const noexcept { return store_.size(); }
  double usage_tokens() const noexcept { return usage_tokens_; }
  double capacity_tokens() const noexcept { return options_.capacity_tokens; }
  const CacheCounters& counters() const noexcept { return counters_; }
  const EvictionPolicy& eviction_policy() const noexcept { return *eviction_; }
  Sine& sine() noexcept { return sine_; }
  const Sine& sine() const noexcept { return sine_; }

  // Iteration support for diagnostics and tests.
  const std::unordered_map<SeId, SemanticElement>& entries() const noexcept {
    return store_;
  }

  // Change journal (DESIGN.md §13.3).  Once enabled, every event that can
  // change what a probe observes appends the SE's id: insert, removal
  // (evict, expire, replace), a dedup refresh (renews expiration_time),
  // and a promotion retag.  frequency/last_access bumps are not
  // probe-relevant and are not journaled.  An id may appear more than
  // once; the consumer reconciles each against the store's current state
  // (Get(id) == nullptr means it is gone).  Off by default, so caches
  // nobody drains never accumulate a journal.
  void EnableJournal() noexcept { journal_enabled_ = true; }
  // Moves the pending journal into `out` (whose previous contents are
  // discarded; its capacity is recycled as the next journal buffer).
  void DrainJournal(std::vector<SeId>& out) {
    out.clear();
    out.swap(journal_);
  }

 private:
  // One lazy victim-heap entry: the SE's score when pushed, which never
  // exceeds its current score (EvictionPolicy's contract).  Ordered by
  // (score, id), so equal scores evict the oldest SE first.
  struct VictimEntry {
    double score = 0.0;
    SeId id = 0;
    auto operator<=>(const VictimEntry&) const = default;
  };
  using VictimHeap = std::vector<VictimEntry>;

  // Tenant-aware eviction: victims come from the offending tenant's own
  // namespace first, then from tenants over their recorded budget, then
  // the shared pool, and only as a last resort from within-budget
  // bystanders (keeps the capacity invariant when budgets oversubscribe
  // the shard).  Within a tier the lowest (score, id) loses.  Callers
  // purge expired SEs at `now` first.
  void EvictDownTo(double target_tokens, double now,
                   const std::string& offender);
  // Evicts within one tenant's namespace until its usage fits
  // `budget_tokens`; charged to that tenant's eviction count.
  void EvictTenantDownTo(const std::string& tenant, double budget_tokens,
                         double now);
  // Evicts `heap`'s head (ValidHead must have returned true for it).
  void EvictHead(VictimHeap& heap);
  // Pops `heap`'s entries for SEs gone from `tenant`'s namespace and
  // re-keys a head whose score has risen, until the head is a resident
  // SE keyed at its current score.  False when the heap runs empty.
  bool ValidHead(const std::string& tenant, VictimHeap& heap, double now);
  VictimHeap* HeapFor(const std::string& tenant);
  double VictimScore(const SemanticElement& se, double now) const;
  // Pushes `se` (already in store_) onto its namespace's heap; past the
  // stale-entry bound, rebuilds every heap from the store instead.
  void PushVictim(const SemanticElement& se, double now);
  void RemoveInternal(SeId id, bool expired);
  void Journal(SeId id) {
    if (journal_enabled_) journal_.push_back(id);
  }
  // True when `tenant` may see (match / dedup onto) `se`.
  static bool VisibleTo(const SemanticElement& se,
                        std::string_view tenant) noexcept {
    return se.tenant.empty() || se.tenant == tenant;
  }

  Sine sine_;
  std::unique_ptr<EvictionPolicy> eviction_;
  SemanticCacheOptions options_;
  std::unordered_map<SeId, SemanticElement> store_;
  // Keyed by NamespacedKey(tenant, key): the same semantic key may exist
  // once per namespace.
  std::unordered_map<std::string, SeId> key_to_id_;
  // Value-identity dedup index: hash of value -> ids holding that hash
  // (hash collisions resolved by comparing the actual values).
  std::unordered_multimap<std::size_t, SeId> value_hash_to_id_;
  double usage_tokens_ = 0.0;
  SeId next_id_ = 1;
  CacheCounters counters_;
  CountMinSketch admission_sketch_;
  // Per-namespace resident tokens + evictions suffered.
  std::unordered_map<std::string, TenantUsage> tenant_usage_;
  // Last budget seen per tenant (from InsertRequest::budget_tokens); lets
  // EvictDownTo identify over-budget tenants without a policy dependency.
  std::unordered_map<std::string, double> tenant_budget_;
  // Promotion evidence: value hash -> distinct shareable-inserting
  // tenants seen so far (bounded by promote_tracker_capacity).
  std::unordered_map<std::size_t, std::vector<std::string>> promote_seen_;
  // Lazy min-heaps of eviction candidates, one per namespace (the shared
  // pool under ""), and their total entry count.
  std::unordered_map<std::string, VictimHeap> victim_heaps_;
  std::size_t victim_entries_ = 0;
  // Lower bound on every resident expiration_time: lowered whenever an
  // SE's expiration is set, recomputed exactly by each RemoveExpired scan.
  double min_expiration_ = std::numeric_limits<double>::infinity();
  bool journal_enabled_ = false;
  std::vector<SeId> journal_;
};

}  // namespace cortex
