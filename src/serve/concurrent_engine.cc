#include "serve/concurrent_engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <string>

#include "util/check.h"

namespace cortex::serve {

namespace {

// Rounds `p` up to the next 64-byte boundary (the over-allocation in the
// batch matrices leaves room for this).
float* AlignTo64(float* p) noexcept {
  auto v = reinterpret_cast<std::uintptr_t>(p);
  v = (v + 63) & ~static_cast<std::uintptr_t>(63);
  return reinterpret_cast<float*>(v);
}

std::function<double()> WallClockSinceNow() {
  const auto start = std::chrono::steady_clock::now();
  return [start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
}

}  // namespace

ConcurrentShardedEngine::ConcurrentShardedEngine(
    const HashedEmbedder* embedder, const JudgerModel* judger,
    ConcurrentEngineOptions options)
    : embedder_(embedder),
      judger_(judger),
      options_(std::move(options)),
      clock_(options_.clock ? options_.clock : WallClockSinceNow()) {
  CHECK(embedder != nullptr) << "engine requires an embedder";
  CHECK_GT(options_.num_shards, 0u);

  if (options_.registry != nullptr) {
    registry_ = options_.registry;
  } else {
    registry_owned_ = std::make_unique<telemetry::MetricRegistry>();
    registry_ = registry_owned_.get();
  }
  lookups_ = registry_->GetCounter("cortex_engine_lookups");
  hits_ = registry_->GetCounter("cortex_engine_hits");
  misses_ = registry_->GetCounter("cortex_engine_misses");
  judger_rejects_ = registry_->GetCounter("cortex_engine_judger_rejects");
  inserts_ = registry_->GetCounter("cortex_engine_inserts");
  insert_rejects_ = registry_->GetCounter("cortex_engine_insert_rejects");
  expired_removed_ = registry_->GetCounter("cortex_engine_expired_removed");
  housekeeping_runs_ =
      registry_->GetCounter("cortex_engine_housekeeping_runs");
  recalibrations_ = registry_->GetCounter("cortex_engine_recalibrations");
  probe_seconds_ = registry_->GetHistogram("cortex_engine_probe_seconds");
  commit_seconds_ = registry_->GetHistogram("cortex_engine_commit_seconds");
  insert_seconds_ = registry_->GetHistogram("cortex_engine_insert_seconds");
  scan_rows_ = registry_->GetCounter("cortex_engine_scan_rows");
  snapshot_publishes_ =
      registry_->GetCounter("cortex_engine_snapshot_publishes");
  snapshot_rows_copied_ =
      registry_->GetCounter("cortex_engine_snapshot_rows_copied");
  publish_seconds_ = registry_->GetHistogram("cortex_engine_publish_seconds");
  limbo_rows_ = registry_->GetGauge("cortex_engine_limbo_rows");
  epoch_lag_ = registry_->GetGauge("cortex_engine_epoch_lag");
  retired_pending_ = registry_->GetGauge("cortex_engine_retired_pending");
  restore_future_dated_ =
      registry_->GetCounter("cortex_engine_restore_future_dated");
  cache_evictions_ = registry_->GetCounter("cortex_cache_evictions");
  cache_ttl_expiries_ = registry_->GetCounter("cortex_cache_ttl_expiries");
  cache_dedup_refreshes_ =
      registry_->GetCounter("cortex_cache_dedup_refreshes");
  cache_admission_rejects_ =
      registry_->GetCounter("cortex_cache_admission_rejects");
  cache_rejected_too_large_ =
      registry_->GetCounter("cortex_cache_rejected_too_large");
  cache_budget_rejects_ = registry_->GetCounter("cortex_cache_budget_rejects");
  cache_promotions_ = registry_->GetCounter("cortex_cache_promotions");
  cache_tokens_resident_ = registry_->GetGauge("cortex_cache_tokens_resident");
  cache_entries_ = registry_->GetGauge("cortex_cache_entries");
  tenant_registry_ =
      std::make_unique<tenant::TenantRegistry>(registry_, options_.tenants);

  SemanticCacheOptions per_shard = options_.cache;
  per_shard.capacity_tokens = options_.cache.capacity_tokens /
                              static_cast<double>(options_.num_shards);
  per_shard_capacity_ = per_shard.capacity_tokens;
  shards_.reserve(options_.num_shards);
  for (std::size_t i = 0; i < options_.num_shards; ++i) {
    // No VectorIndex: the published ShardSnapshot is the shard's only
    // candidate index, and the journal is how it learns what changed.
    auto cache = std::make_unique<SemanticCache>(
        embedder, nullptr, judger, MakeEviction(options_.eviction), per_shard);
    cache->EnableJournal();
    shards_.push_back(std::make_unique<Shard>(
        std::move(cache), options_.recalibration,
        options_.recalibration_seed + i, embedder->dimension(),
        options_.probe_scan_format));
    const std::string prefix =
        "cortex_engine_shard" + std::to_string(i) + "_";
    Shard& shard = *shards_.back();
    // Probes always find a snapshot: an empty one until the first write.
    auto* empty = new ShardSnapshot;
    empty->format = options_.probe_scan_format;
    empty->dim = embedder->dimension();
    empty->sine = per_shard.sine;
    shard.snapshot.store(empty, std::memory_order_seq_cst);
    shard.hits = registry_->GetCounter(prefix + "hits");
    shard.misses = registry_->GetCounter(prefix + "misses");
    shard.judger_rejects = registry_->GetCounter(prefix + "judger_rejects");
    shard.evictions = registry_->GetCounter(prefix + "evictions");
  }

  if (options_.housekeeping_interval_sec > 0.0) {
    housekeeper_ = std::thread([this] { HousekeepingLoop(); });
  }
}

ConcurrentShardedEngine::~ConcurrentShardedEngine() {
  StopHousekeeping();
  // Retire every shard's final snapshot, then wait out the grace period.
  // No probes may be in flight once destruction starts (usual dtor
  // contract), so the drain completes promptly.
  for (auto& shard : shards_) {
    const ShardSnapshot* last =
        shard->snapshot.exchange(nullptr, std::memory_order_seq_cst);
    epoch_.Retire([last] { delete last; });
  }
  epoch_.DrainBlocking();
}

void ConcurrentShardedEngine::StopHousekeeping() {
  {
    MutexLock lock(hk_mu_);
    hk_stop_ = true;
  }
  hk_cv_.notify_all();
  if (housekeeper_.joinable()) housekeeper_.join();
}

std::size_t ConcurrentShardedEngine::ShardFor(std::string_view query) const {
  return RouteToShard(*embedder_, tokenizer_, query, shards_.size());
}

void ConcurrentShardedEngine::ApplyCacheDeltas(Shard& shard,
                                               const CacheCounters& before,
                                               const CacheCounters& after,
                                               double usage_delta,
                                               double entries_delta) {
  const std::uint64_t evictions = after.evictions - before.evictions;
  if (evictions > 0) {
    cache_evictions_->Inc(evictions);
    shard.evictions->Inc(evictions);
  }
  if (after.expirations > before.expirations) {
    cache_ttl_expiries_->Inc(after.expirations - before.expirations);
  }
  if (after.dedup_refreshes > before.dedup_refreshes) {
    cache_dedup_refreshes_->Inc(after.dedup_refreshes -
                                before.dedup_refreshes);
  }
  if (after.admission_rejects > before.admission_rejects) {
    cache_admission_rejects_->Inc(after.admission_rejects -
                                  before.admission_rejects);
  }
  if (after.rejected_too_large > before.rejected_too_large) {
    cache_rejected_too_large_->Inc(after.rejected_too_large -
                                   before.rejected_too_large);
  }
  if (after.budget_rejects > before.budget_rejects) {
    cache_budget_rejects_->Inc(after.budget_rejects - before.budget_rejects);
  }
  if (after.promotions > before.promotions) {
    cache_promotions_->Inc(after.promotions - before.promotions);
  }
  if (usage_delta != 0.0) cache_tokens_resident_->Add(usage_delta);
  if (entries_delta != 0.0) cache_entries_->Add(entries_delta);
}

void ConcurrentShardedEngine::PublishSnapshot(Shard& shard) {
  // Slots whose grace period has passed free their record and return
  // their row to the slab free list, so this publish's appends can reuse
  // them.  Limbo stamps are non-decreasing — reclaiming is a prefix pop.
  const std::uint64_t safe = epoch_.safe_epoch();
  std::size_t reclaimed = 0;
  while (!shard.limbo.empty() && shard.limbo.front().epoch <= safe) {
    shard.scan_slab.Free(shard.limbo.front().slot.row);
    shard.limbo.pop_front();
    ++reclaimed;
  }
  if (reclaimed > 0) limbo_rows_->Add(-static_cast<double>(reclaimed));

  shard.cache->DrainJournal(shard.journal);
  const ShardSnapshot* cur = shard.snapshot.load(std::memory_order_seq_cst);
  const SineOptions& live = shard.cache->sine().options();
  const bool tau_moved =
      cur->sine.tau_lsm != live.tau_lsm || cur->sine.tau_sim != live.tau_sim;
  if (shard.journal.empty() && !tau_moved) return;

  const double t0 = telemetry::WallSeconds();
  // The previous arrays, copied wholesale (trivially copyable: one memcpy
  // each), then patched slot by slot.  The destination is the recycled
  // spare when one has come back from the grace period: copy-assignment
  // into its capacity allocates nothing and writes warm memory.
  // Capacity is reserved for every append up front, so the copy is the
  // only pass over the arrays.
  ShardSnapshot* snap =
      shard.spare.exchange(nullptr, std::memory_order_acquire);
  if (snap == nullptr) snap = new ShardSnapshot;
  const std::size_t copied = cur->size();
  snap->format = shard.scan_slab.format();
  snap->dim = shard.scan_slab.dim();
  snap->sine = live;
  const auto copy = [&](auto& dst, const auto& src) {
    dst.clear();
    if (src.empty()) return;  // a row format this shard does not scan
    dst.reserve(copied + shard.journal.size());
    dst.assign(src.begin(), src.end());
  };
  copy(snap->records, cur->records);
  copy(snap->rows_f32, cur->rows_f32);
  copy(snap->rows_f16, cur->rows_f16);
  copy(snap->rows_i8, cur->rows_i8);
  copy(snap->scales_i8, cur->scales_i8);

  // Swap-remove slot i from the owners and from every array this
  // snapshot scans (the other formats' arrays are empty).
  const auto unlink = [&](std::uint32_t i) {
    const auto swap_remove = [i](auto& a) {
      if (a.empty()) return;
      if (i + 1 != a.size()) a[i] = std::move(a.back());
      a.pop_back();
    };
    swap_remove(shard.slots);
    swap_remove(snap->records);
    swap_remove(snap->rows_f32);
    swap_remove(snap->rows_f16);
    swap_remove(snap->rows_i8);
    swap_remove(snap->scales_i8);
    if (i < snap->records.size()) shard.resident[snap->records[i]->id] = i;
  };

  // Reconcile each journaled id against the store.  A slot is stale when
  // its id vanished or its probe fingerprint — (created_at,
  // expiration_time, tenant) — changed (dedup refresh renews the TTL,
  // promotion retags the tenant; key/value/embedding are immutable per
  // id).  Stale slots are unlinked (not freed — the previous snapshot may
  // still be scanned) and the id re-appended fresh.  An id journaled
  // twice is a no-op the second time: its fresh slot already matches.
  std::vector<Shard::Slot> unlinked;
  for (const SeId id : shard.journal) {
    const SemanticElement* se = shard.cache->Get(id);
    if (const auto it = shard.resident.find(id); it != shard.resident.end()) {
      const std::uint32_t i = it->second;
      const ProbeRecord& rec = *shard.slots[i].record;
      if (se != nullptr && se->created_at == rec.created_at &&
          se->expiration_time == rec.expiration_time &&
          se->tenant == rec.tenant) {
        continue;
      }
      shard.resident.erase(it);
      unlinked.push_back(std::move(shard.slots[i]));
      unlink(i);
    }
    if (se == nullptr) continue;
    auto record = std::make_unique<const ProbeRecord>(
        ProbeRecord{id, se->key, se->value, se->tenant, se->created_at,
                    se->expiration_time, se->embedding});
    const std::uint32_t row = shard.scan_slab.Add(se->embedding);
    snap->records.push_back(record.get());
    switch (snap->format) {
      case RowFormat::kF32:
        snap->rows_f32.push_back(shard.scan_slab.Row(row));
        break;
      case RowFormat::kF16:
        snap->rows_f16.push_back(shard.scan_slab.RowF16(row));
        break;
      case RowFormat::kI8:
        snap->rows_i8.push_back(shard.scan_slab.RowI8(row));
        snap->scales_i8.push_back(shard.scan_slab.RowScale(row));
        break;
    }
    shard.resident[id] = static_cast<std::uint32_t>(shard.slots.size());
    shard.slots.push_back({std::move(record), row});
  }

  // Past its grace period the old snapshot becomes the shard's spare (the
  // one it displaces, if any, is freed).
  const ShardSnapshot* old =
      shard.snapshot.exchange(snap, std::memory_order_seq_cst);
  epoch_.Retire([&shard, old] {
    delete shard.spare.exchange(const_cast<ShardSnapshot*>(old),
                                std::memory_order_acq_rel);
  });

  // Stamp unlinked slots AFTER the exchange: a reader that loaded the old
  // snapshot entered at an epoch <= the epoch at exchange time, so a
  // post-exchange stamp (like EpochDomain::Retire's own) is the earliest
  // that is provably safe — a pre-exchange stamp could be one epoch low
  // if the flusher advanced in between, freeing a record or reusing a row
  // one grace period early while a straggler still reads it.
  if (!unlinked.empty()) {
    const std::uint64_t unlink_epoch = epoch_.current_epoch();
    for (Shard::Slot& slot : unlinked) {
      shard.limbo.push_back({unlink_epoch, std::move(slot)});
    }
    limbo_rows_->Add(static_cast<double>(unlinked.size()));
  }

  snapshot_publishes_->Inc();
  snapshot_rows_copied_->Inc(copied);
  publish_seconds_->Observe(telemetry::WallSeconds() - t0);

  // Reclaim promptly: a retired snapshot is a full copy of the slot
  // arrays (20 bytes per row), so letting dozens pile up between
  // housekeeping ticks (or forever, with the thread disabled) turns every
  // publish's copy into fresh, cold memory.  A flush with no readers in
  // flight is a short slot scan.  kEpochRetire (70) ranks above
  // kEngineShard (50), so flushing while holding shard.mu is in order.
  if (epoch_.pending_retired() > 2) epoch_.Flush();
  UpdateEpochGauges();
}

void ConcurrentShardedEngine::UpdateEpochGauges() {
  epoch_lag_->Set(static_cast<double>(epoch_.reclaim_lag()));
  retired_pending_->Set(static_cast<double>(epoch_.pending_retired()));
}

std::optional<CacheHit> ConcurrentShardedEngine::Peek(std::string_view query,
                                                      std::string_view tenant) {
  const Shard& shard = *shards_[ShardFor(query)];
  const double now = clock_();
  // Embed outside the epoch section — it needs no shard state.
  const Vector query_embedding = embedder_->Embed(query);
  // Scan, exact rerank, and stage 2 all run inside ONE guard over
  // borrowed records.  The thread-local scratch makes the steady-state
  // probe allocation-free, and borrowing (instead of pooling shared_ptr
  // copies for an out-of-guard rerank) avoids contended refcount RMWs on
  // shared record control blocks.  The judger is a pure in-process
  // model, so holding the guard across it is cheap; a remote judger would
  // flip this trade-off.
  thread_local ProbeScratch scratch;
  EpochReadGuard guard(epoch_);
  const ShardSnapshot& snap = *shard.snapshot.load(std::memory_order_seq_cst);
  SnapshotScanRank(snap, query_embedding, scratch);
  scan_rows_->Inc(snap.size());
  return SnapshotJudge(scratch, snap.sine, query, now, tenant, judger_).hit;
}

std::optional<CacheHit> ConcurrentShardedEngine::Lookup(
    std::string_view query, telemetry::RequestTrace* trace,
    std::string_view tenant) {
  BatchLookupRequest request;
  request.query = query;
  request.tenant = tenant;
  request.trace = trace;
  LookupBatch({&request, 1});
  return std::move(request.hit);
}

void ConcurrentShardedEngine::LookupBatch(
    std::span<BatchLookupRequest> batch) {
  if (batch.empty()) return;

  const double now = clock_();
  const std::size_t nq = batch.size();
  const std::size_t dim = embedder_->dimension();
  // Row stride rounded to 16 floats so every row of a 64-byte-aligned
  // matrix starts on a cache line.
  const std::size_t qstride = (dim + 15) & ~static_cast<std::size_t>(15);

  // ---- Stage 1a: one embedding pass into the aligned query matrix.
  thread_local std::vector<float> matrix_storage;
  thread_local std::vector<std::string_view> texts;
  matrix_storage.resize(nq * qstride + 16);
  float* const matrix = AlignTo64(matrix_storage.data());
  texts.clear();
  for (const BatchLookupRequest& r : batch) texts.push_back(r.query);
  const double embed_t0 = telemetry::WallSeconds();
  embedder_->EmbedBatch(texts, matrix, qstride);
  const double embed_share =
      (telemetry::WallSeconds() - embed_t0) / static_cast<double>(nq);

  // ---- Group request indices by shard.
  thread_local std::vector<std::vector<std::uint32_t>> groups;
  thread_local std::vector<std::uint32_t> request_shard;
  groups.resize(shards_.size());
  for (auto& g : groups) g.clear();
  request_shard.resize(nq);
  for (std::size_t i = 0; i < nq; ++i) {
    const std::size_t s = ShardFor(batch[i].query);
    request_shard[i] = static_cast<std::uint32_t>(s);
    groups[s].push_back(static_cast<std::uint32_t>(i));
  }

  // ---- Stages 1b + 2: per shard, ONE epoch-guarded section runs the
  // multi-query scan (slab bytes read once per batch), then each query's
  // exact rerank and judger walk over borrowed records — the same
  // SnapshotRankFromSims + SnapshotJudge Peek's probe runs, so verdicts
  // and hit decisions are identical.  The judger is a pure in-process
  // model, so holding the guard across it is cheap.  The matched SE may
  // be evicted before the commit below — CommitLookup tolerates that,
  // and the hit already copied still serves the client.
  std::vector<SemanticCache::LookupResult> results(nq);
  // Recalibration samples, one per judged candidate, copied from the
  // snapshot records here so the commit's writer section only moves them.
  std::vector<std::vector<JudgedSample>> samples(nq);
  std::vector<double> ann_share(nq, 0.0);
  thread_local std::vector<float> group_storage;
  thread_local std::vector<float> sims;
  thread_local ProbeScratch scratch;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const auto& group = groups[s];
    if (group.empty()) continue;
    Shard& shard = *shards_[s];
    const std::size_t gn = group.size();
    group_storage.resize(gn * qstride + 16);
    float* const gq = AlignTo64(group_storage.data());
    for (std::size_t j = 0; j < gn; ++j) {
      std::copy_n(matrix + group[j] * qstride, dim, gq + j * qstride);
    }
    const double scan_t0 = telemetry::WallSeconds();
    EpochReadGuard guard(epoch_);
    const ShardSnapshot& snap = *shard.snapshot.load(std::memory_order_seq_cst);
    const std::size_t n = snap.size();
    sims.resize(gn * n);
    SnapshotScanMq(snap, gq, gn, qstride, scratch, sims.data());
    scan_rows_->Inc(n);
    const double scan_share =
        (telemetry::WallSeconds() - scan_t0) / static_cast<double>(gn);
    for (std::size_t j = 0; j < gn; ++j) {
      const std::uint32_t i = group[j];
      BatchLookupRequest& r = batch[i];
      const double rank_t0 = telemetry::WallSeconds();
      SnapshotRankFromSims(snap, std::span<const float>(gq + j * qstride, dim),
                           sims.data() + j * n, scratch);
      const double judge_t0 = telemetry::WallSeconds();
      ann_share[i] = scan_share + (judge_t0 - rank_t0);
      results[i] =
          SnapshotJudge(scratch, snap.sine, r.query, now, r.tenant, judger_);
      r.judger_seconds = telemetry::WallSeconds() - judge_t0;
      r.judger_calls = results[i].sine.judger_calls;
      // Stage 2 judges scratch.visible in order, so judged[k] is
      // visible[k] (whose views borrow the records guarded above).
      const auto& judged = results[i].sine.judged;
      samples[i].reserve(judged.size());
      for (std::size_t k = 0; k < judged.size(); ++k) {
        const JudgeCandidate& c = scratch.visible[k];
        DCHECK_EQ(c.id, judged[k].id);
        samples[i].push_back({std::string(r.query), std::string(c.key),
                              std::string(c.value), judged[k].judger_score});
      }
    }
  }

  // ---- Commit per shard: one exclusive section per PROBED SHARD instead
  // of one per request, members in request order.
  std::vector<double> commit_share(nq, 0.0);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const auto& group = groups[s];
    if (group.empty()) continue;
    Shard& shard = *shards_[s];
    const double commit_t0 = telemetry::WallSeconds();
    {
      WriterLock lock(shard.mu);
      for (const std::uint32_t i : group) {
        shard.cache->CommitLookup(results[i], now);
        // Log every judged candidate still resident, so recalibration
        // sees scores on both sides of the threshold (same policy as
        // CortexEngine::Lookup).
        const auto& judged = results[i].sine.judged;
        for (std::size_t k = 0; k < judged.size(); ++k) {
          if (shard.cache->Get(judged[k].id) != nullptr) {
            shard.recalibrator.LogJudgment(std::move(samples[i][k]));
          }
        }
      }
    }
    const double share = (telemetry::WallSeconds() - commit_t0) /
                         static_cast<double>(group.size());
    for (const std::uint32_t i : group) commit_share[i] = share;
  }

  // ---- Per-request accounting.
  for (std::size_t i = 0; i < nq; ++i) {
    BatchLookupRequest& r = batch[i];
    SemanticCache::LookupResult& result = results[i];
    probe_seconds_->Observe(embed_share + ann_share[i] + r.judger_seconds);
    commit_seconds_->Observe(commit_share[i]);
    lookups_->Inc();
    Shard& shard = *shards_[request_shard[i]];
    if (result.hit) {
      hits_->Inc();
      shard.hits->Inc();
    } else {
      misses_->Inc();
      shard.misses->Inc();
      // A judger reject is a miss where stage 1 surfaced candidates but
      // stage 2 turned every one of them down.
      if (!result.sine.judged.empty()) {
        judger_rejects_->Inc();
        shard.judger_rejects->Inc();
      }
    }
    if (!r.tenant.empty()) {
      tenant_registry_->OnLookup(std::string(r.tenant),
                                 result.hit.has_value());
    }
    if (r.trace != nullptr) {
      r.trace->shard = request_shard[i];
      double t = embed_t0;
      r.trace->AddSpan(telemetry::TracePhase::kEmbed, t, embed_share);
      t += embed_share;
      r.trace->AddSpan(telemetry::TracePhase::kAnnProbe, t, ann_share[i]);
      t += ann_share[i];
      if (r.judger_seconds > 0.0) {
        r.trace->AddSpan(telemetry::TracePhase::kJudger, t,
                         r.judger_seconds);
      }
      r.trace->AddSpan(telemetry::TracePhase::kCommit,
                       t + r.judger_seconds, commit_share[i]);
    }
    r.hit = std::move(result.hit);
  }
}

std::optional<SeId> ConcurrentShardedEngine::Insert(
    InsertRequest request, telemetry::RequestTrace* trace) {
  const std::size_t shard_idx = ShardFor(request.key);
  Shard& shard = *shards_[shard_idx];
  const double now = clock_();
  if (trace != nullptr) trace->shard = static_cast<std::uint32_t>(shard_idx);

  // Fill in the tenant's per-shard budget before the cache sees the
  // request — budget *policy* lives in the TenantRegistry, budget
  // *enforcement* in the core eviction path.
  const std::string tenant = request.tenant;
  if (!tenant.empty()) {
    request.budget_tokens =
        tenant_registry_->BudgetTokens(tenant, per_shard_capacity_);
  }

  InsertTiming timing;
  CacheCounters before, after;
  double usage_delta = 0.0;
  double entries_delta = 0.0;
  std::uint64_t tenant_evictions_delta = 0;
  std::optional<SeId> id;
  const double insert_t0 = telemetry::WallSeconds();
  {
    WriterLock lock(shard.mu);
    before = shard.cache->counters();
    const double usage_before = shard.cache->usage_tokens();
    const auto size_before = shard.cache->size();
    const std::uint64_t tenant_evictions_before =
        tenant.empty() ? 0 : shard.cache->TenantUsageFor(tenant).evictions;
    id = shard.cache->Insert(std::move(request), now, &timing);
    after = shard.cache->counters();
    usage_delta = shard.cache->usage_tokens() - usage_before;
    entries_delta = static_cast<double>(shard.cache->size()) -
                    static_cast<double>(size_before);
    if (!tenant.empty()) {
      tenant_evictions_delta = shard.cache->TenantUsageFor(tenant).evictions -
                               tenant_evictions_before;
    }
    PublishSnapshot(shard);
  }
  const double insert_end = telemetry::WallSeconds();
  insert_seconds_->Observe(insert_end - insert_t0);
  ApplyCacheDeltas(shard, before, after, usage_delta, entries_delta);
  (id ? inserts_ : insert_rejects_)->Inc();
  if (!tenant.empty()) {
    tenant_registry_->OnInsert(tenant, id.has_value());
    tenant_registry_->OnEvictions(tenant, tenant_evictions_delta);
    if (after.promotions > before.promotions) {
      tenant_registry_->OnPromotion(tenant);
    }
  }

  if (trace != nullptr) {
    trace->AddSpan(telemetry::TracePhase::kInsert, insert_t0,
                   insert_end - insert_t0);
    if (timing.evict_seconds > 0.0) {
      trace->AddSpan(telemetry::TracePhase::kEviction, insert_t0,
                     timing.evict_seconds);
    }
  }
  return id;
}

bool ConcurrentShardedEngine::ContainsKey(std::string_view key,
                                          std::string_view tenant) const {
  const Shard& shard = *shards_[ShardFor(key)];
  ReaderLock lock(shard.mu);
  return shard.cache->ContainsKey(key, tenant);
}

std::size_t ConcurrentShardedEngine::RemoveExpired() {
  const double now = clock_();
  std::size_t removed = 0;
  for (auto& shard : shards_) {
    CacheCounters before, after;
    double usage_delta = 0.0;
    double entries_delta = 0.0;
    {
      WriterLock lock(shard->mu);
      before = shard->cache->counters();
      const double usage_before = shard->cache->usage_tokens();
      const auto size_before = shard->cache->size();
      removed += shard->cache->RemoveExpired(now);
      after = shard->cache->counters();
      usage_delta = shard->cache->usage_tokens() - usage_before;
      entries_delta = static_cast<double>(shard->cache->size()) -
                      static_cast<double>(size_before);
      PublishSnapshot(*shard);
    }
    ApplyCacheDeltas(*shard, before, after, usage_delta, entries_delta);
  }
  expired_removed_->Inc(removed);
  return removed;
}

namespace {

// Engine snapshot framing: a tiny header in front of one core/snapshot
// stream per shard.  Native endianness, same policy as core/snapshot.
//   v1: magic, version, u64 shard count.
//   v2: magic, version, f64 writer clock (NaN = none), u64 shard count.
inline constexpr std::uint32_t kEngineSnapshotMagic = 0x43525853;  // "CRXS"
inline constexpr std::uint32_t kEngineSnapshotVersion = 2;

void WriteRawU32(std::ostream& out, std::uint32_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof v);
}
void WriteRawU64(std::ostream& out, std::uint64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof v);
}
void WriteRawF64(std::ostream& out, double v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof v);
}
std::uint32_t ReadRawU32(std::istream& in) {
  std::uint32_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof v);
  return v;
}
std::uint64_t ReadRawU64(std::istream& in) {
  std::uint64_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof v);
  return v;
}
double ReadRawF64(std::istream& in) {
  double v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof v);
  return v;
}

void WriteEngineHeader(std::ostream& out, std::optional<double> writer_now,
                       std::uint64_t shard_count) {
  WriteRawU32(out, kEngineSnapshotMagic);
  WriteRawU32(out, kEngineSnapshotVersion);
  WriteRawF64(out, writer_now.value_or(
                       std::numeric_limits<double>::quiet_NaN()));
  WriteRawU64(out, shard_count);
}

struct EngineHeader {
  std::optional<double> writer_now;
  std::uint64_t shard_count = 0;
};

EngineHeader ReadEngineHeader(std::istream& in) {
  if (ReadRawU32(in) != kEngineSnapshotMagic) {
    throw std::runtime_error("engine snapshot: bad magic");
  }
  const auto version = ReadRawU32(in);
  if (version != 1 && version != kEngineSnapshotVersion) {
    throw std::runtime_error("engine snapshot: unsupported version " +
                             std::to_string(version));
  }
  EngineHeader header;
  if (version >= 2) {
    const double writer_now = ReadRawF64(in);
    if (std::isfinite(writer_now)) header.writer_now = writer_now;
  }
  header.shard_count = ReadRawU64(in);
  if (!in.good() || header.shard_count > 4096) {
    throw std::runtime_error("engine snapshot: malformed header");
  }
  return header;
}

}  // namespace

std::uint64_t ForEachEngineSnapshotElement(
    std::istream& in, const std::function<void(SemanticElement)>& fn,
    std::optional<double>* writer_now) {
  const EngineHeader header = ReadEngineHeader(in);
  if (writer_now != nullptr) *writer_now = header.writer_now;
  std::uint64_t visited = 0;
  for (std::uint64_t i = 0; i < header.shard_count; ++i) {
    visited += ForEachSnapshotElement(in, fn);
  }
  return visited;
}

void WriteEngineSnapshot(std::ostream& out,
                         const std::vector<SemanticElement>& elements,
                         std::optional<double> writer_now) {
  WriteEngineHeader(out, writer_now, 1);
  WriteSnapshotHeader(out, elements.size());
  for (const SemanticElement& se : elements) {
    WriteSnapshotElement(out, se);
  }
  if (!out.good()) {
    throw std::runtime_error("engine snapshot: stream failure while writing");
  }
}

SnapshotStats ConcurrentShardedEngine::SaveSnapshot(std::ostream& out) const {
  SnapshotStats stats;
  // The clock is read before any shard streams out.  An SE inserted while
  // the shards stream can carry a timestamp up to the save's duration
  // past this reading; it restores that far future-dated (counted in
  // cortex_engine_restore_future_dated) and turns visible once the
  // reader's clock catches up.
  WriteEngineHeader(out, clock_(), shards_.size());
  for (const auto& shard : shards_) {
    ReaderLock lock(shard->mu);
    const SnapshotStats shard_stats = SaveCacheSnapshot(*shard->cache, out);
    stats.entries_written += shard_stats.entries_written;
  }
  if (!out.good()) {
    throw std::runtime_error("engine snapshot: stream failure while writing");
  }
  return stats;
}

SnapshotStats ConcurrentShardedEngine::LoadSnapshot(std::istream& in) {
  const EngineHeader header = ReadEngineHeader(in);
  SnapshotStats stats;
  // One `now` for the whole restore: the first element into a shard purges
  // that shard's expired residents, after which the cache's expiration
  // bound is above `now` and no later element rescans the store.
  const double now = clock_();
  const double shift = header.writer_now ? now - *header.writer_now : 0.0;
  std::vector<char> touched(shards_.size(), 0);
  for (std::uint64_t i = 0; i < header.shard_count; ++i) {
    ForEachSnapshotElement(in, [&](SemanticElement se) {
      se.created_at += shift;
      se.last_access += shift;
      se.expiration_time += shift;
      if (se.ExpiredAt(now)) {
        ++stats.entries_expired;
        return;
      }
      const bool future_dated = se.created_at > now;
      const std::size_t s = ShardFor(se.key);
      touched[s] = 1;
      if (RestoreIntoShard(*shards_[s], std::move(se), now,
                           /*publish=*/false)) {
        ++stats.entries_restored;
        if (future_dated) restore_future_dated_->Inc();
      } else {
        ++stats.entries_rejected;
      }
    });
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (!touched[s]) continue;
    WriterLock lock(shards_[s]->mu);
    PublishSnapshot(*shards_[s]);
  }
  return stats;
}

std::optional<SeId> ConcurrentShardedEngine::RestoreElement(
    SemanticElement se) {
  Shard& shard = *shards_[ShardFor(se.key)];
  return RestoreIntoShard(shard, std::move(se), clock_(), /*publish=*/true);
}

std::optional<SeId> ConcurrentShardedEngine::RestoreIntoShard(
    Shard& shard, SemanticElement se, double now, bool publish) {
  CacheCounters before, after;
  double usage_delta = 0.0;
  double entries_delta = 0.0;
  std::optional<SeId> id;
  {
    WriterLock lock(shard.mu);
    before = shard.cache->counters();
    const double usage_before = shard.cache->usage_tokens();
    const auto size_before = shard.cache->size();
    id = shard.cache->RestoreElement(std::move(se), now);
    after = shard.cache->counters();
    usage_delta = shard.cache->usage_tokens() - usage_before;
    entries_delta = static_cast<double>(shard.cache->size()) -
                    static_cast<double>(size_before);
    if (publish) PublishSnapshot(shard);
  }
  ApplyCacheDeltas(shard, before, after, usage_delta, entries_delta);
  return id;
}

void ConcurrentShardedEngine::SetGroundTruthFetcher(
    std::function<std::string(std::string_view)> fn) {
  MutexLock lock(fetch_gt_mu_);
  fetch_gt_ = std::move(fn);
}

bool ConcurrentShardedEngine::RecalibrateShard(Shard& shard) {
  std::function<std::string(std::string_view)> fetch;
  {
    MutexLock lock(fetch_gt_mu_);
    fetch = fetch_gt_;
  }
  if (!fetch) return false;
  WriterLock lock(shard.mu);
  const RecalibrationRound round = shard.recalibrator.RunRound(fetch, shard.rng);
  recalibrations_->Inc();
  if (round.new_tau) {
    shard.cache->sine().set_tau_lsm(*round.new_tau);
    // Thresholds are frozen into the published snapshot; republish so
    // lock-free probes judge against the recalibrated tau.
    PublishSnapshot(shard);
    return true;
  }
  return false;
}

std::size_t ConcurrentShardedEngine::RecalibrateAllShards() {
  std::size_t changed = 0;
  for (auto& shard : shards_) {
    if (RecalibrateShard(*shard)) ++changed;
  }
  return changed;
}

void ConcurrentShardedEngine::HousekeepingLoop() {
  using namespace std::chrono_literals;
  // Start at -inf so the first tick always runs — the loop must not miss a
  // clock jump that happened before this thread got scheduled (tests with
  // injected clocks rely on this).
  double last_purge = -std::numeric_limits<double>::infinity();
  double last_recal = last_purge;
  std::unique_lock<RankedMutex> lk(hk_mu_);
  while (!hk_stop_) {
    // Poll on a short wall-clock cadence but trigger on the *engine*
    // clock, so tests with injected clocks control when ticks fire.
    hk_cv_.wait_for(lk, 20ms, [this] { return hk_stop_; });
    if (hk_stop_) break;
    lk.unlock();
    const double now = clock_();
    if (now - last_purge >= options_.housekeeping_interval_sec) {
      last_purge = now;
      RemoveExpired();
      housekeeping_runs_->Inc();
    }
    if (options_.recalibration_interval_sec > 0.0 &&
        now - last_recal >= options_.recalibration_interval_sec) {
      last_recal = now;
      RecalibrateAllShards();
    }
    // Advance the reclamation epoch and run due retire callbacks (freed
    // snapshots; slab rows drain back on the next shard mutation).
    epoch_.Flush();
    UpdateEpochGauges();
    lk.lock();
  }
}

std::vector<SeId> ConcurrentShardedEngine::PublishedIds(std::size_t shard) {
  std::vector<SeId> ids;
  EpochReadGuard guard(epoch_);
  const ShardSnapshot& snap =
      *shards_.at(shard)->snapshot.load(std::memory_order_seq_cst);
  for (const ProbeRecord* rec : snap.records) ids.push_back(rec->id);
  return ids;
}

std::vector<SeId> ConcurrentShardedEngine::StoreIds(std::size_t shard) const {
  std::vector<SeId> ids;
  const Shard& s = *shards_.at(shard);
  ReaderLock lock(s.mu);
  for (const auto& [id, se] : s.cache->entries()) ids.push_back(id);
  return ids;
}

ConcurrentEngineStats ConcurrentShardedEngine::Stats() const {
  ConcurrentEngineStats s;
  s.lookups = lookups_->Value();
  s.hits = hits_->Value();
  s.inserts = inserts_->Value();
  s.insert_rejects = insert_rejects_->Value();
  s.expired_removed = expired_removed_->Value();
  s.housekeeping_runs = housekeeping_runs_->Value();
  s.recalibrations = recalibrations_->Value();
  return s;
}

CacheCounters ConcurrentShardedEngine::TotalCounters() const {
  CacheCounters total;
  for (const auto& shard : shards_) {
    ReaderLock lock(shard->mu);
    const auto& c = shard->cache->counters();
    total.lookups += c.lookups;
    total.hits += c.hits;
    total.insertions += c.insertions;
    total.evictions += c.evictions;
    total.expirations += c.expirations;
    total.rejected_too_large += c.rejected_too_large;
    total.dedup_refreshes += c.dedup_refreshes;
    total.admission_rejects += c.admission_rejects;
    total.budget_rejects += c.budget_rejects;
    total.promotions += c.promotions;
  }
  return total;
}

std::size_t ConcurrentShardedEngine::TotalSize() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    ReaderLock lock(shard->mu);
    total += shard->cache->size();
  }
  return total;
}

double ConcurrentShardedEngine::TotalUsageTokens() const {
  double total = 0.0;
  for (const auto& shard : shards_) {
    ReaderLock lock(shard->mu);
    total += shard->cache->usage_tokens();
  }
  return total;
}

double ConcurrentShardedEngine::tau_lsm(std::size_t shard) const {
  const Shard& s = *shards_.at(shard);
  ReaderLock lock(s.mu);
  return s.cache->sine().options().tau_lsm;
}

}  // namespace cortex::serve
