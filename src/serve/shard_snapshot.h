// ShardSnapshot: the immutable per-shard state a lock-free probe reads.
//
// The serving engine's lock-free read path (DESIGN.md §13) never touches
// the shard's shared_mutex.  Instead, every write that changes what a
// probe could observe rebuilds a ShardSnapshot under the write lock and
// publishes it through a seq_cst atomic pointer; readers pin it with an
// EpochReadGuard (util/epoch.h) and the old snapshot is retired to the
// engine's EpochDomain.  Per the epoch contract, BOTH sides of the
// pointer hand-off are seq_cst: exchange on publish, load under the
// guard.
//
// A snapshot is plain arrays, one slot per resident SE:
//   * a borrowed `const ProbeRecord*` — the probe-relevant fields, copied
//     once per (id, fingerprint) and shared by every snapshot that
//     publishes that SE;
//   * a row pointer into the shard's scan slab, quantized per the engine's
//     probe_scan_format (f32 / f16 / i8), plus the row's i8 scale.
// Records and rows are owned by the engine shard, not by snapshots.  Both
// move under the same limbo protocol: once unlinked from the published
// arrays they wait out the epoch grace period before the record is freed
// and the row returns to the slab free list, so every pointer a snapshot
// holds outlives every reader of that snapshot.  Because the arrays are
// trivially copyable, a publish copies the previous snapshot's arrays
// (one memcpy each) and applies only the changed slots — swap-remove and
// append — so scan order is arbitrary; ranking breaks ties by (sim, id).
//
// A snapshot is the shard's only candidate index: the shard's
// SemanticCache keeps no VectorIndex, so Sine's stage 1 (paper §4.2) runs
// here, two-phase, mirroring FlatIndex::Search's variant-stable ranking
// (ann/flat_index.cc):
//   1. scan — one gather-kernel pass over the quantized rows, prefilter
//      at tau_sim minus a quantization slack, keep a pool of the best
//      max(4*top_k, 32) candidates;
//   2. rerank — rescore the pool with the scalar double-precision fp32
//      kernel, filter/sort/truncate exactly like FlatIndex.  Because the
//      exact rerank reads fp32 originals, the final top-k and hit
//      decision are bit-identical to single-threaded SemanticCache over
//      FlatIndex whatever scan format or SIMD variant ran phase 1.
//
// Both phases run INSIDE the epoch guard and allocate nothing on the
// steady state: callers pass a ProbeScratch whose vectors amortize to
// the shard's high-water mark.  (The original design pooled shared_ptr
// copies so the rerank could run outside the guard; under contention the
// refcount RMWs on shared record control blocks dominated the probe.)
// Stage 2 — visibility plus core/sine's JudgeCandidates, the same walk
// SemanticCache::Lookup runs — is SnapshotJudge, shared verbatim between
// Peek's probe and LookupBatch, both judging borrowed records inside
// their guard, so both produce identical results by construction.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/semantic_cache.h"
#include "core/sine.h"
#include "embedding/vector_slab.h"

namespace cortex::serve {

// Probe-relevant fields of one resident SE.  Immutable after
// construction; a record is replaced (never mutated) when its
// fingerprint — (created_at, expiration_time, tenant) — changes.
// Owned by the engine shard; snapshots borrow it.
struct ProbeRecord {
  SeId id = 0;
  std::string key;
  std::string value;
  std::string tenant;
  double created_at = 0.0;
  double expiration_time = 0.0;
  Vector embedding;  // fp32 original, the exact-rerank source
};

struct ShardSnapshot {
  RowFormat format = RowFormat::kF32;
  std::size_t dim = 0;
  // Sine thresholds frozen at publish time (recalibration republishes).
  SineOptions sine;

  // Parallel arrays, one entry per resident SE (arbitrary order).  Record
  // and row pointers are borrowed from the engine shard; the limbo
  // protocol guarantees they outlive every reader of this snapshot.
  std::vector<const ProbeRecord*> records;
  std::vector<const float*> rows_f32;          // format == kF32
  std::vector<const std::uint16_t*> rows_f16;  // format == kF16
  std::vector<const std::int8_t*> rows_i8;     // format == kI8
  std::vector<float> scales_i8;                // format == kI8

  std::size_t size() const noexcept { return records.size(); }
};

// Quantized-similarity slack subtracted from tau_sim when prefiltering
// scan scores (phase 1).  f16 roundtrip error on unit vectors is ~1e-3
// and i8 ~2e-3; 0.02 absorbs both with a wide margin, and the exact
// rerank removes every false admit.  Unused (slack 0) for kF32.
inline constexpr double kQuantSimSlack = 0.02;

// Prefilter slack for a given scan format (kQuantSimSlack, or 0 for the
// exact f32 scan).
double SnapshotSlack(RowFormat format) noexcept;

// One exact-reranked survivor, sorted best-first.  `record` is BORROWED
// from the snapshot: it is valid only while the EpochReadGuard that
// pinned the snapshot is held.
struct RankedCandidate {
  double sim = 0.0;
  const ProbeRecord* record = nullptr;
};

// Reusable scan scratch.  Probe throughput is allocation-sensitive:
// keep one per thread (or per pipeline batch) and the vectors grow once
// to the shard's high-water mark, making steady-state probes
// allocation-free.
struct ProbeScratch {
  std::vector<float> sims;          // one score per snapshot row
  std::vector<std::int8_t> q8;      // quantized query/queries (kI8 scan)
  std::vector<float> q8_scales;     // per-query i8 scales (mq scan)
  std::vector<std::uint32_t> keep;  // prefilter survivors (row indices)
  std::vector<RankedCandidate> ranked;  // phase-2 output, best-first
  std::vector<JudgeCandidate> visible;  // stage-2 input (SnapshotJudge)
};

// Phases 1+2 for one query: SnapshotScanMq at nq = 1 into scratch.sims,
// then SnapshotRankFromSims.  MUST run inside an EpochReadGuard with `snap`
// loaded (seq_cst) from the shard's snapshot pointer.  Takes no locks.
void SnapshotScanRank(const ShardSnapshot& snap,
                      std::span<const float> query, ProbeScratch& scratch);

// Phase 2 from a precomputed score row (`sims[i]` scores snapshot row i,
// in the snapshot's scan format): prefilter at tau_sim minus the format
// slack, pool the best max(4*top_k, 32), exact-rerank on the fp32
// originals, sort (sim desc, id asc), truncate to top_k.  Result in
// scratch.ranked.  Same guard requirement as SnapshotScanRank.
void SnapshotRankFromSims(const ShardSnapshot& snap,
                          std::span<const float> query, const float* sims,
                          ProbeScratch& scratch);

// Multi-query phase 1: scores `nq` queries (row q at queries + q*qstride,
// qstride in floats) against every snapshot row in one multi-query
// kernel pass, writing sims_out[q * snap.size() + i].  Slab bytes are
// read once per BATCH instead of once per query — the bandwidth win the
// batching pipeline exists for.  Per-(query,row) scores are bitwise
// identical to the sequential scan.  Same guard requirement as above.
void SnapshotScanMq(const ShardSnapshot& snap, const float* queries,
                    std::size_t nq, std::size_t qstride,
                    ProbeScratch& scratch, float* sims_out);

// Stage 2 over scratch.ranked (exact-ranked, best-first, already
// truncated to top_k): keeps the candidates visible at `now` to `tenant`
// (created_at <= now, not expired, tenant match) and runs core/sine's
// JudgeCandidates over them, filling a LookupResult (query_embedding
// left empty) for SemanticCache::CommitLookup.  `judger` may be null iff
// opt.use_judger is false.  Takes no locks; safe inside an epoch guard
// (the judger is pure).
SemanticCache::LookupResult SnapshotJudge(ProbeScratch& scratch,
                                          const SineOptions& opt,
                                          std::string_view query, double now,
                                          std::string_view tenant,
                                          const JudgerModel* judger);

}  // namespace cortex::serve
