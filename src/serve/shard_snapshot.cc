#include "serve/shard_snapshot.h"

#include <algorithm>
#include <cstddef>

#include "embedding/simd_kernels.h"
#include "util/check.h"

namespace cortex::serve {

double SnapshotSlack(RowFormat format) noexcept {
  // f32 scans at the same precision as the locked path's float scan; the
  // quantized formats need headroom for roundtrip error.
  return format == RowFormat::kF32 ? 0.0 : kQuantSimSlack;
}

void SnapshotScanRank(const ShardSnapshot& snap, std::span<const float> query,
                      ProbeScratch& scratch) {
  scratch.ranked.clear();
  const std::size_t n = snap.size();
  if (n == 0) return;
  DCHECK_EQ(query.size(), snap.dim);

  scratch.sims.resize(n);
  switch (snap.format) {
    case RowFormat::kF32:
      simd::DotRows(query, snap.rows_f32.data(), n, scratch.sims.data());
      break;
    case RowFormat::kF16:
      simd::DotRowsF16(query, snap.rows_f16.data(), n, scratch.sims.data());
      break;
    case RowFormat::kI8: {
      // One query quantization per probe; the integer dot itself is exact.
      scratch.q8.resize(snap.dim);
      const float q_scale = simd::QuantizeRowI8(query, scratch.q8.data());
      simd::DotRowsI8(scratch.q8.data(), q_scale, snap.rows_i8.data(),
                      snap.scales_i8.data(), n, snap.dim,
                      scratch.sims.data());
      break;
    }
  }
  SnapshotRankFromSims(snap, query, scratch.sims.data(), scratch);
}

void SnapshotRankFromSims(const ShardSnapshot& snap,
                          std::span<const float> query, const float* sims,
                          ProbeScratch& scratch) {
  scratch.ranked.clear();
  const std::size_t n = snap.size();
  if (n == 0) return;

  // Prefilter at tau_sim minus the quantization slack, then keep a pool
  // wide enough that the exact rerank's true top-k is always inside it
  // (FlatIndex's two-phase argument, with extra width for the larger
  // quantized error).
  const double floor = snap.sine.tau_sim - SnapshotSlack(snap.format);
  auto& keep = scratch.keep;
  keep.clear();
  for (std::size_t i = 0; i < n; ++i) {
    if (static_cast<double>(sims[i]) >= floor) {
      keep.push_back(static_cast<std::uint32_t>(i));
    }
  }
  const std::size_t pool_size =
      std::min(keep.size(), std::max<std::size_t>(4 * snap.sine.top_k, 32));
  const auto pooled = [&](std::uint32_t a, std::uint32_t b) {
    return sims[a] != sims[b] ? sims[a] > sims[b]
                              : snap.records[a]->id < snap.records[b]->id;
  };
  std::partial_sort(keep.begin(),
                    keep.begin() + static_cast<std::ptrdiff_t>(pool_size),
                    keep.end(), pooled);

  // Exact rerank over the fp32 originals with the scalar double kernel —
  // the same rescoring FlatIndex::Search applies, so the ranked list is
  // what the locked kFlat path would have produced.
  const auto& exact = simd::KernelsFor(simd::Variant::kScalar);
  for (std::size_t i = 0; i < pool_size; ++i) {
    const std::uint32_t idx = keep[i];
    const ProbeRecord* rec = snap.records[idx];
    const double sim =
        exact.dot(query.data(), rec->embedding.data(), query.size());
    if (sim >= snap.sine.tau_sim) scratch.ranked.push_back({sim, rec});
  }
  std::sort(scratch.ranked.begin(), scratch.ranked.end(),
            [](const RankedCandidate& a, const RankedCandidate& b) {
              return a.sim != b.sim ? a.sim > b.sim
                                    : a.record->id < b.record->id;
            });
  if (scratch.ranked.size() > snap.sine.top_k) {
    scratch.ranked.resize(snap.sine.top_k);
  }
}

void SnapshotScanMq(const ShardSnapshot& snap, const float* queries,
                    std::size_t nq, std::size_t qstride,
                    ProbeScratch& scratch, float* sims_out) {
  const std::size_t n = snap.size();
  if (n == 0 || nq == 0) return;
  switch (snap.format) {
    case RowFormat::kF32:
      simd::DotRowsMq(queries, nq, qstride, snap.rows_f32.data(), n, snap.dim,
                      sims_out);
      break;
    case RowFormat::kF16:
      simd::DotRowsF16Mq(queries, nq, qstride, snap.rows_f16.data(), n,
                         snap.dim, sims_out);
      break;
    case RowFormat::kI8: {
      // Quantize every query once per batch; the per-(query,row) score is
      // then bitwise the sequential DotRowsI8 result.
      scratch.q8.resize(nq * snap.dim);
      scratch.q8_scales.resize(nq);
      for (std::size_t q = 0; q < nq; ++q) {
        scratch.q8_scales[q] = simd::QuantizeRowI8(
            std::span<const float>(queries + q * qstride, snap.dim),
            scratch.q8.data() + q * snap.dim);
      }
      simd::DotRowsI8Mq(scratch.q8.data(), scratch.q8_scales.data(), nq,
                        snap.dim, snap.rows_i8.data(), snap.scales_i8.data(),
                        n, snap.dim, sims_out);
      break;
    }
  }
}

SemanticCache::LookupResult SnapshotJudge(
    std::span<const RankedCandidate> ranked, const SineOptions& opt,
    Vector query_embedding, std::string_view query, double now,
    std::string_view tenant, const JudgerModel* judger) {
  SemanticCache::LookupResult result;
  result.query_embedding = std::move(query_embedding);
  result.sine.ann_candidates = ranked.size();
  if (ranked.empty()) return result;

  // Visibility mirrors SemanticCache::Probe's accessor: future-dated and
  // expired entries are skipped (never removed — this path is read-only),
  // and another tenant's private entries stay invisible.  The top_k
  // truncation deliberately ran FIRST: stage 1 has no tenant concept in
  // the locked path either, so invisible entries consume top_k slots
  // there too.
  const auto visible = [&](const ProbeRecord& r) {
    return r.created_at <= now && r.expiration_time > now &&
           (r.tenant.empty() || r.tenant == tenant);
  };

  if (!opt.use_judger) {
    // Agent_ANN ablation: top similarity wins outright.
    for (const RankedCandidate& r : ranked) {
      if (r.sim < opt.ann_only_threshold) continue;
      const ProbeRecord& rec = *r.record;
      if (!visible(rec)) continue;
      result.sine.match = SineCandidate{rec.id, r.sim, 0.0};
      result.hit = CacheHit{rec.id, rec.value, rec.key, r.sim, 0.0};
      break;  // candidates are sorted best-first
    }
    return result;
  }

  CHECK(judger != nullptr) << "use_judger requires a judger model";
  for (const RankedCandidate& r : ranked) {
    const ProbeRecord& rec = *r.record;
    if (!visible(rec)) continue;
    JudgeRequest req;
    req.query = query;
    req.cached_query = rec.key;
    req.cached_result = rec.value;
    req.embedding_similarity = r.sim;
    const double score = judger->Judge(req);
    ++result.sine.judger_calls;
    result.sine.judged.push_back({rec.id, r.sim, score});
    if (score >= opt.tau_lsm) {
      result.sine.match = SineCandidate{rec.id, r.sim, score};
      result.hit = CacheHit{rec.id, rec.value, rec.key, r.sim, score};
      break;
    }
  }
  return result;
}

}  // namespace cortex::serve
