#include "serve/shard_snapshot.h"

#include <algorithm>
#include <cstddef>

#include "embedding/simd_kernels.h"
#include "util/check.h"

namespace cortex::serve {

double SnapshotSlack(RowFormat format) noexcept {
  // f32 scans at the same precision as FlatIndex's float scan; the
  // quantized formats need headroom for roundtrip error.
  return format == RowFormat::kF32 ? 0.0 : kQuantSimSlack;
}

void SnapshotScanRank(const ShardSnapshot& snap, std::span<const float> query,
                      ProbeScratch& scratch) {
  DCHECK_EQ(query.size(), snap.dim);
  // A one-query batch: the multi-query kernels at nq = 1 run the same
  // loops as the single-query ones, so there is one scan path.
  scratch.sims.resize(snap.size());
  SnapshotScanMq(snap, query.data(), 1, query.size(), scratch,
                 scratch.sims.data());
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
  // what a core SemanticCache over FlatIndex would have produced.
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

SemanticCache::LookupResult SnapshotJudge(ProbeScratch& scratch,
                                          const SineOptions& opt,
                                          std::string_view query, double now,
                                          std::string_view tenant,
                                          const JudgerModel* judger) {
  SemanticCache::LookupResult result;
  result.sine.ann_candidates = scratch.ranked.size();

  // Visibility matches SemanticCache::Lookup's accessor: future-dated and
  // expired entries are skipped (never removed — this path is read-only),
  // and another tenant's private entries stay invisible.  The top_k
  // truncation deliberately ran FIRST: stage 1 has no tenant concept in
  // the core cache either, so invisible entries consume top_k slots there
  // too.
  auto& visible = scratch.visible;
  visible.clear();
  for (const RankedCandidate& r : scratch.ranked) {
    const ProbeRecord& rec = *r.record;
    if (rec.created_at <= now && rec.expiration_time > now &&
        (rec.tenant.empty() || rec.tenant == tenant)) {
      visible.push_back({rec.id, r.sim, rec.key, rec.value});
    }
  }
  const std::size_t i =
      JudgeCandidates(visible, query, opt, judger, result.sine);
  if (result.sine.match) {
    const JudgeCandidate& c = visible[i];
    result.hit = CacheHit{c.id, std::string(c.value), std::string(c.key),
                          c.similarity, result.sine.match->judger_score};
  }
  return result;
}

}  // namespace cortex::serve
