// SIMD distance-kernel layer with runtime CPU dispatch.
//
// Every semantic-cache lookup funnels through Sine's stage-one ANN probe,
// so per-candidate similarity cost is the hottest multiplier in the serving
// path.  This layer provides the vectorized kernels FAISS supplies in the
// paper's stack: single-query dot / squared-L2, plus *batched* kernels that
// score one query against N rows per call with register blocking and
// software prefetch.
//
// Dispatch: the best variant compiled into the binary AND supported by the
// running CPU is resolved once on first use (AVX-512 > AVX2+FMA on x86-64,
// NEON on aarch64, scalar everywhere).  The CORTEX_SIMD env var
// (scalar|avx2|avx512|neon) pins a variant for testing and A/B runs; tests
// may also swap variants in-process via ForceVariant().
//
// Numerics: the scalar kernels accumulate in double and are bit-identical
// to the historical vector_ops loops, so CORTEX_SIMD=scalar reproduces
// pre-SIMD results exactly.  SIMD variants accumulate in float lanes and
// agree with scalar to ~1e-6 relative (test_vector_ops locks this in).
//
// This is the ONLY place in the tree allowed to include <immintrin.h> /
// <arm_neon.h> (enforced by scripts/cortex_lint.py rule `simd-intrinsics`).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace cortex::simd {

enum class Variant : std::uint8_t {
  kScalar = 0,
  kAvx2 = 1,    // AVX2 + FMA, x86-64
  kAvx512 = 2,  // AVX-512F, x86-64
  kNeon = 3,    // aarch64
};

const char* VariantName(Variant v) noexcept;

// Raw kernel table.  `stride` is the float distance between consecutive
// rows (>= dim; slab rows are padded for alignment); every kernel reads
// exactly `dim` floats per row — padding is never touched.
struct KernelSet {
  double (*dot)(const float* a, const float* b, std::size_t dim);
  double (*l2sq)(const float* a, const float* b, std::size_t dim);
  // out[i] = dot(query, rows + i*stride) for i in [0, n).
  void (*dot_batch)(const float* query, const float* rows, std::size_t n,
                    std::size_t stride, std::size_t dim, float* out);
  // out[i] = dot(query, rows[i]); rows scattered (slab/graph gather path),
  // with software prefetch of upcoming rows.
  void (*dot_rows)(const float* query, const float* const* rows,
                   std::size_t n, std::size_t dim, float* out);
  // out[i] = ||query - (rows + i*stride)||^2.
  void (*l2sq_batch)(const float* query, const float* rows, std::size_t n,
                     std::size_t stride, std::size_t dim, float* out);

  // Quantized scan-tier kernels (DESIGN.md §13).  int8 rows use symmetric
  // per-row scales (row = scale * q[0..dim)); the query is pre-quantized
  // once per probe with QuantizeRowI8.  Input contract: every int8 value,
  // query and row alike, lies in [-127, 127] (QuantizeRowI8's range).  The
  // integer dot is exact under that contract for dim below ~1.3e5 (the i32
  // sum of dim * 127^2 stays below 2^31), so int8 scores are bit-identical
  // across every variant (DESIGN.md §9.2 gives each kernel's bound).
  // fp16 rows are IEEE binary16; decode is exact, accumulation follows the
  // fp32 kernels' contract (scalar = double accumulation, SIMD = float
  // lanes, ~1e-6 agreement).
  void (*dot_batch_i8)(const std::int8_t* query, float query_scale,
                       const std::int8_t* rows, const float* scales,
                       std::size_t n, std::size_t stride, std::size_t dim,
                       float* out);
  void (*dot_rows_i8)(const std::int8_t* query, float query_scale,
                      const std::int8_t* const* rows, const float* scales,
                      std::size_t n, std::size_t dim, float* out);
  void (*dot_batch_f16)(const float* query, const std::uint16_t* rows,
                        std::size_t n, std::size_t stride, std::size_t dim,
                        float* out);
  void (*dot_rows_f16)(const float* query, const std::uint16_t* const* rows,
                       std::size_t n, std::size_t dim, float* out);

  // Multi-query (mq) kernels for the cross-request batching pipeline
  // (DESIGN.md §14): score `nq` queries — query q at queries + q*qstride,
  // qstride in elements — against the same n rows in one pass, writing
  // out[q*n + i].  Rows iterate in the OUTER loop (same block boundaries
  // as the single-query kernels) with queries inner, so each row block is
  // read from memory once per BATCH instead of once per query.  The
  // per-(query,row) arithmetic reuses the single-query primitives
  // verbatim, so every score is bitwise identical to the corresponding
  // sequential kernel on the same variant.
  void (*dot_batch_mq)(const float* queries, std::size_t nq,
                       std::size_t qstride, const float* rows, std::size_t n,
                       std::size_t stride, std::size_t dim, float* out);
  void (*l2sq_batch_mq)(const float* queries, std::size_t nq,
                        std::size_t qstride, const float* rows, std::size_t n,
                        std::size_t stride, std::size_t dim, float* out);
  void (*dot_rows_mq)(const float* queries, std::size_t nq,
                      std::size_t qstride, const float* const* rows,
                      std::size_t n, std::size_t dim, float* out);
  void (*dot_rows_i8_mq)(const std::int8_t* queries,
                         const float* query_scales, std::size_t nq,
                         std::size_t qstride, const std::int8_t* const* rows,
                         const float* scales, std::size_t n, std::size_t dim,
                         float* out);
  void (*dot_rows_f16_mq)(const float* queries, std::size_t nq,
                          std::size_t qstride,
                          const std::uint16_t* const* rows, std::size_t n,
                          std::size_t dim, float* out);

  // The int8 row-dot this table runs: "scalar", "maddubs" (AVX2),
  // "vnni" (AVX-512 VNNI) or "neon".  The avx512 table on a CPU without
  // AVX-512 VNNI carries the AVX2 int8 entries, so it reads "maddubs".
  const char* i8_kernel;
};

// ---------------------------------------------------------------------------
// Quantized row encoding.  Encoding is ALWAYS software-scalar so stored
// bytes are identical whatever variant is active; only decoding happens in
// SIMD lanes (and is exact, so it cannot diverge).

// IEEE binary16 conversion, round-to-nearest-even.  F16ToF32 is exact and
// bit-identical to hardware VCVTPH2PS on every finite input.
std::uint16_t F32ToF16(float f) noexcept;
float F16ToF32(std::uint16_t h) noexcept;

// Symmetric per-row int8 quantization: out[i] = round(v[i] * 127 / amax),
// clamped to [-127, 127]; returns the scale (amax / 127, or 0 for an
// all-zero row — the dot of a zero-scale row is exactly 0).
float QuantizeRowI8(std::span<const float> v, std::int8_t* out) noexcept;

// True when `v` is both compiled into this binary and runnable on this CPU.
bool VariantSupported(Variant v) noexcept;
// All supported variants, scalar first.
std::vector<Variant> SupportedVariants();
// The fastest supported variant.
Variant BestSupportedVariant() noexcept;

// The active dispatch decision: BestSupportedVariant() unless CORTEX_SIMD
// pins one.  Resolved once on first use; CHECK-fails on an unknown or
// unsupported CORTEX_SIMD value.
Variant ActiveVariant() noexcept;
const KernelSet& ActiveKernels() noexcept;

// Kernel table for a specific variant; CHECK-fails unless supported.
const KernelSet& KernelsFor(Variant v);

// Test/bench hook: swaps the active table in-process.  Returns false (and
// changes nothing) when the variant is unsupported.  Not thread-safe —
// call only while no concurrent searches run.
bool ForceVariant(Variant v) noexcept;

// ---------------------------------------------------------------------------
// Dispatching convenience wrappers (the names the rest of the tree uses).

// Inner product.  On the unit vectors the VectorIndex contract guarantees,
// this IS the cosine similarity — callers must not renormalize.
inline double DotUnit(std::span<const float> a,
                      std::span<const float> b) noexcept {
  return ActiveKernels().dot(a.data(), b.data(), a.size());
}

inline double L2Sq(std::span<const float> a,
                   std::span<const float> b) noexcept {
  return ActiveKernels().l2sq(a.data(), b.data(), a.size());
}

// Scores `query` against n contiguous rows (row i at rows + i*dim).
inline void DotBatch(std::span<const float> query, const float* rows,
                     std::size_t n, std::size_t dim, float* out) noexcept {
  ActiveKernels().dot_batch(query.data(), rows, n, dim, dim, out);
}

// Strided flavour for padded slab storage.
inline void DotBatchStrided(std::span<const float> query, const float* rows,
                            std::size_t n, std::size_t stride,
                            float* out) noexcept {
  ActiveKernels().dot_batch(query.data(), rows, n, stride, query.size(), out);
}

// Gather flavour: row pointers, e.g. HNSW neighbour expansion.
inline void DotRows(std::span<const float> query, const float* const* rows,
                    std::size_t n, float* out) noexcept {
  ActiveKernels().dot_rows(query.data(), rows, n, query.size(), out);
}

inline void L2SqBatch(std::span<const float> query, const float* rows,
                      std::size_t n, std::size_t stride, float* out) noexcept {
  ActiveKernels().l2sq_batch(query.data(), rows, n, stride, query.size(),
                             out);
}

// Quantized flavours; `query_i8`/`query_scale` come from one QuantizeRowI8
// call per probe.
inline void DotBatchI8(const std::int8_t* query_i8, float query_scale,
                       const std::int8_t* rows, const float* scales,
                       std::size_t n, std::size_t stride, std::size_t dim,
                       float* out) noexcept {
  ActiveKernels().dot_batch_i8(query_i8, query_scale, rows, scales, n,
                               stride, dim, out);
}

inline void DotRowsI8(const std::int8_t* query_i8, float query_scale,
                      const std::int8_t* const* rows, const float* scales,
                      std::size_t n, std::size_t dim, float* out) noexcept {
  ActiveKernels().dot_rows_i8(query_i8, query_scale, rows, scales, n, dim,
                              out);
}

inline void DotBatchF16(std::span<const float> query,
                        const std::uint16_t* rows, std::size_t n,
                        std::size_t stride, float* out) noexcept {
  ActiveKernels().dot_batch_f16(query.data(), rows, n, stride, query.size(),
                                out);
}

inline void DotRowsF16(std::span<const float> query,
                       const std::uint16_t* const* rows, std::size_t n,
                       float* out) noexcept {
  ActiveKernels().dot_rows_f16(query.data(), rows, n, query.size(), out);
}

// Multi-query wrappers (see the KernelSet mq contract above): matrices,
// not spans — query q lives at queries + q*qstride, score (q, i) lands at
// out[q*n + i].
inline void DotBatchMq(const float* queries, std::size_t nq,
                       std::size_t qstride, const float* rows, std::size_t n,
                       std::size_t stride, std::size_t dim,
                       float* out) noexcept {
  ActiveKernels().dot_batch_mq(queries, nq, qstride, rows, n, stride, dim,
                               out);
}

inline void L2SqBatchMq(const float* queries, std::size_t nq,
                        std::size_t qstride, const float* rows, std::size_t n,
                        std::size_t stride, std::size_t dim,
                        float* out) noexcept {
  ActiveKernels().l2sq_batch_mq(queries, nq, qstride, rows, n, stride, dim,
                                out);
}

inline void DotRowsMq(const float* queries, std::size_t nq,
                      std::size_t qstride, const float* const* rows,
                      std::size_t n, std::size_t dim, float* out) noexcept {
  ActiveKernels().dot_rows_mq(queries, nq, qstride, rows, n, dim, out);
}

inline void DotRowsI8Mq(const std::int8_t* queries, const float* query_scales,
                        std::size_t nq, std::size_t qstride,
                        const std::int8_t* const* rows, const float* scales,
                        std::size_t n, std::size_t dim, float* out) noexcept {
  ActiveKernels().dot_rows_i8_mq(queries, query_scales, nq, qstride, rows,
                                 scales, n, dim, out);
}

inline void DotRowsF16Mq(const float* queries, std::size_t nq,
                         std::size_t qstride, const std::uint16_t* const* rows,
                         std::size_t n, std::size_t dim,
                         float* out) noexcept {
  ActiveKernels().dot_rows_f16_mq(queries, nq, qstride, rows, n, dim, out);
}

}  // namespace cortex::simd
