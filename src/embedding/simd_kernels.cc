#include "embedding/simd_kernels.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string_view>

#include "util/check.h"

// The one sanctioned home for CPU intrinsics (cortex_lint: simd-intrinsics).
#if (defined(__x86_64__) || defined(__amd64__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define CORTEX_SIMD_HAVE_X86 1
// GCC 12's maskless AVX-512 intrinsics (and even _mm512_castps512_ps256)
// pass an uninitialized __m256 as the masked-builtin pass-through operand,
// tripping -Werror=uninitialized when inlined (GCC PR105593).  The value is
// fully overwritten (mask = -1), so the warning is a false positive;
// suppress it for the header only.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop
#endif
#if defined(__aarch64__)
#define CORTEX_SIMD_HAVE_NEON 1
#include <arm_neon.h>
#endif

namespace cortex::simd {
namespace {

// Prefetch the head of a row (the hardware prefetcher streams the rest of a
// long row once the access pattern is established).
inline void PrefetchBytes(const void* p, std::size_t row_bytes) noexcept {
  const std::size_t bytes = std::min<std::size_t>(row_bytes, std::size_t{256});
  const char* c = static_cast<const char*>(p);
  for (std::size_t off = 0; off < bytes; off += 64) {
    __builtin_prefetch(c + off);
  }
}

inline void PrefetchRow(const float* p, std::size_t dim) noexcept {
  PrefetchBytes(p, dim * sizeof(float));
}

// ---------------------------------------------------------------------------
// Scalar reference kernels.
//
// Bit-identical to the historical vector_ops loops (double accumulation in
// index order), so CORTEX_SIMD=scalar reproduces pre-SIMD results exactly.

double DotScalar(const float* a, const float* b, std::size_t dim) {
  double acc = 0.0;
  for (std::size_t i = 0; i < dim; ++i) {
    acc += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return acc;
}

double L2SqScalar(const float* a, const float* b, std::size_t dim) {
  double acc = 0.0;
  for (std::size_t i = 0; i < dim; ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    acc += d * d;
  }
  return acc;
}

void DotBatchScalar(const float* query, const float* rows, std::size_t n,
                    std::size_t stride, std::size_t dim, float* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<float>(DotScalar(query, rows + i * stride, dim));
  }
}

void DotRowsScalar(const float* query, const float* const* rows,
                   std::size_t n, std::size_t dim, float* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<float>(DotScalar(query, rows[i], dim));
  }
}

void L2SqBatchScalar(const float* query, const float* rows, std::size_t n,
                     std::size_t stride, std::size_t dim, float* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<float>(L2SqScalar(query, rows + i * stride, dim));
  }
}

// Exact i32 dot of two int8 rows.  q, r in [-127, 127], so each product
// fits 14 bits and the sum stays far below 2^31 for any realistic dim.
inline std::int32_t DotI8SumScalar(const std::int8_t* a, const std::int8_t* b,
                                   std::size_t dim) noexcept {
  std::int32_t acc = 0;
  for (std::size_t i = 0; i < dim; ++i) {
    acc += static_cast<std::int32_t>(a[i]) * static_cast<std::int32_t>(b[i]);
  }
  return acc;
}

// The one true descale expression: every variant computes the integer sum
// exactly, then evaluates THIS — so int8 scores are bit-identical.
inline float DescaleI8(float query_scale, float row_scale,
                       std::int32_t sum) noexcept {
  return (query_scale * row_scale) * static_cast<float>(sum);
}

// The rows of one int8 scan: a gather list, or `base + i * stride` when
// `ptrs` is null (the contiguous dot_batch_i8 shape).
struct I8Rows {
  const std::int8_t* const* ptrs;
  const std::int8_t* base;
  std::size_t stride;

  const std::int8_t* operator[](std::size_t i) const noexcept {
    return ptrs != nullptr ? ptrs[i] : base + i * stride;
  }
};

// One int8 scan call, in dot_rows_i8_mq's terms: score (q, i) lands at
// out[q * n + i].  The single-query entries are the nq == 1 case.
struct I8Scan {
  const std::int8_t* queries;
  const float* query_scales;
  std::size_t nq;
  std::size_t qstride;
  I8Rows rows;
  const float* scales;
  std::size_t n;
  std::size_t dim;
  float* out;
};

// The one int8 row loop.  Every x86 and scalar table runs it with its own
// row-dot `Dot`, a policy with two members:
//   Prep(q, dim)            a per-query constant, computed once per call
//                           (VNNI's bias; 0 elsewhere);
//   Dot4(q, prep, r[4], dim, q_scale, r_scales[4], out[4])
//                           the exact i32 sums of q against 4 rows, each
//                           descaled exactly as DescaleI8 does.
// Rows advance in blocks of four; a short last block repeats its final row
// and keeps only the live scores, so there is no single-row path.  Queries
// run inside each block, so a block is read from memory once per batch.
// The caller inlines this into a function compiled for Dot's target.
template <class Dot>
[[gnu::always_inline]] inline void ScanI8(const I8Scan& s) noexcept {
  // Prep values live on the stack, so wider batches run in chunks of the
  // batching pipeline's default max_batch.
  constexpr std::size_t kQueryChunk = 16;
  std::int32_t prep[kQueryChunk];
  for (std::size_t q0 = 0; q0 < s.nq; q0 += kQueryChunk) {
    const std::size_t qn = std::min(kQueryChunk, s.nq - q0);
    for (std::size_t q = 0; q < qn; ++q) {
      prep[q] = Dot::Prep(s.queries + (q0 + q) * s.qstride, s.dim);
    }
    for (std::size_t i = 0; i < s.n; i += 4) {
      for (std::size_t p = i + 4; p < std::min(i + 8, s.n); ++p) {
        PrefetchBytes(s.rows[p], s.dim);
      }
      const std::size_t live = std::min<std::size_t>(4, s.n - i);
      const std::int8_t* r[4];
      float rs[4];
      for (std::size_t k = 0; k < 4; ++k) {
        const std::size_t j = live == 4 ? i + k : std::min(i + k, s.n - 1);
        r[k] = s.rows[j];
        rs[k] = s.scales[j];
      }
      for (std::size_t q = 0; q < qn; ++q) {
        const std::int8_t* query = s.queries + (q0 + q) * s.qstride;
        float* o = s.out + (q0 + q) * s.n + i;
        float short_block[4];
        Dot::Dot4(query, prep[q], r, s.dim, s.query_scales[q0 + q], rs,
                  live == 4 ? o : short_block);
        if (live < 4) std::copy_n(short_block, live, o);
      }
    }
  }
}

// The three KernelSet int8 entries of a table whose row-dot is `Dot`; each
// is one call into Dot::Scan, the target-compiled ScanI8<Dot>.
template <class Dot>
void DotBatchI8(const std::int8_t* query, float query_scale,
                const std::int8_t* rows, const float* scales, std::size_t n,
                std::size_t stride, std::size_t dim, float* out) {
  Dot::Scan({query, &query_scale, 1, dim, {nullptr, rows, stride}, scales, n,
             dim, out});
}

template <class Dot>
void DotRowsI8(const std::int8_t* query, float query_scale,
               const std::int8_t* const* rows, const float* scales,
               std::size_t n, std::size_t dim, float* out) {
  Dot::Scan({query, &query_scale, 1, dim, {rows, nullptr, 0}, scales, n, dim,
             out});
}

template <class Dot>
void DotRowsI8Mq(const std::int8_t* queries, const float* query_scales,
                 std::size_t nq, std::size_t qstride,
                 const std::int8_t* const* rows, const float* scales,
                 std::size_t n, std::size_t dim, float* out) {
  Dot::Scan({queries, query_scales, nq, qstride, {rows, nullptr, 0}, scales,
             n, dim, out});
}

struct I8DotScalar {
  static std::int32_t Prep(const std::int8_t*, std::size_t) noexcept {
    return 0;
  }
  static void Dot4(const std::int8_t* q, std::int32_t,
                   const std::int8_t* const* r, std::size_t dim,
                   float q_scale, const float* r_scales, float* out) noexcept {
    for (std::size_t k = 0; k < 4; ++k) {
      out[k] = DescaleI8(q_scale, r_scales[k], DotI8SumScalar(q, r[k], dim));
    }
  }
  static void Scan(const I8Scan& s) noexcept { ScanI8<I8DotScalar>(s); }
};

double DotF16Scalar(const float* q, const std::uint16_t* r,
                    std::size_t dim) noexcept {
  double acc = 0.0;
  for (std::size_t i = 0; i < dim; ++i) {
    acc += static_cast<double>(q[i]) * static_cast<double>(F16ToF32(r[i]));
  }
  return acc;
}

void DotBatchF16Scalar(const float* query, const std::uint16_t* rows,
                       std::size_t n, std::size_t stride, std::size_t dim,
                       float* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<float>(DotF16Scalar(query, rows + i * stride, dim));
  }
}

void DotRowsF16Scalar(const float* query, const std::uint16_t* const* rows,
                      std::size_t n, std::size_t dim, float* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<float>(DotF16Scalar(query, rows[i], dim));
  }
}

// Multi-query scalar kernels: rows outer, queries inner — the same loop
// interchange every variant applies, scoring with the single-query
// primitive so each (query, row) score matches the sequential kernel
// bit-for-bit.
void DotBatchMqScalar(const float* queries, std::size_t nq,
                      std::size_t qstride, const float* rows, std::size_t n,
                      std::size_t stride, std::size_t dim, float* out) {
  for (std::size_t i = 0; i < n; ++i) {
    const float* row = rows + i * stride;
    for (std::size_t q = 0; q < nq; ++q) {
      out[q * n + i] =
          static_cast<float>(DotScalar(queries + q * qstride, row, dim));
    }
  }
}

void L2SqBatchMqScalar(const float* queries, std::size_t nq,
                       std::size_t qstride, const float* rows, std::size_t n,
                       std::size_t stride, std::size_t dim, float* out) {
  for (std::size_t i = 0; i < n; ++i) {
    const float* row = rows + i * stride;
    for (std::size_t q = 0; q < nq; ++q) {
      out[q * n + i] =
          static_cast<float>(L2SqScalar(queries + q * qstride, row, dim));
    }
  }
}

void DotRowsMqScalar(const float* queries, std::size_t nq,
                     std::size_t qstride, const float* const* rows,
                     std::size_t n, std::size_t dim, float* out) {
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t q = 0; q < nq; ++q) {
      out[q * n + i] =
          static_cast<float>(DotScalar(queries + q * qstride, rows[i], dim));
    }
  }
}

void DotRowsF16MqScalar(const float* queries, std::size_t nq,
                        std::size_t qstride, const std::uint16_t* const* rows,
                        std::size_t n, std::size_t dim, float* out) {
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t q = 0; q < nq; ++q) {
      out[q * n + i] = static_cast<float>(
          DotF16Scalar(queries + q * qstride, rows[i], dim));
    }
  }
}

constexpr KernelSet kScalarKernels = {
    DotScalar,        L2SqScalar,      DotBatchScalar,
    DotRowsScalar,    L2SqBatchScalar, DotBatchI8<I8DotScalar>,
    DotRowsI8<I8DotScalar>,  DotBatchF16Scalar, DotRowsF16Scalar,
    DotBatchMqScalar, L2SqBatchMqScalar, DotRowsMqScalar,
    DotRowsI8Mq<I8DotScalar>, DotRowsF16MqScalar, "scalar",
};

// ---------------------------------------------------------------------------
// AVX2 + FMA (x86-64).  Compiled via function-level target attributes so the
// binary needs no global -mavx2; the bodies execute only after the runtime
// CPU check passes.  Unaligned loads throughout — correctness never depends
// on slab alignment (alignment is a performance property).

#if CORTEX_SIMD_HAVE_X86

#define CORTEX_TARGET_AVX2 __attribute__((target("avx2,fma")))
// fp16 row decode needs VCVTPH2PS; F16C predates AVX2 on every x86 core,
// and VariantSupported checks it at runtime anyway.
#define CORTEX_TARGET_AVX2F16 __attribute__((target("avx2,fma,f16c")))
#define CORTEX_TARGET_AVX512 __attribute__((target("avx512f")))
#define CORTEX_TARGET_VNNI \
  __attribute__((target("avx512f,avx512bw,avx512vnni")))

CORTEX_TARGET_AVX2 inline float HSum8(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  lo = _mm_add_ps(lo, hi);
  __m128 shuf = _mm_movehdup_ps(lo);
  __m128 sums = _mm_add_ps(lo, shuf);
  shuf = _mm_movehl_ps(shuf, sums);
  sums = _mm_add_ss(sums, shuf);
  return _mm_cvtss_f32(sums);
}

CORTEX_TARGET_AVX2 double DotAvx2(const float* a, const float* b,
                                  std::size_t dim) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= dim; i += 16) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8),
                           _mm256_loadu_ps(b + i + 8), acc1);
  }
  for (; i + 8 <= dim; i += 8) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
  }
  float total = HSum8(_mm256_add_ps(acc0, acc1));
  for (; i < dim; ++i) total += a[i] * b[i];
  return static_cast<double>(total);
}

CORTEX_TARGET_AVX2 double L2SqAvx2(const float* a, const float* b,
                                   std::size_t dim) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= dim; i += 16) {
    const __m256 d0 =
        _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    const __m256 d1 = _mm256_sub_ps(_mm256_loadu_ps(a + i + 8),
                                    _mm256_loadu_ps(b + i + 8));
    acc0 = _mm256_fmadd_ps(d0, d0, acc0);
    acc1 = _mm256_fmadd_ps(d1, d1, acc1);
  }
  for (; i + 8 <= dim; i += 8) {
    const __m256 d =
        _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    acc0 = _mm256_fmadd_ps(d, d, acc0);
  }
  float total = HSum8(_mm256_add_ps(acc0, acc1));
  for (; i < dim; ++i) {
    const float d = a[i] - b[i];
    total += d * d;
  }
  return static_cast<double>(total);
}

// 4-row register blocking: one query load feeds four row FMAs, quadrupling
// arithmetic per byte of query traffic.
CORTEX_TARGET_AVX2 void Dot4Avx2(const float* q, const float* r0,
                                 const float* r1, const float* r2,
                                 const float* r3, std::size_t dim,
                                 float* out) {
  __m256 a0 = _mm256_setzero_ps();
  __m256 a1 = _mm256_setzero_ps();
  __m256 a2 = _mm256_setzero_ps();
  __m256 a3 = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= dim; i += 8) {
    const __m256 qv = _mm256_loadu_ps(q + i);
    a0 = _mm256_fmadd_ps(qv, _mm256_loadu_ps(r0 + i), a0);
    a1 = _mm256_fmadd_ps(qv, _mm256_loadu_ps(r1 + i), a1);
    a2 = _mm256_fmadd_ps(qv, _mm256_loadu_ps(r2 + i), a2);
    a3 = _mm256_fmadd_ps(qv, _mm256_loadu_ps(r3 + i), a3);
  }
  float t0 = HSum8(a0), t1 = HSum8(a1), t2 = HSum8(a2), t3 = HSum8(a3);
  for (; i < dim; ++i) {
    const float qq = q[i];
    t0 += qq * r0[i];
    t1 += qq * r1[i];
    t2 += qq * r2[i];
    t3 += qq * r3[i];
  }
  out[0] = t0;
  out[1] = t1;
  out[2] = t2;
  out[3] = t3;
}

void DotBatchAvx2(const float* query, const float* rows, std::size_t n,
                  std::size_t stride, std::size_t dim, float* out) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    if (i + 8 <= n) PrefetchRow(rows + (i + 4) * stride, 4 * stride);
    const float* base = rows + i * stride;
    Dot4Avx2(query, base, base + stride, base + 2 * stride, base + 3 * stride,
             dim, out + i);
  }
  for (; i < n; ++i) {
    out[i] = static_cast<float>(DotAvx2(query, rows + i * stride, dim));
  }
}

void DotRowsAvx2(const float* query, const float* const* rows, std::size_t n,
                 std::size_t dim, float* out) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    for (std::size_t p = i + 4; p < std::min(i + 8, n); ++p) {
      PrefetchRow(rows[p], dim);
    }
    Dot4Avx2(query, rows[i], rows[i + 1], rows[i + 2], rows[i + 3], dim,
             out + i);
  }
  for (; i < n; ++i) {
    out[i] = static_cast<float>(DotAvx2(query, rows[i], dim));
  }
}

void L2SqBatchAvx2(const float* query, const float* rows, std::size_t n,
                   std::size_t stride, std::size_t dim, float* out) {
  for (std::size_t i = 0; i < n; ++i) {
    if (i + 1 < n) PrefetchRow(rows + (i + 1) * stride, dim);
    out[i] = static_cast<float>(L2SqAvx2(query, rows + i * stride, dim));
  }
}

// Finishes an x86 Dot4: adds the bytes past the vector steps (from `i`)
// to the four exact sums, then descales all four in SSE lanes.  Each lane
// evaluates DescaleI8's expression — (q_scale * r_scale) * float(sum), two
// IEEE multiplies and a round-to-nearest conversion — so the scores are
// bit-identical to the scalar ones.  SSE2 only: baseline x86-64, so both
// the AVX2 and the VNNI row-dots inline it.
inline void FinishDot4(__m128i sums, const std::int8_t* q,
                       const std::int8_t* const* r, std::size_t i,
                       std::size_t dim, float q_scale, const float* r_scales,
                       float* out) {
  if (i < dim) {
    alignas(16) std::int32_t t[4];
    _mm_store_si128(reinterpret_cast<__m128i*>(t), sums);
    for (; i < dim; ++i) {
      const std::int32_t qi = q[i];
      for (std::size_t k = 0; k < 4; ++k) t[k] += qi * r[k][i];
    }
    sums = _mm_load_si128(reinterpret_cast<const __m128i*>(t));
  }
  const __m128 scale =
      _mm_mul_ps(_mm_set1_ps(q_scale), _mm_loadu_ps(r_scales));
  _mm_storeu_ps(out, _mm_mul_ps(scale, _mm_cvtepi32_ps(sums)));
}

// int8 row-dot, AVX2: VPMADDUBSW multiplies u8 by s8 and adds adjacent
// pairs into i16, so feed it |q| and r with q's sign moved onto it
// (VPSIGNB): |q| * sign(r, q) = q * r.  Exact under the [-127, 127] input
// contract: a pair sum is at most 2 * 127^2 = 32258 < 2^15, so the i16
// never saturates.  VPMADDWD by 1 then widens the pairs into i32 lanes.
// A 16-byte step zero-extends its loads (sign(0, q) = 0, so the zero upper
// half adds nothing); bytes past the last 16-byte boundary go scalar.
template <std::size_t kBytes>
CORTEX_TARGET_AVX2 inline __m256i LoadI8Avx2(const std::int8_t* p) {
  if constexpr (kBytes == 32) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  } else {
    return _mm256_zextsi128_si256(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
  }
}

template <std::size_t kBytes>
CORTEX_TARGET_AVX2 inline __m256i MaddubsRow(__m256i acc, __m256i qa,
                                             __m256i qv,
                                             const std::int8_t* row) {
  const __m256i pairs = _mm256_maddubs_epi16(
      qa, _mm256_sign_epi8(LoadI8Avx2<kBytes>(row), qv));
  return _mm256_add_epi32(acc,
                          _mm256_madd_epi16(pairs, _mm256_set1_epi16(1)));
}

// One step of four rows; the accumulators are named, not an array, so they
// stay in registers.
template <std::size_t kBytes>
CORTEX_TARGET_AVX2 inline void Step4Maddubs(const std::int8_t* q,
                                            const std::int8_t* const* r,
                                            std::size_t i, __m256i& a0,
                                            __m256i& a1, __m256i& a2,
                                            __m256i& a3) {
  const __m256i qv = LoadI8Avx2<kBytes>(q + i);
  const __m256i qa = _mm256_abs_epi8(qv);
  a0 = MaddubsRow<kBytes>(a0, qa, qv, r[0] + i);
  a1 = MaddubsRow<kBytes>(a1, qa, qv, r[1] + i);
  a2 = MaddubsRow<kBytes>(a2, qa, qv, r[2] + i);
  a3 = MaddubsRow<kBytes>(a3, qa, qv, r[3] + i);
}

struct I8DotMaddubs {
  static std::int32_t Prep(const std::int8_t*, std::size_t) noexcept {
    return 0;
  }

  CORTEX_TARGET_AVX2 static void Dot4(const std::int8_t* q, std::int32_t,
                                      const std::int8_t* const* r,
                                      std::size_t dim, float q_scale,
                                      const float* r_scales, float* out) {
    __m256i a0 = _mm256_setzero_si256();
    __m256i a1 = a0, a2 = a0, a3 = a0;
    std::size_t i = 0;
    for (; i + 32 <= dim; i += 32) Step4Maddubs<32>(q, r, i, a0, a1, a2, a3);
    if (i + 16 <= dim) {
      Step4Maddubs<16>(q, r, i, a0, a1, a2, a3);
      i += 16;
    }
    // Shared horizontal reduce: three VPHADDDs leave row k's two 128-bit
    // half sums in lane k of each half.
    const __m256i h = _mm256_hadd_epi32(_mm256_hadd_epi32(a0, a1),
                                        _mm256_hadd_epi32(a2, a3));
    FinishDot4(_mm_add_epi32(_mm256_castsi256_si128(h),
                             _mm256_extracti128_si256(h, 1)),
               q, r, i, dim, q_scale, r_scales, out);
  }

  CORTEX_TARGET_AVX2 static void Scan(const I8Scan& s) {
    ScanI8<I8DotMaddubs>(s);
  }
};

CORTEX_TARGET_AVX2F16 float DotF16Avx2(const float* q, const std::uint16_t* r,
                                       std::size_t dim) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= dim; i += 16) {
    const __m256 r0 = _mm256_cvtph_ps(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(r + i)));
    const __m256 r1 = _mm256_cvtph_ps(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(r + i + 8)));
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(q + i), r0, acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(q + i + 8), r1, acc1);
  }
  for (; i + 8 <= dim; i += 8) {
    const __m256 rv = _mm256_cvtph_ps(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(r + i)));
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(q + i), rv, acc0);
  }
  float total = HSum8(_mm256_add_ps(acc0, acc1));
  for (; i < dim; ++i) total += q[i] * F16ToF32(r[i]);
  return total;
}

void DotBatchF16Avx2(const float* query, const std::uint16_t* rows,
                     std::size_t n, std::size_t stride, std::size_t dim,
                     float* out) {
  for (std::size_t i = 0; i < n; ++i) {
    if (i + 1 < n) PrefetchBytes(rows + (i + 1) * stride, dim * 2);
    out[i] = DotF16Avx2(query, rows + i * stride, dim);
  }
}

void DotRowsF16Avx2(const float* query, const std::uint16_t* const* rows,
                    std::size_t n, std::size_t dim, float* out) {
  for (std::size_t i = 0; i < n; ++i) {
    if (i + 1 < n) PrefetchBytes(rows[i + 1], dim * 2);
    out[i] = DotF16Avx2(query, rows[i], dim);
  }
}

// Multi-query AVX2: identical row-block boundaries to the single-query
// kernels, with the query loop moved inside the block so a 4-row tile is
// read from memory once per batch and stays L1-resident across queries.
void DotBatchMqAvx2(const float* queries, std::size_t nq, std::size_t qstride,
                    const float* rows, std::size_t n, std::size_t stride,
                    std::size_t dim, float* out) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    if (i + 8 <= n) PrefetchRow(rows + (i + 4) * stride, 4 * stride);
    const float* base = rows + i * stride;
    for (std::size_t q = 0; q < nq; ++q) {
      Dot4Avx2(queries + q * qstride, base, base + stride, base + 2 * stride,
               base + 3 * stride, dim, out + q * n + i);
    }
  }
  for (; i < n; ++i) {
    const float* row = rows + i * stride;
    for (std::size_t q = 0; q < nq; ++q) {
      out[q * n + i] =
          static_cast<float>(DotAvx2(queries + q * qstride, row, dim));
    }
  }
}

void L2SqBatchMqAvx2(const float* queries, std::size_t nq,
                     std::size_t qstride, const float* rows, std::size_t n,
                     std::size_t stride, std::size_t dim, float* out) {
  for (std::size_t i = 0; i < n; ++i) {
    if (i + 1 < n) PrefetchRow(rows + (i + 1) * stride, dim);
    const float* row = rows + i * stride;
    for (std::size_t q = 0; q < nq; ++q) {
      out[q * n + i] =
          static_cast<float>(L2SqAvx2(queries + q * qstride, row, dim));
    }
  }
}

void DotRowsMqAvx2(const float* queries, std::size_t nq, std::size_t qstride,
                   const float* const* rows, std::size_t n, std::size_t dim,
                   float* out) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    for (std::size_t p = i + 4; p < std::min(i + 8, n); ++p) {
      PrefetchRow(rows[p], dim);
    }
    for (std::size_t q = 0; q < nq; ++q) {
      Dot4Avx2(queries + q * qstride, rows[i], rows[i + 1], rows[i + 2],
               rows[i + 3], dim, out + q * n + i);
    }
  }
  for (; i < n; ++i) {
    for (std::size_t q = 0; q < nq; ++q) {
      out[q * n + i] =
          static_cast<float>(DotAvx2(queries + q * qstride, rows[i], dim));
    }
  }
}

void DotRowsF16MqAvx2(const float* queries, std::size_t nq,
                      std::size_t qstride, const std::uint16_t* const* rows,
                      std::size_t n, std::size_t dim, float* out) {
  for (std::size_t i = 0; i < n; ++i) {
    if (i + 1 < n) PrefetchBytes(rows[i + 1], dim * 2);
    for (std::size_t q = 0; q < nq; ++q) {
      out[q * n + i] = DotF16Avx2(queries + q * qstride, rows[i], dim);
    }
  }
}

constexpr KernelSet kAvx2Kernels = {
    DotAvx2,        L2SqAvx2,      DotBatchAvx2,
    DotRowsAvx2,    L2SqBatchAvx2, DotBatchI8<I8DotMaddubs>,
    DotRowsI8<I8DotMaddubs>,  DotBatchF16Avx2, DotRowsF16Avx2,
    DotBatchMqAvx2, L2SqBatchMqAvx2, DotRowsMqAvx2,
    DotRowsI8Mq<I8DotMaddubs>, DotRowsF16MqAvx2, "maddubs",
};

// ---------------------------------------------------------------------------
// AVX-512F (x86-64): 16-lane FMA, same shape as the AVX2 kernels.

CORTEX_TARGET_AVX512 inline float HSum16(__m512 v) {
  return _mm512_reduce_add_ps(v);
}

CORTEX_TARGET_AVX512 double DotAvx512(const float* a, const float* b,
                                      std::size_t dim) {
  __m512 acc0 = _mm512_setzero_ps();
  __m512 acc1 = _mm512_setzero_ps();
  std::size_t i = 0;
  for (; i + 32 <= dim; i += 32) {
    acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i),
                           acc0);
    acc1 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i + 16),
                           _mm512_loadu_ps(b + i + 16), acc1);
  }
  for (; i + 16 <= dim; i += 16) {
    acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i),
                           acc0);
  }
  float total = HSum16(_mm512_add_ps(acc0, acc1));
  for (; i < dim; ++i) total += a[i] * b[i];
  return static_cast<double>(total);
}

CORTEX_TARGET_AVX512 double L2SqAvx512(const float* a, const float* b,
                                       std::size_t dim) {
  __m512 acc = _mm512_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= dim; i += 16) {
    const __m512 d =
        _mm512_sub_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i));
    acc = _mm512_fmadd_ps(d, d, acc);
  }
  float total = HSum16(acc);
  for (; i < dim; ++i) {
    const float d = a[i] - b[i];
    total += d * d;
  }
  return static_cast<double>(total);
}

CORTEX_TARGET_AVX512 void Dot4Avx512(const float* q, const float* r0,
                                     const float* r1, const float* r2,
                                     const float* r3, std::size_t dim,
                                     float* out) {
  __m512 a0 = _mm512_setzero_ps();
  __m512 a1 = _mm512_setzero_ps();
  __m512 a2 = _mm512_setzero_ps();
  __m512 a3 = _mm512_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= dim; i += 16) {
    const __m512 qv = _mm512_loadu_ps(q + i);
    a0 = _mm512_fmadd_ps(qv, _mm512_loadu_ps(r0 + i), a0);
    a1 = _mm512_fmadd_ps(qv, _mm512_loadu_ps(r1 + i), a1);
    a2 = _mm512_fmadd_ps(qv, _mm512_loadu_ps(r2 + i), a2);
    a3 = _mm512_fmadd_ps(qv, _mm512_loadu_ps(r3 + i), a3);
  }
  float t0 = HSum16(a0);
  float t1 = HSum16(a1);
  float t2 = HSum16(a2);
  float t3 = HSum16(a3);
  for (; i < dim; ++i) {
    const float qq = q[i];
    t0 += qq * r0[i];
    t1 += qq * r1[i];
    t2 += qq * r2[i];
    t3 += qq * r3[i];
  }
  out[0] = t0;
  out[1] = t1;
  out[2] = t2;
  out[3] = t3;
}

void DotBatchAvx512(const float* query, const float* rows, std::size_t n,
                    std::size_t stride, std::size_t dim, float* out) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    if (i + 8 <= n) PrefetchRow(rows + (i + 4) * stride, 4 * stride);
    const float* base = rows + i * stride;
    Dot4Avx512(query, base, base + stride, base + 2 * stride,
               base + 3 * stride, dim, out + i);
  }
  for (; i < n; ++i) {
    out[i] = static_cast<float>(DotAvx512(query, rows + i * stride, dim));
  }
}

void DotRowsAvx512(const float* query, const float* const* rows,
                   std::size_t n, std::size_t dim, float* out) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    for (std::size_t p = i + 4; p < std::min(i + 8, n); ++p) {
      PrefetchRow(rows[p], dim);
    }
    Dot4Avx512(query, rows[i], rows[i + 1], rows[i + 2], rows[i + 3], dim,
               out + i);
  }
  for (; i < n; ++i) {
    out[i] = static_cast<float>(DotAvx512(query, rows[i], dim));
  }
}

void L2SqBatchAvx512(const float* query, const float* rows, std::size_t n,
                     std::size_t stride, std::size_t dim, float* out) {
  for (std::size_t i = 0; i < n; ++i) {
    if (i + 1 < n) PrefetchRow(rows + (i + 1) * stride, dim);
    out[i] = static_cast<float>(L2SqAvx512(query, rows + i * stride, dim));
  }
}

// int8 row-dot, AVX-512 VNNI: VPDPBUSD multiplies u8 by s8 and adds each
// group of four products into an i32 lane, without saturation.  Rows go in
// as u8 after XOR 0x80 (r + 128), the query as s8, so each lane gathers
// sum((r + 128) * q) = sum(r * q) + 128 * sum(q); Prep computes that
// 128 * sum(q) once per query per call and Dot4 subtracts it.  Exact for
// every int8 input: all adds wrap mod 2^32 and the true dot fits an i32.
// 32- and 16-byte steps zero-extend both loads (the flipped zero row bytes
// meet zero query bytes), so Prep's sum covers dim rounded down to 16;
// bytes past that go scalar.
template <std::size_t kBytes>
CORTEX_TARGET_VNNI inline __m512i LoadI8Vnni(const std::int8_t* p) {
  if constexpr (kBytes == 64) {
    return _mm512_loadu_si512(p);
  } else if constexpr (kBytes == 32) {
    return _mm512_zextsi256_si512(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)));
  } else {
    return _mm512_zextsi128_si512(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
  }
}

template <std::size_t kBytes>
CORTEX_TARGET_VNNI inline __m512i DpbusdRow(__m512i acc, __m512i qv,
                                            const std::int8_t* row) {
  return _mm512_dpbusd_epi32(
      acc, _mm512_xor_si512(LoadI8Vnni<kBytes>(row), _mm512_set1_epi8(-128)),
      qv);
}

template <std::size_t kBytes>
CORTEX_TARGET_VNNI inline void Step4Vnni(const std::int8_t* q,
                                         const std::int8_t* const* r,
                                         std::size_t i, __m512i& a0,
                                         __m512i& a1, __m512i& a2,
                                         __m512i& a3) {
  const __m512i qv = LoadI8Vnni<kBytes>(q + i);
  a0 = DpbusdRow<kBytes>(a0, qv, r[0] + i);
  a1 = DpbusdRow<kBytes>(a1, qv, r[1] + i);
  a2 = DpbusdRow<kBytes>(a2, qv, r[2] + i);
  a3 = DpbusdRow<kBytes>(a3, qv, r[3] + i);
}

struct I8DotVnni {
  static std::int32_t Prep(const std::int8_t* q, std::size_t dim) noexcept {
    std::uint32_t sum = 0;
    for (std::size_t i = 0; i < (dim & ~std::size_t{15}); ++i) {
      sum += static_cast<std::uint32_t>(q[i]);
    }
    return static_cast<std::int32_t>(sum * 128u);
  }

  CORTEX_TARGET_VNNI static void Dot4(const std::int8_t* q, std::int32_t bias,
                                      const std::int8_t* const* r,
                                      std::size_t dim, float q_scale,
                                      const float* r_scales, float* out) {
    __m512i a0 = _mm512_setzero_si512();
    __m512i a1 = a0, a2 = a0, a3 = a0;
    std::size_t i = 0;
    for (; i + 64 <= dim; i += 64) Step4Vnni<64>(q, r, i, a0, a1, a2, a3);
    if (i + 32 <= dim) {
      Step4Vnni<32>(q, r, i, a0, a1, a2, a3);
      i += 32;
    }
    if (i + 16 <= dim) {
      Step4Vnni<16>(q, r, i, a0, a1, a2, a3);
      i += 16;
    }
    // Shared horizontal reduce: interleave-and-add pairs, then quads, so
    // each 128-bit lane holds partial sums of rows 0..3 in order; fold the
    // four lanes.
    const __m512i s01 =
        _mm512_add_epi32(_mm512_unpacklo_epi32(a0, a1),
                         _mm512_unpackhi_epi32(a0, a1));
    const __m512i s23 =
        _mm512_add_epi32(_mm512_unpacklo_epi32(a2, a3),
                         _mm512_unpackhi_epi32(a2, a3));
    const __m512i s0123 = _mm512_add_epi32(_mm512_unpacklo_epi64(s01, s23),
                                           _mm512_unpackhi_epi64(s01, s23));
    const __m256i h = _mm256_add_epi32(_mm512_castsi512_si256(s0123),
                                       _mm512_extracti64x4_epi64(s0123, 1));
    const __m128i sums = _mm_add_epi32(_mm256_castsi256_si128(h),
                                       _mm256_extracti128_si256(h, 1));
    FinishDot4(_mm_sub_epi32(sums, _mm_set1_epi32(bias)), q, r, i, dim,
               q_scale, r_scales, out);
  }

  CORTEX_TARGET_VNNI static void Scan(const I8Scan& s) {
    ScanI8<I8DotVnni>(s);
  }
};

CORTEX_TARGET_AVX512 float DotF16Avx512(const float* q,
                                        const std::uint16_t* r,
                                        std::size_t dim) {
  __m512 acc = _mm512_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= dim; i += 16) {
    const __m512 rv = _mm512_cvtph_ps(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(r + i)));
    acc = _mm512_fmadd_ps(_mm512_loadu_ps(q + i), rv, acc);
  }
  float total = HSum16(acc);
  for (; i < dim; ++i) total += q[i] * F16ToF32(r[i]);
  return total;
}

void DotBatchF16Avx512(const float* query, const std::uint16_t* rows,
                       std::size_t n, std::size_t stride, std::size_t dim,
                       float* out) {
  for (std::size_t i = 0; i < n; ++i) {
    if (i + 1 < n) PrefetchBytes(rows + (i + 1) * stride, dim * 2);
    out[i] = DotF16Avx512(query, rows + i * stride, dim);
  }
}

void DotRowsF16Avx512(const float* query, const std::uint16_t* const* rows,
                      std::size_t n, std::size_t dim, float* out) {
  for (std::size_t i = 0; i < n; ++i) {
    if (i + 1 < n) PrefetchBytes(rows[i + 1], dim * 2);
    out[i] = DotF16Avx512(query, rows[i], dim);
  }
}

// Multi-query AVX-512: same interchange as the AVX2 mq kernels.
void DotBatchMqAvx512(const float* queries, std::size_t nq,
                      std::size_t qstride, const float* rows, std::size_t n,
                      std::size_t stride, std::size_t dim, float* out) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    if (i + 8 <= n) PrefetchRow(rows + (i + 4) * stride, 4 * stride);
    const float* base = rows + i * stride;
    for (std::size_t q = 0; q < nq; ++q) {
      Dot4Avx512(queries + q * qstride, base, base + stride,
                 base + 2 * stride, base + 3 * stride, dim, out + q * n + i);
    }
  }
  for (; i < n; ++i) {
    const float* row = rows + i * stride;
    for (std::size_t q = 0; q < nq; ++q) {
      out[q * n + i] =
          static_cast<float>(DotAvx512(queries + q * qstride, row, dim));
    }
  }
}

void L2SqBatchMqAvx512(const float* queries, std::size_t nq,
                       std::size_t qstride, const float* rows, std::size_t n,
                       std::size_t stride, std::size_t dim, float* out) {
  for (std::size_t i = 0; i < n; ++i) {
    if (i + 1 < n) PrefetchRow(rows + (i + 1) * stride, dim);
    const float* row = rows + i * stride;
    for (std::size_t q = 0; q < nq; ++q) {
      out[q * n + i] =
          static_cast<float>(L2SqAvx512(queries + q * qstride, row, dim));
    }
  }
}

void DotRowsMqAvx512(const float* queries, std::size_t nq,
                     std::size_t qstride, const float* const* rows,
                     std::size_t n, std::size_t dim, float* out) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    for (std::size_t p = i + 4; p < std::min(i + 8, n); ++p) {
      PrefetchRow(rows[p], dim);
    }
    for (std::size_t q = 0; q < nq; ++q) {
      Dot4Avx512(queries + q * qstride, rows[i], rows[i + 1], rows[i + 2],
                 rows[i + 3], dim, out + q * n + i);
    }
  }
  for (; i < n; ++i) {
    for (std::size_t q = 0; q < nq; ++q) {
      out[q * n + i] =
          static_cast<float>(DotAvx512(queries + q * qstride, rows[i], dim));
    }
  }
}

void DotRowsF16MqAvx512(const float* queries, std::size_t nq,
                        std::size_t qstride, const std::uint16_t* const* rows,
                        std::size_t n, std::size_t dim, float* out) {
  for (std::size_t i = 0; i < n; ++i) {
    if (i + 1 < n) PrefetchBytes(rows[i + 1], dim * 2);
    for (std::size_t q = 0; q < nq; ++q) {
      out[q * n + i] = DotF16Avx512(queries + q * qstride, rows[i], dim);
    }
  }
}

constexpr KernelSet kAvx512Kernels = {
    DotAvx512,        L2SqAvx512,      DotBatchAvx512,
    DotRowsAvx512,    L2SqBatchAvx512, DotBatchI8<I8DotVnni>,
    DotRowsI8<I8DotVnni>,  DotBatchF16Avx512, DotRowsF16Avx512,
    DotBatchMqAvx512, L2SqBatchMqAvx512, DotRowsMqAvx512,
    DotRowsI8Mq<I8DotVnni>, DotRowsF16MqAvx512, "vnni",
};

// The avx512 table on a CPU without AVX-512 BW + VNNI: the AVX2 int8
// entries (the 16-lane float kernels only need AVX-512F).
constexpr KernelSet WithI8Of(KernelSet k, const KernelSet& from) {
  k.dot_batch_i8 = from.dot_batch_i8;
  k.dot_rows_i8 = from.dot_rows_i8;
  k.dot_rows_i8_mq = from.dot_rows_i8_mq;
  k.i8_kernel = from.i8_kernel;
  return k;
}
constexpr KernelSet kAvx512NoVnniKernels = WithI8Of(kAvx512Kernels, kAvx2Kernels);

bool CpuHasAvx512Vnni() noexcept {
  return __builtin_cpu_supports("avx512bw") &&
         __builtin_cpu_supports("avx512vnni");
}

#endif  // CORTEX_SIMD_HAVE_X86

// ---------------------------------------------------------------------------
// NEON (aarch64): baseline ISA, no runtime feature check needed.

#if CORTEX_SIMD_HAVE_NEON

double DotNeon(const float* a, const float* b, std::size_t dim) {
  float32x4_t acc0 = vdupq_n_f32(0.0f);
  float32x4_t acc1 = vdupq_n_f32(0.0f);
  std::size_t i = 0;
  for (; i + 8 <= dim; i += 8) {
    acc0 = vfmaq_f32(acc0, vld1q_f32(a + i), vld1q_f32(b + i));
    acc1 = vfmaq_f32(acc1, vld1q_f32(a + i + 4), vld1q_f32(b + i + 4));
  }
  for (; i + 4 <= dim; i += 4) {
    acc0 = vfmaq_f32(acc0, vld1q_f32(a + i), vld1q_f32(b + i));
  }
  float total = vaddvq_f32(vaddq_f32(acc0, acc1));
  for (; i < dim; ++i) total += a[i] * b[i];
  return static_cast<double>(total);
}

double L2SqNeon(const float* a, const float* b, std::size_t dim) {
  float32x4_t acc = vdupq_n_f32(0.0f);
  std::size_t i = 0;
  for (; i + 4 <= dim; i += 4) {
    const float32x4_t d = vsubq_f32(vld1q_f32(a + i), vld1q_f32(b + i));
    acc = vfmaq_f32(acc, d, d);
  }
  float total = vaddvq_f32(acc);
  for (; i < dim; ++i) {
    const float d = a[i] - b[i];
    total += d * d;
  }
  return static_cast<double>(total);
}

void Dot4Neon(const float* q, const float* r0, const float* r1,
              const float* r2, const float* r3, std::size_t dim, float* out) {
  float32x4_t a0 = vdupq_n_f32(0.0f);
  float32x4_t a1 = vdupq_n_f32(0.0f);
  float32x4_t a2 = vdupq_n_f32(0.0f);
  float32x4_t a3 = vdupq_n_f32(0.0f);
  std::size_t i = 0;
  for (; i + 4 <= dim; i += 4) {
    const float32x4_t qv = vld1q_f32(q + i);
    a0 = vfmaq_f32(a0, qv, vld1q_f32(r0 + i));
    a1 = vfmaq_f32(a1, qv, vld1q_f32(r1 + i));
    a2 = vfmaq_f32(a2, qv, vld1q_f32(r2 + i));
    a3 = vfmaq_f32(a3, qv, vld1q_f32(r3 + i));
  }
  float t0 = vaddvq_f32(a0), t1 = vaddvq_f32(a1);
  float t2 = vaddvq_f32(a2), t3 = vaddvq_f32(a3);
  for (; i < dim; ++i) {
    const float qq = q[i];
    t0 += qq * r0[i];
    t1 += qq * r1[i];
    t2 += qq * r2[i];
    t3 += qq * r3[i];
  }
  out[0] = t0;
  out[1] = t1;
  out[2] = t2;
  out[3] = t3;
}

void DotBatchNeon(const float* query, const float* rows, std::size_t n,
                  std::size_t stride, std::size_t dim, float* out) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    if (i + 8 <= n) PrefetchRow(rows + (i + 4) * stride, 4 * stride);
    const float* base = rows + i * stride;
    Dot4Neon(query, base, base + stride, base + 2 * stride, base + 3 * stride,
             dim, out + i);
  }
  for (; i < n; ++i) {
    out[i] = static_cast<float>(DotNeon(query, rows + i * stride, dim));
  }
}

void DotRowsNeon(const float* query, const float* const* rows, std::size_t n,
                 std::size_t dim, float* out) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    for (std::size_t p = i + 4; p < std::min(i + 8, n); ++p) {
      PrefetchRow(rows[p], dim);
    }
    Dot4Neon(query, rows[i], rows[i + 1], rows[i + 2], rows[i + 3], dim,
             out + i);
  }
  for (; i < n; ++i) {
    out[i] = static_cast<float>(DotNeon(query, rows[i], dim));
  }
}

void L2SqBatchNeon(const float* query, const float* rows, std::size_t n,
                   std::size_t stride, std::size_t dim, float* out) {
  for (std::size_t i = 0; i < n; ++i) {
    if (i + 1 < n) PrefetchRow(rows + (i + 1) * stride, dim);
    out[i] = static_cast<float>(L2SqNeon(query, rows + i * stride, dim));
  }
}

// Exact int8 dot: SMULL to i16x8, pairwise-accumulate into i32x4.
std::int32_t DotI8SumNeon(const std::int8_t* a, const std::int8_t* b,
                          std::size_t dim) {
  int32x4_t acc = vdupq_n_s32(0);
  std::size_t i = 0;
  for (; i + 16 <= dim; i += 16) {
    const int8x16_t av = vld1q_s8(a + i);
    const int8x16_t bv = vld1q_s8(b + i);
    acc = vpadalq_s16(acc, vmull_s8(vget_low_s8(av), vget_low_s8(bv)));
    acc = vpadalq_s16(acc, vmull_s8(vget_high_s8(av), vget_high_s8(bv)));
  }
  std::int32_t sum = vaddvq_s32(acc);
  for (; i < dim; ++i) {
    sum += static_cast<std::int32_t>(a[i]) * static_cast<std::int32_t>(b[i]);
  }
  return sum;
}

void DotBatchI8Neon(const std::int8_t* query, float query_scale,
                    const std::int8_t* rows, const float* scales,
                    std::size_t n, std::size_t stride, std::size_t dim,
                    float* out) {
  for (std::size_t i = 0; i < n; ++i) {
    if (i + 1 < n) PrefetchBytes(rows + (i + 1) * stride, dim);
    out[i] = DescaleI8(query_scale, scales[i],
                       DotI8SumNeon(query, rows + i * stride, dim));
  }
}

void DotRowsI8Neon(const std::int8_t* query, float query_scale,
                   const std::int8_t* const* rows, const float* scales,
                   std::size_t n, std::size_t dim, float* out) {
  for (std::size_t i = 0; i < n; ++i) {
    if (i + 1 < n) PrefetchBytes(rows[i + 1], dim);
    out[i] =
        DescaleI8(query_scale, scales[i], DotI8SumNeon(query, rows[i], dim));
  }
}

// FCVTL is baseline ARMv8-A: decode four halves per step.
float DotF16Neon(const float* q, const std::uint16_t* r, std::size_t dim) {
  float32x4_t acc = vdupq_n_f32(0.0f);
  std::size_t i = 0;
  for (; i + 4 <= dim; i += 4) {
    const float32x4_t rv =
        vcvt_f32_f16(vreinterpret_f16_u16(vld1_u16(r + i)));
    acc = vfmaq_f32(acc, vld1q_f32(q + i), rv);
  }
  float total = vaddvq_f32(acc);
  for (; i < dim; ++i) total += q[i] * F16ToF32(r[i]);
  return total;
}

void DotBatchF16Neon(const float* query, const std::uint16_t* rows,
                     std::size_t n, std::size_t stride, std::size_t dim,
                     float* out) {
  for (std::size_t i = 0; i < n; ++i) {
    if (i + 1 < n) PrefetchBytes(rows + (i + 1) * stride, dim * 2);
    out[i] = DotF16Neon(query, rows + i * stride, dim);
  }
}

void DotRowsF16Neon(const float* query, const std::uint16_t* const* rows,
                    std::size_t n, std::size_t dim, float* out) {
  for (std::size_t i = 0; i < n; ++i) {
    if (i + 1 < n) PrefetchBytes(rows[i + 1], dim * 2);
    out[i] = DotF16Neon(query, rows[i], dim);
  }
}

// Multi-query NEON: same interchange as the x86 mq kernels.
void DotBatchMqNeon(const float* queries, std::size_t nq, std::size_t qstride,
                    const float* rows, std::size_t n, std::size_t stride,
                    std::size_t dim, float* out) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    if (i + 8 <= n) PrefetchRow(rows + (i + 4) * stride, 4 * stride);
    const float* base = rows + i * stride;
    for (std::size_t q = 0; q < nq; ++q) {
      Dot4Neon(queries + q * qstride, base, base + stride, base + 2 * stride,
               base + 3 * stride, dim, out + q * n + i);
    }
  }
  for (; i < n; ++i) {
    const float* row = rows + i * stride;
    for (std::size_t q = 0; q < nq; ++q) {
      out[q * n + i] =
          static_cast<float>(DotNeon(queries + q * qstride, row, dim));
    }
  }
}

void L2SqBatchMqNeon(const float* queries, std::size_t nq,
                     std::size_t qstride, const float* rows, std::size_t n,
                     std::size_t stride, std::size_t dim, float* out) {
  for (std::size_t i = 0; i < n; ++i) {
    if (i + 1 < n) PrefetchRow(rows + (i + 1) * stride, dim);
    const float* row = rows + i * stride;
    for (std::size_t q = 0; q < nq; ++q) {
      out[q * n + i] =
          static_cast<float>(L2SqNeon(queries + q * qstride, row, dim));
    }
  }
}

void DotRowsMqNeon(const float* queries, std::size_t nq, std::size_t qstride,
                   const float* const* rows, std::size_t n, std::size_t dim,
                   float* out) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    for (std::size_t p = i + 4; p < std::min(i + 8, n); ++p) {
      PrefetchRow(rows[p], dim);
    }
    for (std::size_t q = 0; q < nq; ++q) {
      Dot4Neon(queries + q * qstride, rows[i], rows[i + 1], rows[i + 2],
               rows[i + 3], dim, out + q * n + i);
    }
  }
  for (; i < n; ++i) {
    for (std::size_t q = 0; q < nq; ++q) {
      out[q * n + i] =
          static_cast<float>(DotNeon(queries + q * qstride, rows[i], dim));
    }
  }
}

void DotRowsI8MqNeon(const std::int8_t* queries, const float* query_scales,
                     std::size_t nq, std::size_t qstride,
                     const std::int8_t* const* rows, const float* scales,
                     std::size_t n, std::size_t dim, float* out) {
  for (std::size_t i = 0; i < n; ++i) {
    if (i + 1 < n) PrefetchBytes(rows[i + 1], dim);
    for (std::size_t q = 0; q < nq; ++q) {
      out[q * n + i] =
          DescaleI8(query_scales[q], scales[i],
                    DotI8SumNeon(queries + q * qstride, rows[i], dim));
    }
  }
}

void DotRowsF16MqNeon(const float* queries, std::size_t nq,
                      std::size_t qstride, const std::uint16_t* const* rows,
                      std::size_t n, std::size_t dim, float* out) {
  for (std::size_t i = 0; i < n; ++i) {
    if (i + 1 < n) PrefetchBytes(rows[i + 1], dim * 2);
    for (std::size_t q = 0; q < nq; ++q) {
      out[q * n + i] = DotF16Neon(queries + q * qstride, rows[i], dim);
    }
  }
}

constexpr KernelSet kNeonKernels = {
    DotNeon,        L2SqNeon,      DotBatchNeon,
    DotRowsNeon,    L2SqBatchNeon, DotBatchI8Neon,
    DotRowsI8Neon,  DotBatchF16Neon, DotRowsF16Neon,
    DotBatchMqNeon, L2SqBatchMqNeon, DotRowsMqNeon,
    DotRowsI8MqNeon, DotRowsF16MqNeon, "neon",
};

#endif  // CORTEX_SIMD_HAVE_NEON

// ---------------------------------------------------------------------------
// Dispatch.

struct Dispatch {
  Variant variant;
  const KernelSet* kernels;
};

Dispatch ResolveFromEnv() {
  const char* env = std::getenv("CORTEX_SIMD");
  if (env == nullptr || *env == '\0') {
    const Variant best = BestSupportedVariant();
    return {best, &KernelsFor(best)};
  }
  const std::string_view want(env);
  Variant v = Variant::kScalar;
  if (want == "scalar") {
    v = Variant::kScalar;
  } else if (want == "avx2") {
    v = Variant::kAvx2;
  } else if (want == "avx512") {
    v = Variant::kAvx512;
  } else if (want == "neon") {
    v = Variant::kNeon;
  } else {
    CHECK(false) << "CORTEX_SIMD='" << want
                 << "' is not one of scalar|avx2|avx512|neon";
  }
  CHECK(VariantSupported(v))
      << "CORTEX_SIMD=" << VariantName(v)
      << " requested but not supported on this CPU/build";
  return {v, &KernelsFor(v)};
}

Dispatch& ActiveDispatch() noexcept {
  // Resolved once, on first use; ForceVariant (tests only) may swap it.
  static Dispatch dispatch = ResolveFromEnv();
  return dispatch;
}

}  // namespace

std::uint16_t F32ToF16(float f) noexcept {
  std::uint32_t x;
  std::memcpy(&x, &f, sizeof x);
  const std::uint16_t sign = static_cast<std::uint16_t>((x >> 16) & 0x8000u);
  x &= 0x7fffffffu;
  if (x >= 0x47800000u) {  // too large for a finite half, or inf/nan
    if (x > 0x7f800000u) return sign | 0x7e00u;  // quiet NaN
    return sign | 0x7c00u;                       // +-inf
  }
  if (x < 0x38800000u) {  // maps to a subnormal half (or zero)
    if (x < 0x33000000u) return sign;  // below half of the smallest subnormal
    const std::uint32_t shift = 113u - (x >> 23);
    const std::uint32_t mant = (x & 0x7fffffu) | 0x800000u;
    std::uint16_t h = static_cast<std::uint16_t>(mant >> (shift + 13));
    // Round to nearest, ties to even.
    const std::uint32_t rem = mant & ((1u << (shift + 13)) - 1u);
    const std::uint32_t half = 1u << (shift + 12);
    if (rem > half || (rem == half && (h & 1u))) ++h;
    return sign | h;
  }
  // Normal range; a mantissa round-up may carry into the exponent (and at
  // the top, into infinity) — the carry arithmetic is exactly right.
  std::uint32_t h = (((x >> 23) - 112u) << 10) | ((x >> 13) & 0x3ffu);
  const std::uint32_t rem = x & 0x1fffu;
  if (rem > 0x1000u || (rem == 0x1000u && (h & 1u))) ++h;
  return static_cast<std::uint16_t>(sign | h);
}

float F16ToF32(std::uint16_t h) noexcept {
  const float sign = (h & 0x8000u) ? -1.0f : 1.0f;
  const std::uint32_t exp = (h >> 10) & 0x1fu;
  const std::uint32_t mant = h & 0x3ffu;
  if (exp == 0) {
    // Subnormal: mant * 2^-24, exact in binary32.
    return sign * static_cast<float>(mant) * 0x1p-24f;
  }
  if (exp == 31) {
    if (mant != 0) return std::numeric_limits<float>::quiet_NaN();
    return sign * std::numeric_limits<float>::infinity();
  }
  std::uint32_t bits = (static_cast<std::uint32_t>(h & 0x8000u) << 16) |
                       ((exp + 112u) << 23) | (mant << 13);
  float f;
  std::memcpy(&f, &bits, sizeof f);
  return f;
}

float QuantizeRowI8(std::span<const float> v, std::int8_t* out) noexcept {
  float amax = 0.0f;
  for (const float x : v) amax = std::max(amax, std::fabs(x));
  if (amax == 0.0f) {
    for (std::size_t i = 0; i < v.size(); ++i) out[i] = 0;
    return 0.0f;
  }
  const float inv = 127.0f / amax;
  for (std::size_t i = 0; i < v.size(); ++i) {
    const long q = std::lrintf(v[i] * inv);
    out[i] = static_cast<std::int8_t>(std::clamp<long>(q, -127, 127));
  }
  return amax / 127.0f;
}

const char* VariantName(Variant v) noexcept {
  switch (v) {
    case Variant::kScalar:
      return "scalar";
    case Variant::kAvx2:
      return "avx2";
    case Variant::kAvx512:
      return "avx512";
    case Variant::kNeon:
      return "neon";
  }
  return "unknown";
}

bool VariantSupported(Variant v) noexcept {
  switch (v) {
    case Variant::kScalar:
      return true;
    case Variant::kAvx2:
#if CORTEX_SIMD_HAVE_X86
      // f16c: the fp16 row kernels decode with VCVTPH2PS.  Every AVX2
      // core ships F16C (it predates AVX2), so this costs no coverage.
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma") &&
             __builtin_cpu_supports("f16c");
#else
      return false;
#endif
    case Variant::kAvx512:
#if CORTEX_SIMD_HAVE_X86
      // Without VNNI the table runs the AVX2 int8 entries, so require the
      // AVX2 tier too (every AVX-512F core has it).
      return __builtin_cpu_supports("avx512f") &&
             VariantSupported(Variant::kAvx2);
#else
      return false;
#endif
    case Variant::kNeon:
#if CORTEX_SIMD_HAVE_NEON
      return true;
#else
      return false;
#endif
  }
  return false;
}

std::vector<Variant> SupportedVariants() {
  std::vector<Variant> out;
  for (const Variant v : {Variant::kScalar, Variant::kAvx2, Variant::kAvx512,
                          Variant::kNeon}) {
    if (VariantSupported(v)) out.push_back(v);
  }
  return out;
}

Variant BestSupportedVariant() noexcept {
  if (VariantSupported(Variant::kAvx512)) return Variant::kAvx512;
  if (VariantSupported(Variant::kAvx2)) return Variant::kAvx2;
  if (VariantSupported(Variant::kNeon)) return Variant::kNeon;
  return Variant::kScalar;
}

const KernelSet& KernelsFor(Variant v) {
  CHECK(VariantSupported(v))
      << "kernel variant " << VariantName(v) << " not supported here";
  switch (v) {
    case Variant::kScalar:
      return kScalarKernels;
#if CORTEX_SIMD_HAVE_X86
    case Variant::kAvx2:
      return kAvx2Kernels;
    case Variant::kAvx512:
      return CpuHasAvx512Vnni() ? kAvx512Kernels : kAvx512NoVnniKernels;
#endif
#if CORTEX_SIMD_HAVE_NEON
    case Variant::kNeon:
      return kNeonKernels;
#endif
    default:
      return kScalarKernels;
  }
}

Variant ActiveVariant() noexcept { return ActiveDispatch().variant; }

const KernelSet& ActiveKernels() noexcept { return *ActiveDispatch().kernels; }

bool ForceVariant(Variant v) noexcept {
  if (!VariantSupported(v)) return false;
  ActiveDispatch() = {v, &KernelsFor(v)};
  return true;
}

}  // namespace cortex::simd
