#include "embedding/vector_ops.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "embedding/simd_kernels.h"
#include "embedding/vector_slab.h"
#include "util/rng.h"

namespace cortex {
namespace {

// Restores the previously active kernel variant on scope exit so a failing
// assertion cannot leak a forced variant into later tests.
class ScopedVariant {
 public:
  explicit ScopedVariant(simd::Variant v) : prev_(simd::ActiveVariant()) {
    forced_ = simd::ForceVariant(v);
  }
  ~ScopedVariant() { simd::ForceVariant(prev_); }
  ScopedVariant(const ScopedVariant&) = delete;
  ScopedVariant& operator=(const ScopedVariant&) = delete;
  bool forced() const noexcept { return forced_; }

 private:
  simd::Variant prev_;
  bool forced_ = false;
};

TEST(VectorOps, DotProduct) {
  const Vector a = {1, 2, 3};
  const Vector b = {4, -5, 6};
  EXPECT_DOUBLE_EQ(Dot(a, b), 12.0);
}

TEST(VectorOps, L2NormAndDistance) {
  const Vector a = {3, 4};
  EXPECT_DOUBLE_EQ(L2Norm(a), 5.0);
  const Vector b = {0, 0};
  EXPECT_DOUBLE_EQ(L2DistanceSquared(a, b), 25.0);
}

TEST(VectorOps, CosineOfParallelVectorsIsOne) {
  const Vector a = {1, 2, 3};
  const Vector b = {2, 4, 6};
  EXPECT_NEAR(CosineSimilarity(a, b), 1.0, 1e-12);
}

TEST(VectorOps, CosineOfOrthogonalVectorsIsZero) {
  const Vector a = {1, 0};
  const Vector b = {0, 1};
  EXPECT_DOUBLE_EQ(CosineSimilarity(a, b), 0.0);
}

TEST(VectorOps, CosineOfOppositeVectorsIsMinusOne) {
  const Vector a = {1, 1};
  const Vector b = {-1, -1};
  EXPECT_NEAR(CosineSimilarity(a, b), -1.0, 1e-12);
}

TEST(VectorOps, CosineWithZeroVectorIsZero) {
  const Vector a = {0, 0};
  const Vector b = {1, 2};
  EXPECT_DOUBLE_EQ(CosineSimilarity(a, b), 0.0);
}

TEST(VectorOps, NormalizeProducesUnitLength) {
  Vector v = {3, 4, 12};
  Normalize(v);
  EXPECT_NEAR(L2Norm(v), 1.0, 1e-6);
}

TEST(VectorOps, NormalizeZeroVectorIsNoop) {
  Vector v = {0, 0, 0};
  Normalize(v);
  EXPECT_EQ(v, (Vector{0, 0, 0}));
}

TEST(VectorOps, AddAndScaleInPlace) {
  Vector a = {1, 2};
  const Vector b = {3, 4};
  AddInPlace(a, b);
  EXPECT_EQ(a, (Vector{4, 6}));
  ScaleInPlace(a, 0.5f);
  EXPECT_EQ(a, (Vector{2, 3}));
}

TEST(VectorOps, CosineBoundedForRandomVectors) {
  Rng rng(1);
  for (int trial = 0; trial < 100; ++trial) {
    Vector a(32), b(32);
    for (auto& x : a) x = static_cast<float>(rng.Normal());
    for (auto& x : b) x = static_cast<float>(rng.Normal());
    const double c = CosineSimilarity(a, b);
    EXPECT_GE(c, -1.0 - 1e-9);
    EXPECT_LE(c, 1.0 + 1e-9);
  }
}

TEST(VectorOps, TriangleConsistency) {
  // ||a-b||^2 = ||a||^2 + ||b||^2 - 2<a,b>.  Tolerance follows the kernel
  // numerics policy (simd_kernels.h): SIMD variants accumulate in float
  // lanes, so the identity holds to ~1e-5 relative, not double precision.
  Rng rng(2);
  Vector a(16), b(16);
  for (auto& x : a) x = static_cast<float>(rng.Normal());
  for (auto& x : b) x = static_cast<float>(rng.Normal());
  const double lhs = L2DistanceSquared(a, b);
  const double rhs = Dot(a, a) + Dot(b, b) - 2 * Dot(a, b);
  EXPECT_NEAR(lhs, rhs, 1e-5 * (std::abs(rhs) + 1.0));
}

// ---------------------------------------------------------------------------
// SIMD kernel layer

TEST(SimdKernels, ScalarAlwaysSupportedAndNamed) {
  EXPECT_TRUE(simd::VariantSupported(simd::Variant::kScalar));
  const auto variants = simd::SupportedVariants();
  ASSERT_FALSE(variants.empty());
  EXPECT_EQ(variants.front(), simd::Variant::kScalar);
  for (const auto v : variants) {
    EXPECT_STRNE(simd::VariantName(v), "");
  }
  // The resolved dispatch must itself be a supported variant.
  EXPECT_TRUE(simd::VariantSupported(simd::ActiveVariant()));
}

TEST(SimdKernels, ForceVariantSwapsAndRestores) {
  const auto original = simd::ActiveVariant();
  {
    ScopedVariant forced(simd::Variant::kScalar);
    ASSERT_TRUE(forced.forced());
    EXPECT_EQ(simd::ActiveVariant(), simd::Variant::kScalar);
  }
  EXPECT_EQ(simd::ActiveVariant(), original);
  // Unsupported variants are rejected without changing the dispatch.
#if !defined(__aarch64__)
  EXPECT_FALSE(simd::ForceVariant(simd::Variant::kNeon));
  EXPECT_EQ(simd::ActiveVariant(), original);
#endif
}

// Every compiled-and-runnable variant must agree with the scalar reference
// within 1e-5 relative tolerance, across dims that exercise every tail path
// (non-multiples of 8/16 lanes) and deliberately misaligned spans.
TEST(SimdKernels, AllVariantsMatchScalarReference) {
  Rng rng(7);
  const auto& scalar = simd::KernelsFor(simd::Variant::kScalar);
  const auto variants = simd::SupportedVariants();
  const std::size_t dims[] = {1,  2,  3,   5,   7,   8,   9,    15,  16,
                              17, 31, 32,  33,  63,  64,  65,   100, 127,
                              128, 129, 255, 256, 257, 768, 1000, 1536, 1537};
  for (const std::size_t dim : dims) {
    // +1 slack so the offset-1 pass reads in-bounds but misaligned.
    std::vector<float> abuf(dim + 1), bbuf(dim + 1);
    for (auto& x : abuf) x = static_cast<float>(rng.Normal());
    for (auto& x : bbuf) x = static_cast<float>(rng.Normal());
    for (const std::size_t offset : {std::size_t{0}, std::size_t{1}}) {
      const float* a = abuf.data() + offset;
      const float* b = bbuf.data() + offset;
      const double ref_dot = scalar.dot(a, b, dim);
      const double ref_l2 = scalar.l2sq(a, b, dim);
      for (const auto v : variants) {
        const auto& ks = simd::KernelsFor(v);
        EXPECT_NEAR(ks.dot(a, b, dim), ref_dot,
                    1e-5 * (std::abs(ref_dot) + 1.0))
            << simd::VariantName(v) << " dot dim=" << dim
            << " offset=" << offset;
        EXPECT_NEAR(ks.l2sq(a, b, dim), ref_l2, 1e-5 * (ref_l2 + 1.0))
            << simd::VariantName(v) << " l2sq dim=" << dim
            << " offset=" << offset;
      }
    }
  }
}

// Batched kernels (contiguous strided, gather, and L2) must agree with the
// scalar single-pair reference row by row, including padded strides.
TEST(SimdKernels, BatchKernelsMatchSingleQueryReference) {
  Rng rng(11);
  const auto& scalar = simd::KernelsFor(simd::Variant::kScalar);
  const auto variants = simd::SupportedVariants();
  for (const std::size_t dim : {std::size_t{5}, std::size_t{64},
                                std::size_t{257}, std::size_t{768}}) {
    const std::size_t n = 37;           // not a multiple of the 4-row block
    const std::size_t stride = dim + 3;  // padded, misaligns every row
    std::vector<float> rows(n * stride), query(dim);
    for (auto& x : rows) x = static_cast<float>(rng.Normal());
    for (auto& x : query) x = static_cast<float>(rng.Normal());
    std::vector<const float*> ptrs(n);
    for (std::size_t i = 0; i < n; ++i) ptrs[i] = rows.data() + i * stride;
    // Scatter the gather order so dot_rows cannot rely on contiguity.
    std::reverse(ptrs.begin(), ptrs.end());

    std::vector<float> dots(n), gathers(n), l2s(n);
    for (const auto v : variants) {
      const auto& ks = simd::KernelsFor(v);
      ks.dot_batch(query.data(), rows.data(), n, stride, dim, dots.data());
      ks.dot_rows(query.data(), ptrs.data(), n, dim, gathers.data());
      ks.l2sq_batch(query.data(), rows.data(), n, stride, dim, l2s.data());
      for (std::size_t i = 0; i < n; ++i) {
        const double ref =
            scalar.dot(query.data(), rows.data() + i * stride, dim);
        const double ref_g = scalar.dot(query.data(), ptrs[i], dim);
        const double ref_l2 =
            scalar.l2sq(query.data(), rows.data() + i * stride, dim);
        EXPECT_NEAR(dots[i], ref, 1e-5 * (std::abs(ref) + 1.0))
            << simd::VariantName(v) << " dot_batch dim=" << dim << " i=" << i;
        EXPECT_NEAR(gathers[i], ref_g, 1e-5 * (std::abs(ref_g) + 1.0))
            << simd::VariantName(v) << " dot_rows dim=" << dim << " i=" << i;
        EXPECT_NEAR(l2s[i], ref_l2, 1e-5 * (ref_l2 + 1.0))
            << simd::VariantName(v) << " l2sq_batch dim=" << dim
            << " i=" << i;
      }
    }
  }
}

TEST(SimdKernels, NearlyUnitNormAcceptsUnitRejectsOthers) {
  Rng rng(13);
  Vector v(128);
  for (auto& x : v) x = static_cast<float>(rng.Normal());
  Normalize(v);
  EXPECT_TRUE(NearlyUnitNorm(v));
  ScaleInPlace(v, 2.0f);
  EXPECT_FALSE(NearlyUnitNorm(v));
  const Vector zero(128, 0.0f);
  EXPECT_FALSE(NearlyUnitNorm(zero));
}

// ---------------------------------------------------------------------------
// Quantized scan tier (DESIGN.md §13): fp16/int8 row encoding and kernels.

TEST(F16Conversion, KnownEncodingsAndExactDecode) {
  // Spot values with known IEEE binary16 encodings.
  EXPECT_EQ(simd::F32ToF16(0.0f), 0x0000);
  EXPECT_EQ(simd::F32ToF16(-0.0f), 0x8000);
  EXPECT_EQ(simd::F32ToF16(1.0f), 0x3C00);
  EXPECT_EQ(simd::F32ToF16(-2.0f), 0xC000);
  EXPECT_EQ(simd::F32ToF16(0.5f), 0x3800);
  EXPECT_EQ(simd::F32ToF16(65504.0f), 0x7BFF);   // f16 max normal
  EXPECT_EQ(simd::F32ToF16(65536.0f), 0x7C00);   // overflow -> +inf
  EXPECT_EQ(simd::F32ToF16(-65536.0f), 0xFC00);  // overflow -> -inf
  EXPECT_EQ(simd::F32ToF16(5.9604645e-8f), 0x0001);  // smallest subnormal
  // Decode of every encodable half is exact in fp32.
  EXPECT_EQ(simd::F16ToF32(0x3C00), 1.0f);
  EXPECT_EQ(simd::F16ToF32(0x0001), 5.9604645e-8f);
  EXPECT_EQ(simd::F16ToF32(0x8000), -0.0f);
  EXPECT_TRUE(std::signbit(simd::F16ToF32(0x8000)));
}

TEST(F16Conversion, RoundTripErrorBoundedForRandomFloats) {
  // binary16 has 11 significand bits: RNE roundtrip of any value in the
  // normal range errs by at most 2^-11 relative.
  Rng rng(19);
  for (int trial = 0; trial < 2000; ++trial) {
    const float x = static_cast<float>(rng.Normal());
    const float rt = simd::F16ToF32(simd::F32ToF16(x));
    EXPECT_NEAR(rt, x, std::abs(x) * 0x1p-11f + 1e-7f) << "x=" << x;
  }
}

TEST(F16Conversion, RoundsToNearestEven) {
  // 1 + 2^-11 is exactly half way between 1.0 and the next half
  // (1 + 2^-10); RNE must pick the even significand (1.0).
  EXPECT_EQ(simd::F32ToF16(1.0f + 0x1p-11f), 0x3C00);
  // Just above the tie rounds up.
  EXPECT_EQ(simd::F32ToF16(1.0f + 0x1p-11f + 0x1p-20f), 0x3C01);
  // 1 + 3*2^-11 is half way between 0x3C01 and 0x3C02: even wins again.
  EXPECT_EQ(simd::F32ToF16(1.0f + 3 * 0x1p-11f), 0x3C02);
}

TEST(QuantizeRowI8, BoundsScaleAndZeroRow) {
  Rng rng(23);
  Vector v(97);
  for (auto& x : v) x = static_cast<float>(rng.Normal());
  std::vector<std::int8_t> q(v.size());
  const float scale = simd::QuantizeRowI8(v, q.data());
  float amax = 0.0f;
  for (const float x : v) amax = std::max(amax, std::abs(x));
  EXPECT_FLOAT_EQ(scale, amax / 127.0f);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_GE(q[i], -127);
    EXPECT_LE(q[i], 127);
    // Symmetric quantization reconstruction error is at most scale/2.
    EXPECT_NEAR(scale * static_cast<float>(q[i]), v[i], scale * 0.5f + 1e-7f);
  }
  const Vector zero(16, 0.0f);
  std::vector<std::int8_t> qz(16, 42);
  EXPECT_EQ(simd::QuantizeRowI8(zero, qz.data()), 0.0f);
  for (const auto b : qz) EXPECT_EQ(b, 0);
}

// Every tail path of the x86 int8 row-dots: 64/32/16-byte vector steps
// (VNNI), 32/16-byte steps (AVX2), and the scalar bytes past the last
// 16-byte boundary.
constexpr std::size_t kI8Dims[] = {1,   15,  31,  33,  63,  64,  65,  127,
                                   128, 129, 255, 256, 257, 768, 1536};

// The exact score of one int8 pair, independent of every kernel table:
// the integer dot in 64 bits, then the one descale expression the kernels
// share.
float I8Reference(const std::int8_t* q, float q_scale, const std::int8_t* r,
                  float r_scale, std::size_t dim) {
  std::int64_t sum = 0;
  for (std::size_t i = 0; i < dim; ++i) {
    sum += static_cast<std::int64_t>(q[i]) * static_cast<std::int64_t>(r[i]);
  }
  return (q_scale * r_scale) * static_cast<float>(sum);
}

// Fills one int8 vector: kind 0 is a quantized Gaussian, 1 all +127, 2 all
// -127, 3 alternating +-127 — the extremes a naive VPMADDUBSW saturates on.
float FillI8(std::size_t kind, std::size_t dim, Rng& rng, std::int8_t* out) {
  if (kind == 0) {
    Vector v(dim);
    for (auto& x : v) x = static_cast<float>(rng.Normal());
    return simd::QuantizeRowI8(v, out);
  }
  for (std::size_t i = 0; i < dim; ++i) {
    out[i] = kind == 1 ? 127 : kind == 2 ? -127 : (i % 2 == 0 ? 127 : -127);
  }
  return 0.5f + 0.125f * static_cast<float>(kind);
}

// int8 kernels accumulate the integer dot exactly, so every variant must
// return BIT-IDENTICAL floats, not merely close ones: dot_batch_i8 over a
// padded slab block and dot_rows_i8 over a reversed gather list, on every
// tail path, with +-127 extremes in rows and queries.
TEST(SimdKernels, I8KernelsBitIdenticalAcrossVariants) {
  Rng rng(29);
  for (const std::size_t dim : kI8Dims) {
    const std::size_t n = 23;  // not a multiple of the 4-row block
    const std::size_t stride = (dim + 63) / 64 * 64;  // slab i8 stride
    std::vector<std::int8_t> rows(n * stride);
    std::vector<float> scales(n);
    for (std::size_t i = 0; i < n; ++i) {
      scales[i] = FillI8(i < 4 ? i : 0, dim, rng, rows.data() + i * stride);
    }
    std::vector<const std::int8_t*> ptrs(n);
    std::vector<float> rev_scales(n);
    for (std::size_t i = 0; i < n; ++i) {
      ptrs[i] = rows.data() + (n - 1 - i) * stride;
      rev_scales[i] = scales[n - 1 - i];
    }
    for (std::size_t kind = 0; kind < 4; ++kind) {
      std::vector<std::int8_t> q8(dim);
      const float q_scale = FillI8(kind, dim, rng, q8.data());
      for (const auto v : simd::SupportedVariants()) {
        const auto& ks = simd::KernelsFor(v);
        std::vector<float> got_batch(n), got_rows(n);
        ks.dot_batch_i8(q8.data(), q_scale, rows.data(), scales.data(), n,
                        stride, dim, got_batch.data());
        ks.dot_rows_i8(q8.data(), q_scale, ptrs.data(), rev_scales.data(), n,
                       dim, got_rows.data());
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(got_batch[i], I8Reference(q8.data(), q_scale,
                                              rows.data() + i * stride,
                                              scales[i], dim))
              << simd::VariantName(v) << "/" << ks.i8_kernel
              << " dot_batch_i8 dim=" << dim << " query kind " << kind
              << " i=" << i;
          EXPECT_EQ(got_rows[i], I8Reference(q8.data(), q_scale, ptrs[i],
                                             rev_scales[i], dim))
              << simd::VariantName(v) << "/" << ks.i8_kernel
              << " dot_rows_i8 dim=" << dim << " query kind " << kind
              << " i=" << i;
        }
      }
    }
  }
}

// Each table names its int8 row-dot, and the avx512 table without AVX-512
// VNNI carries the AVX2 int8 entries rather than a kernel of its own.
TEST(SimdKernels, I8KernelNamedPerTable) {
  EXPECT_STREQ(simd::KernelsFor(simd::Variant::kScalar).i8_kernel, "scalar");
  if (simd::VariantSupported(simd::Variant::kAvx2)) {
    EXPECT_STREQ(simd::KernelsFor(simd::Variant::kAvx2).i8_kernel,
                 "maddubs");
  }
  if (simd::VariantSupported(simd::Variant::kAvx512)) {
    const auto& avx2 = simd::KernelsFor(simd::Variant::kAvx2);
    const auto& avx512 = simd::KernelsFor(simd::Variant::kAvx512);
    const std::string name = avx512.i8_kernel;
    EXPECT_TRUE(name == "vnni" || name == "maddubs") << name;
    const bool shares_avx2 = avx512.dot_batch_i8 == avx2.dot_batch_i8 &&
                             avx512.dot_rows_i8 == avx2.dot_rows_i8 &&
                             avx512.dot_rows_i8_mq == avx2.dot_rows_i8_mq;
    EXPECT_EQ(shares_avx2, name == "maddubs");
  }
}

TEST(SimdKernels, F16KernelsMatchScalarReference) {
  Rng rng(31);
  const auto& scalar = simd::KernelsFor(simd::Variant::kScalar);
  const auto variants = simd::SupportedVariants();
  for (const std::size_t dim : {std::size_t{7}, std::size_t{64},
                                std::size_t{129}, std::size_t{768}}) {
    const std::size_t n = 19;
    const std::size_t stride = (dim + 31) / 32 * 32;  // slab f16 stride
    std::vector<std::uint16_t> rows(n * stride);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < dim; ++j) {
        rows[i * stride + j] =
            simd::F32ToF16(static_cast<float>(rng.Normal()));
      }
    }
    Vector query(dim);
    for (auto& x : query) x = static_cast<float>(rng.Normal());
    std::vector<const std::uint16_t*> ptrs(n);
    for (std::size_t i = 0; i < n; ++i) ptrs[i] = rows.data() + i * stride;
    std::reverse(ptrs.begin(), ptrs.end());

    std::vector<float> ref_batch(n), ref_rows(n);
    scalar.dot_batch_f16(query.data(), rows.data(), n, stride, dim,
                         ref_batch.data());
    scalar.dot_rows_f16(query.data(), ptrs.data(), n, dim, ref_rows.data());
    for (const auto v : variants) {
      const auto& ks = simd::KernelsFor(v);
      std::vector<float> got_batch(n), got_rows(n);
      ks.dot_batch_f16(query.data(), rows.data(), n, stride, dim,
                       got_batch.data());
      ks.dot_rows_f16(query.data(), ptrs.data(), n, dim, got_rows.data());
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(got_batch[i], ref_batch[i],
                    1e-5 * (std::abs(ref_batch[i]) + 1.0))
            << simd::VariantName(v) << " dot_batch_f16 dim=" << dim
            << " i=" << i;
        EXPECT_NEAR(got_rows[i], ref_rows[i],
                    1e-5 * (std::abs(ref_rows[i]) + 1.0))
            << simd::VariantName(v) << " dot_rows_f16 dim=" << dim
            << " i=" << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// VectorSlab row formats.

TEST(VectorSlabFormats, EncodesDecodesAndReportsRowBytes) {
  Rng rng(37);
  const std::size_t dim = 70;
  Vector v(dim);
  for (auto& x : v) x = static_cast<float>(rng.Normal());
  Normalize(v);

  VectorSlab f32(dim, RowFormat::kF32);
  VectorSlab f16(dim, RowFormat::kF16);
  VectorSlab i8(dim, RowFormat::kI8);
  const auto r32 = f32.Add(v);
  const auto r16 = f16.Add(v);
  const auto r8 = i8.Add(v);

  Vector d(dim);
  f32.DecodeRow(r32, d);
  EXPECT_EQ(d, v);  // fp32 storage is lossless
  f16.DecodeRow(r16, d);
  for (std::size_t i = 0; i < dim; ++i) {
    EXPECT_NEAR(d[i], v[i], std::abs(v[i]) * 0x1p-11f + 1e-7f);
  }
  i8.DecodeRow(r8, d);
  const float scale = i8.RowScale(r8);
  for (std::size_t i = 0; i < dim; ++i) {
    EXPECT_NEAR(d[i], v[i], scale * 0.5f + 1e-7f);
  }

  // The scan-tier bandwidth win the bench reports: int8 rows must be at
  // least 3x smaller than fp32 (dim 70: 280 vs 70+4 bytes).
  EXPECT_EQ(f32.row_bytes(), dim * 4);
  EXPECT_EQ(f16.row_bytes(), dim * 2);
  EXPECT_EQ(i8.row_bytes(), dim + sizeof(float));
  EXPECT_GE(static_cast<double>(f32.row_bytes()) /
                static_cast<double>(i8.row_bytes()),
            3.0);

  // Rows stay 64-byte aligned in every format.
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(f16.RowF16(r16)) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(i8.RowI8(r8)) % 64, 0u);
}

TEST(VectorSlabFormats, FreeListReuseKeepsScalesPerSlot) {
  const std::size_t dim = 8;
  VectorSlab slab(dim, RowFormat::kI8);
  const Vector small(dim, 0.125f);
  const Vector big(dim, 100.0f);
  const auto r0 = slab.Add(small);
  const auto r1 = slab.Add(big);
  EXPECT_NE(slab.RowScale(r0), slab.RowScale(r1));
  slab.Free(r0);
  const auto r2 = slab.Add(big);  // reuses r0's slot
  EXPECT_EQ(r2, r0);
  EXPECT_FLOAT_EQ(slab.RowScale(r2), 100.0f / 127.0f);
  EXPECT_EQ(slab.size(), 2u);
}

// ---------------------------------------------------------------------------
// The two-phase rerank contract (DESIGN.md §13): a quantized scan feeding
// a pool into the fp32 scalar rerank must produce top-k ids AND exact
// similarities identical to a full-precision scan, for every compiled
// variant and every row format.  This is the property the serving tier's
// lock-free probe relies on.

TEST(QuantizedScanProperty, ScanPlusRerankMatchesF32TopKAcrossVariants) {
  Rng rng(41);
  const std::size_t dim = 96;
  const std::size_t n = 400;
  const std::size_t top_k = 6;
  const double tau = 0.55;
  const double slack = 0.02;

  // A query plus rows at graded distances from it, so similarities spread
  // across [0, 1] and several land near the tau boundary.
  Vector query(dim);
  for (auto& x : query) x = static_cast<float>(rng.Normal());
  Normalize(query);
  std::vector<Vector> rows(n);
  for (std::size_t i = 0; i < n; ++i) {
    const float sigma =
        0.05f + 2.0f * static_cast<float>(i) / static_cast<float>(n);
    Vector v(dim);
    for (std::size_t j = 0; j < dim; ++j) {
      v[j] = query[j] + sigma * static_cast<float>(rng.Normal());
    }
    Normalize(v);
    rows[i] = std::move(v);
  }

  // Reference: exact double-precision scan over every row.
  const auto& scalar = simd::KernelsFor(simd::Variant::kScalar);
  struct Ref {
    double sim;
    std::size_t id;
  };
  std::vector<Ref> ref;
  for (std::size_t i = 0; i < n; ++i) {
    const double sim = scalar.dot(query.data(), rows[i].data(), dim);
    if (sim >= tau) ref.push_back({sim, i});
  }
  std::sort(ref.begin(), ref.end(), [](const Ref& a, const Ref& b) {
    return a.sim != b.sim ? a.sim > b.sim : a.id < b.id;
  });
  if (ref.size() > top_k) ref.resize(top_k);
  ASSERT_GE(ref.size(), 3u) << "degenerate fixture: too few candidates";

  for (const auto variant : simd::SupportedVariants()) {
    ScopedVariant forced(variant);
    ASSERT_TRUE(forced.forced());
    for (const RowFormat format :
         {RowFormat::kF32, RowFormat::kF16, RowFormat::kI8}) {
      VectorSlab slab(dim, format);
      std::vector<std::uint32_t> slot(n);
      for (std::size_t i = 0; i < n; ++i) slot[i] = slab.Add(rows[i]);

      // Phase 1: scan in the slab's format via the gather kernels.
      std::vector<float> sims(n);
      switch (format) {
        case RowFormat::kF32: {
          std::vector<const float*> ptrs(n);
          for (std::size_t i = 0; i < n; ++i) ptrs[i] = slab.Row(slot[i]);
          simd::DotRows(query, ptrs.data(), n, sims.data());
          break;
        }
        case RowFormat::kF16: {
          std::vector<const std::uint16_t*> ptrs(n);
          for (std::size_t i = 0; i < n; ++i) ptrs[i] = slab.RowF16(slot[i]);
          simd::DotRowsF16(query, ptrs.data(), n, sims.data());
          break;
        }
        case RowFormat::kI8: {
          std::vector<const std::int8_t*> ptrs(n);
          std::vector<float> scales(n);
          for (std::size_t i = 0; i < n; ++i) {
            ptrs[i] = slab.RowI8(slot[i]);
            scales[i] = slab.RowScale(slot[i]);
          }
          std::vector<std::int8_t> q8(dim);
          const float q_scale = simd::QuantizeRowI8(query, q8.data());
          simd::DotRowsI8(q8.data(), q_scale, ptrs.data(), scales.data(), n,
                          dim, sims.data());
          break;
        }
      }

      // Pool selection at tau minus the quantization slack, then phase 2:
      // exact fp32 rerank (the serving tier's SnapshotScan/Validate
      // pipeline in miniature).
      const double floor = format == RowFormat::kF32 ? tau : tau - slack;
      std::vector<std::size_t> keep;
      for (std::size_t i = 0; i < n; ++i) {
        if (static_cast<double>(sims[i]) >= floor) keep.push_back(i);
      }
      const std::size_t pool =
          std::min(keep.size(), std::max<std::size_t>(4 * top_k, 32));
      std::partial_sort(keep.begin(),
                        keep.begin() + static_cast<std::ptrdiff_t>(pool),
                        keep.end(), [&](std::size_t a, std::size_t b) {
                          return sims[a] != sims[b] ? sims[a] > sims[b]
                                                    : a < b;
                        });
      keep.resize(pool);
      std::vector<Ref> got;
      for (const std::size_t i : keep) {
        const double sim = scalar.dot(query.data(), rows[i].data(), dim);
        if (sim >= tau) got.push_back({sim, i});
      }
      std::sort(got.begin(), got.end(), [](const Ref& a, const Ref& b) {
        return a.sim != b.sim ? a.sim > b.sim : a.id < b.id;
      });
      if (got.size() > top_k) got.resize(top_k);

      ASSERT_EQ(got.size(), ref.size())
          << simd::VariantName(variant) << "/" << RowFormatName(format);
      for (std::size_t i = 0; i < ref.size(); ++i) {
        EXPECT_EQ(got[i].id, ref[i].id)
            << simd::VariantName(variant) << "/" << RowFormatName(format)
            << " rank " << i;
        // Exact similarities, not merely close: the rerank reads fp32
        // originals with the scalar double kernel in both paths.
        EXPECT_EQ(got[i].sim, ref[i].sim)
            << simd::VariantName(variant) << "/" << RowFormatName(format)
            << " rank " << i;
      }
    }
  }
}

// The mq contract (simd_kernels.h): every score an mq kernel writes is
// BITWISE identical to the corresponding single-query kernel on the same
// variant — the batching pipeline's parity guarantee rests on this, so the
// comparisons below are EXPECT_EQ, never EXPECT_NEAR.

TEST(SimdKernels, MqKernelsBitIdenticalToSequentialPerVariant) {
  Rng rng(53);
  for (const std::size_t dim : {std::size_t{7}, std::size_t{96},
                                std::size_t{257}}) {
    const std::size_t n = 37;        // not a multiple of the 4-row block
    const std::size_t nq = 5;        // odd, exercises queries-inner tails
    const std::size_t stride = dim + 3;
    const std::size_t qstride = dim + 2;

    std::vector<float> rows(n * stride, -1.0f);
    std::vector<float> queries(nq * qstride, -1.0f);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < dim; ++j) {
        rows[i * stride + j] = static_cast<float>(rng.Normal());
      }
    }
    for (std::size_t q = 0; q < nq; ++q) {
      for (std::size_t j = 0; j < dim; ++j) {
        queries[q * qstride + j] = static_cast<float>(rng.Normal());
      }
    }

    // Scattered-row views in reversed order so the gather kernels cannot
    // shortcut to the contiguous path.
    std::vector<const float*> ptrs(n);
    for (std::size_t i = 0; i < n; ++i) {
      ptrs[i] = rows.data() + (n - 1 - i) * stride;
    }

    // int8 rows + per-row scales, and per-query quantizations.
    std::vector<std::int8_t> rows_i8(n * dim);
    std::vector<float> row_scales(n);
    for (std::size_t i = 0; i < n; ++i) {
      row_scales[i] = simd::QuantizeRowI8(
          std::span<const float>(rows.data() + i * stride, dim),
          rows_i8.data() + i * dim);
    }
    std::vector<const std::int8_t*> ptrs_i8(n);
    std::vector<float> scales_scattered(n);
    for (std::size_t i = 0; i < n; ++i) {
      ptrs_i8[i] = rows_i8.data() + (n - 1 - i) * dim;
      scales_scattered[i] = row_scales[n - 1 - i];
    }
    const std::size_t qstride_i8 = dim + 5;
    std::vector<std::int8_t> queries_i8(nq * qstride_i8, 0);
    std::vector<float> query_scales(nq);
    for (std::size_t q = 0; q < nq; ++q) {
      query_scales[q] = simd::QuantizeRowI8(
          std::span<const float>(queries.data() + q * qstride, dim),
          queries_i8.data() + q * qstride_i8);
    }

    // fp16 rows, scattered like the fp32 gather path.
    std::vector<std::uint16_t> rows_f16(n * dim);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < dim; ++j) {
        rows_f16[i * dim + j] = simd::F32ToF16(rows[i * stride + j]);
      }
    }
    std::vector<const std::uint16_t*> ptrs_f16(n);
    for (std::size_t i = 0; i < n; ++i) {
      ptrs_f16[i] = rows_f16.data() + (n - 1 - i) * dim;
    }

    std::vector<float> mq(nq * n), seq(n);
    for (const auto variant : simd::SupportedVariants()) {
      const auto& ks = simd::KernelsFor(variant);

      ks.dot_batch_mq(queries.data(), nq, qstride, rows.data(), n, stride,
                      dim, mq.data());
      for (std::size_t q = 0; q < nq; ++q) {
        ks.dot_batch(queries.data() + q * qstride, rows.data(), n, stride,
                     dim, seq.data());
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(mq[q * n + i], seq[i])
              << simd::VariantName(variant) << "/dot_batch_mq dim " << dim
              << " query " << q << " row " << i;
        }
      }

      ks.l2sq_batch_mq(queries.data(), nq, qstride, rows.data(), n, stride,
                       dim, mq.data());
      for (std::size_t q = 0; q < nq; ++q) {
        ks.l2sq_batch(queries.data() + q * qstride, rows.data(), n, stride,
                      dim, seq.data());
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(mq[q * n + i], seq[i])
              << simd::VariantName(variant) << "/l2sq_batch_mq dim " << dim
              << " query " << q << " row " << i;
        }
      }

      ks.dot_rows_mq(queries.data(), nq, qstride, ptrs.data(), n, dim,
                     mq.data());
      for (std::size_t q = 0; q < nq; ++q) {
        ks.dot_rows(queries.data() + q * qstride, ptrs.data(), n, dim,
                    seq.data());
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(mq[q * n + i], seq[i])
              << simd::VariantName(variant) << "/dot_rows_mq dim " << dim
              << " query " << q << " row " << i;
        }
      }

      ks.dot_rows_i8_mq(queries_i8.data(), query_scales.data(), nq,
                        qstride_i8, ptrs_i8.data(), scales_scattered.data(),
                        n, dim, mq.data());
      for (std::size_t q = 0; q < nq; ++q) {
        ks.dot_rows_i8(queries_i8.data() + q * qstride_i8, query_scales[q],
                       ptrs_i8.data(), scales_scattered.data(), n, dim,
                       seq.data());
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(mq[q * n + i], seq[i])
              << simd::VariantName(variant) << "/dot_rows_i8_mq dim " << dim
              << " query " << q << " row " << i;
        }
      }

      ks.dot_rows_f16_mq(queries.data(), nq, qstride, ptrs_f16.data(), n,
                         dim, mq.data());
      for (std::size_t q = 0; q < nq; ++q) {
        ks.dot_rows_f16(queries.data() + q * qstride, ptrs_f16.data(), n,
                        dim, seq.data());
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(mq[q * n + i], seq[i])
              << simd::VariantName(variant) << "/dot_rows_f16_mq dim "
              << dim << " query " << q << " row " << i;
        }
      }
    }
  }
}

// int8 mq scores must additionally be bit-identical ACROSS variants (the
// integer dot is exact), mirroring I8KernelsBitIdenticalAcrossVariants:
// every tail dim, nq 1..16 (the pipeline's batch sizes) and 37 (wider than
// the kernels' 16-query chunk) at an odd query stride, row counts that
// leave a short last block, unaligned row pointers and +-127 extremes.
TEST(SimdKernels, I8MqKernelsBitIdenticalAcrossVariants) {
  Rng rng(59);
  constexpr std::size_t kMaxQueries = 37;
  for (const std::size_t dim : kI8Dims) {
    const std::size_t n = 23;
    const std::size_t qstride = dim + 3;  // odd: unaligned query starts
    // Rows sit one byte past a 64-byte boundary, queries at qstride.
    std::vector<std::int8_t> rows(n * dim + 1);
    std::vector<float> row_scales(n);
    for (std::size_t i = 0; i < n; ++i) {
      row_scales[i] = FillI8(i % 4, dim, rng, rows.data() + 1 + i * dim);
    }
    std::vector<std::int8_t> queries(kMaxQueries * qstride);
    std::vector<float> query_scales(kMaxQueries);
    for (std::size_t q = 0; q < kMaxQueries; ++q) {
      query_scales[q] =
          FillI8((q + 1) % 4, dim, rng, queries.data() + q * qstride);
    }
    std::vector<const std::int8_t*> ptrs(n);
    for (std::size_t i = 0; i < n; ++i) {
      ptrs[i] = rows.data() + 1 + ((i * 7) % n) * dim;  // scattered order
    }
    std::vector<float> scattered_scales(n);
    for (std::size_t i = 0; i < n; ++i) {
      scattered_scales[i] = row_scales[(i * 7) % n];
    }
    for (const std::size_t rows_used : {std::size_t{1}, std::size_t{3},
                                        std::size_t{6}, n}) {
      for (std::size_t nq = 1; nq <= kMaxQueries; nq += nq < 16 ? 1 : 21) {
        for (const auto variant : simd::SupportedVariants()) {
          const auto& ks = simd::KernelsFor(variant);
          std::vector<float> got(nq * rows_used);
          ks.dot_rows_i8_mq(queries.data(), query_scales.data(), nq, qstride,
                            ptrs.data(), scattered_scales.data(), rows_used,
                            dim, got.data());
          for (std::size_t q = 0; q < nq; ++q) {
            for (std::size_t i = 0; i < rows_used; ++i) {
              ASSERT_EQ(got[q * rows_used + i],
                        I8Reference(queries.data() + q * qstride,
                                    query_scales[q], ptrs[i],
                                    scattered_scales[i], dim))
                  << simd::VariantName(variant) << "/" << ks.i8_kernel
                  << " dim " << dim << " n " << rows_used << " nq " << nq
                  << " query " << q << " row " << i;
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace cortex
