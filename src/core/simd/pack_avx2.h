// AVX2 Pack specialisations: 8-wide float / 4-wide double.  Compiled away
// entirely when the translation unit was not built with -mavx2.
#pragma once

#include "core/simd/pack_fwd.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <cstddef>
#include <cstdint>

namespace emdpa::simd {

template <>
struct Pack<float, SimdType::kAvx2> {
  static constexpr std::size_t kWidth = 8;
  using Mask = __m256;
  __m256 v;

  static Pack load(const float* p) { return {_mm256_load_ps(p)}; }
  static Pack loadu(const float* p) { return {_mm256_loadu_ps(p)}; }
  // Hardware vgatherdps: eight 32-bit indices, scale 4.  Same lane values
  // as eight scalar loads, so downstream arithmetic is bitwise unchanged.
  static Pack gather(const float* base, const std::uint32_t* idx) {
    const __m256i vidx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx));
    return {_mm256_i32gather_ps(base, vidx, 4)};
  }
  static Pack broadcast(float s) { return {_mm256_set1_ps(s)}; }
  static Pack zero() { return {_mm256_setzero_ps()}; }
  void store(float* p) const { _mm256_store_ps(p, v); }

  friend Pack operator+(Pack a, Pack b) { return {_mm256_add_ps(a.v, b.v)}; }
  friend Pack operator-(Pack a, Pack b) { return {_mm256_sub_ps(a.v, b.v)}; }
  friend Pack operator*(Pack a, Pack b) { return {_mm256_mul_ps(a.v, b.v)}; }
  friend Pack operator/(Pack a, Pack b) { return {_mm256_div_ps(a.v, b.v)}; }
  friend Pack abs(Pack a) {
    return {_mm256_andnot_ps(_mm256_set1_ps(-0.0f), a.v)};
  }
  // Lane-wise a > b ? a : b and a < b ? a : b — the x86 max/min rule
  // (the second operand on ties and unordered lanes), as in the scalar pack.
  friend Pack max(Pack a, Pack b) { return {_mm256_max_ps(a.v, b.v)}; }
  friend Pack min(Pack a, Pack b) { return {_mm256_min_ps(a.v, b.v)}; }
  friend Pack copysign(Pack mag, Pack sgn) {
    const __m256 sign_bit = _mm256_set1_ps(-0.0f);
    return {_mm256_or_ps(_mm256_and_ps(sign_bit, sgn.v),
                         _mm256_andnot_ps(sign_bit, mag.v))};
  }
  friend Mask cmp_lt(Pack a, Pack b) {
    return _mm256_cmp_ps(a.v, b.v, _CMP_LT_OQ);
  }
  friend Mask cmp_gt(Pack a, Pack b) {
    return _mm256_cmp_ps(a.v, b.v, _CMP_GT_OQ);
  }
  friend Mask cmp_ge(Pack a, Pack b) {
    return _mm256_cmp_ps(a.v, b.v, _CMP_GE_OQ);
  }
  static Mask mask_and(Mask a, Mask b) { return _mm256_and_ps(a, b); }
  friend Pack select(Mask m, Pack a, Pack b) {
    return {_mm256_blendv_ps(b.v, a.v, m)};
  }
  static unsigned mask_bits(Mask m) {
    return static_cast<unsigned>(_mm256_movemask_ps(m));
  }
  friend float reduce_add(Pack a) {
    alignas(32) float lanes[kWidth];
    _mm256_store_ps(lanes, a.v);
    float acc = lanes[0];
    for (std::size_t i = 1; i < kWidth; ++i) acc += lanes[i];
    return acc;
  }
};

template <>
struct Pack<double, SimdType::kAvx2> {
  static constexpr std::size_t kWidth = 4;
  using Mask = __m256d;
  __m256d v;

  static Pack load(const double* p) { return {_mm256_load_pd(p)}; }
  static Pack loadu(const double* p) { return {_mm256_loadu_pd(p)}; }
  // Hardware vgatherdpd: four 32-bit indices, scale 8.
  static Pack gather(const double* base, const std::uint32_t* idx) {
    const __m128i vidx =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx));
    return {_mm256_i32gather_pd(base, vidx, 8)};
  }
  static Pack broadcast(double s) { return {_mm256_set1_pd(s)}; }
  static Pack zero() { return {_mm256_setzero_pd()}; }
  void store(double* p) const { _mm256_store_pd(p, v); }

  friend Pack operator+(Pack a, Pack b) { return {_mm256_add_pd(a.v, b.v)}; }
  friend Pack operator-(Pack a, Pack b) { return {_mm256_sub_pd(a.v, b.v)}; }
  friend Pack operator*(Pack a, Pack b) { return {_mm256_mul_pd(a.v, b.v)}; }
  friend Pack operator/(Pack a, Pack b) { return {_mm256_div_pd(a.v, b.v)}; }
  friend Pack abs(Pack a) {
    return {_mm256_andnot_pd(_mm256_set1_pd(-0.0), a.v)};
  }
  // Lane-wise a > b ? a : b and a < b ? a : b — the x86 max/min rule
  // (the second operand on ties and unordered lanes), as in the scalar pack.
  friend Pack max(Pack a, Pack b) { return {_mm256_max_pd(a.v, b.v)}; }
  friend Pack min(Pack a, Pack b) { return {_mm256_min_pd(a.v, b.v)}; }
  friend Pack copysign(Pack mag, Pack sgn) {
    const __m256d sign_bit = _mm256_set1_pd(-0.0);
    return {_mm256_or_pd(_mm256_and_pd(sign_bit, sgn.v),
                         _mm256_andnot_pd(sign_bit, mag.v))};
  }
  friend Mask cmp_lt(Pack a, Pack b) {
    return _mm256_cmp_pd(a.v, b.v, _CMP_LT_OQ);
  }
  friend Mask cmp_gt(Pack a, Pack b) {
    return _mm256_cmp_pd(a.v, b.v, _CMP_GT_OQ);
  }
  friend Mask cmp_ge(Pack a, Pack b) {
    return _mm256_cmp_pd(a.v, b.v, _CMP_GE_OQ);
  }
  static Mask mask_and(Mask a, Mask b) { return _mm256_and_pd(a, b); }
  friend Pack select(Mask m, Pack a, Pack b) {
    return {_mm256_blendv_pd(b.v, a.v, m)};
  }
  static unsigned mask_bits(Mask m) {
    return static_cast<unsigned>(_mm256_movemask_pd(m));
  }
  friend double reduce_add(Pack a) {
    alignas(32) double lanes[kWidth];
    _mm256_store_pd(lanes, a.v);
    return ((lanes[0] + lanes[1]) + lanes[2]) + lanes[3];
  }
};

}  // namespace emdpa::simd

#endif  // __AVX2__
