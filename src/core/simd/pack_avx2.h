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
  // Eight 128-bit record loads, paired as qk = {record k | record k+4},
  // then an in-lane 4x4 transpose: unpack the floats, then the float pairs.
  static void load_xyz(const float* records, const std::uint32_t* idx,
                       Pack& x, Pack& y, Pack& z) {
    // Written out, not looped: a loop over a __m256 array can stay rolled
    // and spill the array to the stack.
    const auto rec = [&](int l) {
      return _mm_loadu_ps(record_of(records, idx[l]));
    };
    const auto pair = [&](int k) {
      return _mm256_insertf128_ps(_mm256_castps128_ps256(rec(k)), rec(k + 4),
                                  1);
    };
    const __m256 q0 = pair(0), q1 = pair(1), q2 = pair(2), q3 = pair(3);
    const __m256d xy01 = _mm256_castps_pd(_mm256_unpacklo_ps(q0, q1));
    const __m256d zw01 = _mm256_castps_pd(_mm256_unpackhi_ps(q0, q1));
    const __m256d xy23 = _mm256_castps_pd(_mm256_unpacklo_ps(q2, q3));
    const __m256d zw23 = _mm256_castps_pd(_mm256_unpackhi_ps(q2, q3));
    x = {_mm256_castpd_ps(_mm256_unpacklo_pd(xy01, xy23))};
    y = {_mm256_castpd_ps(_mm256_unpackhi_pd(xy01, xy23))};
    z = {_mm256_castpd_ps(_mm256_unpacklo_pd(zw01, zw23))};
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
  // A 4x4 transpose from 128-bit halves: lok = {x, y} and hik = {z, pad}
  // of records k | k+2, so one in-lane unpack per axis finishes it.
  static void load_xyz(const double* records, const std::uint32_t* idx,
                       Pack& x, Pack& y, Pack& z) {
    const auto half = [&](int k, int field) {
      return _mm256_insertf128_pd(
          _mm256_castpd128_pd256(
              _mm_loadu_pd(record_of(records, idx[k]) + field)),
          _mm_loadu_pd(record_of(records, idx[k + 2]) + field), 1);
    };
    const __m256d lo0 = half(0, 0), lo1 = half(1, 0);
    const __m256d hi0 = half(0, 2), hi1 = half(1, 2);
    x = {_mm256_unpacklo_pd(lo0, lo1)};
    y = {_mm256_unpackhi_pd(lo0, lo1)};
    z = {_mm256_unpacklo_pd(hi0, hi1)};
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
