// SSE2 Pack specialisations: 4-wide float / 2-wide double (the x86-64
// baseline).  Compiled away entirely when the translation unit was not
// built with -msse2 (or an -march implying it).
#pragma once

#include "core/simd/pack_fwd.h"

#if defined(__SSE2__)

#include <immintrin.h>

#include <cstddef>
#include <cstdint>

namespace emdpa::simd {

template <>
struct Pack<float, SimdType::kSse2> {
  static constexpr std::size_t kWidth = 4;
  using Mask = __m128;
  __m128 v;

  static Pack load(const float* p) { return {_mm_load_ps(p)}; }
  static Pack loadu(const float* p) { return {_mm_loadu_ps(p)}; }
  // Field loads: each lane set from its record's scalar field.
  static void load_xyz(const float* records, const std::uint32_t* idx,
                       Pack& x, Pack& y, Pack& z) {
    const float* r0 = record_of(records, idx[0]);
    const float* r1 = record_of(records, idx[1]);
    const float* r2 = record_of(records, idx[2]);
    const float* r3 = record_of(records, idx[3]);
    x = {_mm_set_ps(r3[0], r2[0], r1[0], r0[0])};
    y = {_mm_set_ps(r3[1], r2[1], r1[1], r0[1])};
    z = {_mm_set_ps(r3[2], r2[2], r1[2], r0[2])};
  }
  static Pack broadcast(float s) { return {_mm_set1_ps(s)}; }
  static Pack zero() { return {_mm_setzero_ps()}; }
  void store(float* p) const { _mm_store_ps(p, v); }

  friend Pack operator+(Pack a, Pack b) { return {_mm_add_ps(a.v, b.v)}; }
  friend Pack operator-(Pack a, Pack b) { return {_mm_sub_ps(a.v, b.v)}; }
  friend Pack operator*(Pack a, Pack b) { return {_mm_mul_ps(a.v, b.v)}; }
  friend Pack operator/(Pack a, Pack b) { return {_mm_div_ps(a.v, b.v)}; }
  friend Pack abs(Pack a) {
    return {_mm_andnot_ps(_mm_set1_ps(-0.0f), a.v)};
  }
  // Lane-wise a > b ? a : b and a < b ? a : b — the x86 max/min rule
  // (the second operand on ties and unordered lanes), as in the scalar pack.
  friend Pack max(Pack a, Pack b) { return {_mm_max_ps(a.v, b.v)}; }
  friend Pack min(Pack a, Pack b) { return {_mm_min_ps(a.v, b.v)}; }
  friend Pack copysign(Pack mag, Pack sgn) {
    const __m128 sign_bit = _mm_set1_ps(-0.0f);
    return {_mm_or_ps(_mm_and_ps(sign_bit, sgn.v),
                      _mm_andnot_ps(sign_bit, mag.v))};
  }
  friend Mask cmp_lt(Pack a, Pack b) { return _mm_cmplt_ps(a.v, b.v); }
  friend Mask cmp_gt(Pack a, Pack b) { return _mm_cmpgt_ps(a.v, b.v); }
  friend Mask cmp_ge(Pack a, Pack b) { return _mm_cmpge_ps(a.v, b.v); }
  static Mask mask_and(Mask a, Mask b) { return _mm_and_ps(a, b); }
  friend Pack select(Mask m, Pack a, Pack b) {
    return {_mm_or_ps(_mm_and_ps(m, a.v), _mm_andnot_ps(m, b.v))};
  }
  static unsigned mask_bits(Mask m) {
    return static_cast<unsigned>(_mm_movemask_ps(m));
  }
  friend float reduce_add(Pack a) {
    alignas(16) float lanes[kWidth];
    _mm_store_ps(lanes, a.v);
    return ((lanes[0] + lanes[1]) + lanes[2]) + lanes[3];
  }
};

template <>
struct Pack<double, SimdType::kSse2> {
  static constexpr std::size_t kWidth = 2;
  using Mask = __m128d;
  __m128d v;

  static Pack load(const double* p) { return {_mm_load_pd(p)}; }
  static Pack loadu(const double* p) { return {_mm_loadu_pd(p)}; }
  static void load_xyz(const double* records, const std::uint32_t* idx,
                       Pack& x, Pack& y, Pack& z) {
    const double* r0 = record_of(records, idx[0]);
    const double* r1 = record_of(records, idx[1]);
    x = {_mm_set_pd(r1[0], r0[0])};
    y = {_mm_set_pd(r1[1], r0[1])};
    z = {_mm_set_pd(r1[2], r0[2])};
  }
  static Pack broadcast(double s) { return {_mm_set1_pd(s)}; }
  static Pack zero() { return {_mm_setzero_pd()}; }
  void store(double* p) const { _mm_store_pd(p, v); }

  friend Pack operator+(Pack a, Pack b) { return {_mm_add_pd(a.v, b.v)}; }
  friend Pack operator-(Pack a, Pack b) { return {_mm_sub_pd(a.v, b.v)}; }
  friend Pack operator*(Pack a, Pack b) { return {_mm_mul_pd(a.v, b.v)}; }
  friend Pack operator/(Pack a, Pack b) { return {_mm_div_pd(a.v, b.v)}; }
  friend Pack abs(Pack a) {
    return {_mm_andnot_pd(_mm_set1_pd(-0.0), a.v)};
  }
  // Lane-wise a > b ? a : b and a < b ? a : b — the x86 max/min rule
  // (the second operand on ties and unordered lanes), as in the scalar pack.
  friend Pack max(Pack a, Pack b) { return {_mm_max_pd(a.v, b.v)}; }
  friend Pack min(Pack a, Pack b) { return {_mm_min_pd(a.v, b.v)}; }
  friend Pack copysign(Pack mag, Pack sgn) {
    const __m128d sign_bit = _mm_set1_pd(-0.0);
    return {_mm_or_pd(_mm_and_pd(sign_bit, sgn.v),
                      _mm_andnot_pd(sign_bit, mag.v))};
  }
  friend Mask cmp_lt(Pack a, Pack b) { return _mm_cmplt_pd(a.v, b.v); }
  friend Mask cmp_gt(Pack a, Pack b) { return _mm_cmpgt_pd(a.v, b.v); }
  friend Mask cmp_ge(Pack a, Pack b) { return _mm_cmpge_pd(a.v, b.v); }
  static Mask mask_and(Mask a, Mask b) { return _mm_and_pd(a, b); }
  friend Pack select(Mask m, Pack a, Pack b) {
    return {_mm_or_pd(_mm_and_pd(m, a.v), _mm_andnot_pd(m, b.v))};
  }
  static unsigned mask_bits(Mask m) {
    return static_cast<unsigned>(_mm_movemask_pd(m));
  }
  friend double reduce_add(Pack a) {
    alignas(16) double lanes[kWidth];
    _mm_store_pd(lanes, a.v);
    return lanes[0] + lanes[1];
  }
};

}  // namespace emdpa::simd

#endif  // __SSE2__
