// AVX-512 Pack specialisations: 16-wide float / 8-wide double, using only
// AVX-512F (Foundation) instructions so the runtime requirement is the
// single "avx512f" CPUID bit.  Compiled away entirely when the translation
// unit was not built with -mavx512f.
//
// Differences from the narrower packs, forced by the ISA:
//  * Masks are k-register lane masks (__mmask8/__mmask16), not vector
//    registers; select() is a mask blend, which agrees with the bitwise
//    blend of the narrower packs because cmp_* masks are all-or-nothing per
//    lane.
//  * abs/copysign go through the 512-bit integer domain (no andnot_ps in
//    AVX-512F) — bit-identical to the andnot/or idiom of SSE2/AVX2.
//  * reduce_add stores the lanes and sums them SEQUENTIALLY, matching the
//    lane-order reduction of the other packs; _mm512_reduce_add_pd would be
//    a tree reduction with a different rounding trace.
#pragma once

#include "core/simd/pack_fwd.h"

#if defined(__AVX512F__)

#include <immintrin.h>

#include <bit>
#include <cstddef>
#include <cstdint>

namespace emdpa::simd {

namespace detail {
/// vpcompressd the 32-bit indices idx[l] of the lanes set in `bits` (lanes
/// below kLanes, 8 or 16) into out[0..popcount), in lane order; returns the
/// new end of out.  The masked load never touches an unselected lane, so
/// idx needs no slack; the store writes all kLanes lanes whatever `bits`
/// is, so out needs room for kLanes entries (those past the kept ones are
/// zero).  The compress goes to a register: memory-destination vpcompressd
/// is microcoded on several cores.
template <int kLanes>
inline std::uint32_t* compress_indices(std::uint32_t* out,
                                       const std::uint32_t* idx,
                                       unsigned bits) {
  const auto keep = static_cast<__mmask16>(bits);
  static_assert(kLanes == 8 || kLanes == 16);
  constexpr auto kAll = static_cast<__mmask16>((1u << kLanes) - 1u);
  _mm512_mask_storeu_epi32(
      out, kAll,
      _mm512_maskz_compress_epi32(keep, _mm512_maskz_loadu_epi32(keep, idx)));
  return out + std::popcount(bits);
}
}  // namespace detail

template <>
struct Pack<float, SimdType::kAvx512> {
  static constexpr std::size_t kWidth = 16;
  using Mask = __mmask16;
  __m512 v;

  static Pack load(const float* p) { return {_mm512_load_ps(p)}; }
  static Pack loadu(const float* p) { return {_mm512_loadu_ps(p)}; }
  // Sixteen 128-bit record loads, grouped as qk = {records k, k+4, k+8,
  // k+12}, then the AVX2 pack's in-lane 4x4 transpose on all four lanes.
  static void load_xyz(const float* records, const std::uint32_t* idx,
                       Pack& x, Pack& y, Pack& z) {
    // Written out, not looped: a loop over a __m512 array can stay rolled
    // and spill the array to the stack.
    const auto rec = [&](int l) {
      return _mm_loadu_ps(record_of(records, idx[l]));
    };
    const auto quad = [&](int k) {
      __m512 v = _mm512_castps128_ps512(rec(k));
      v = _mm512_insertf32x4(v, rec(k + 4), 1);
      v = _mm512_insertf32x4(v, rec(k + 8), 2);
      return _mm512_insertf32x4(v, rec(k + 12), 3);
    };
    const __m512 q0 = quad(0), q1 = quad(1), q2 = quad(2), q3 = quad(3);
    const __m512d xy01 = _mm512_castps_pd(_mm512_unpacklo_ps(q0, q1));
    const __m512d zw01 = _mm512_castps_pd(_mm512_unpackhi_ps(q0, q1));
    const __m512d xy23 = _mm512_castps_pd(_mm512_unpacklo_ps(q2, q3));
    const __m512d zw23 = _mm512_castps_pd(_mm512_unpackhi_ps(q2, q3));
    x = {_mm512_castpd_ps(_mm512_unpacklo_pd(xy01, xy23))};
    y = {_mm512_castpd_ps(_mm512_unpackhi_pd(xy01, xy23))};
    z = {_mm512_castpd_ps(_mm512_unpacklo_pd(zw01, zw23))};
  }
  static Pack broadcast(float s) { return {_mm512_set1_ps(s)}; }
  static Pack zero() { return {_mm512_setzero_ps()}; }
  void store(float* p) const { _mm512_store_ps(p, v); }

  friend Pack operator+(Pack a, Pack b) { return {_mm512_add_ps(a.v, b.v)}; }
  friend Pack operator-(Pack a, Pack b) { return {_mm512_sub_ps(a.v, b.v)}; }
  friend Pack operator*(Pack a, Pack b) { return {_mm512_mul_ps(a.v, b.v)}; }
  friend Pack operator/(Pack a, Pack b) { return {_mm512_div_ps(a.v, b.v)}; }
  friend Pack abs(Pack a) {
    const __m512i mag = _mm512_set1_epi32(0x7fffffff);
    return {_mm512_castsi512_ps(
        _mm512_and_epi32(_mm512_castps_si512(a.v), mag))};
  }
  // Lane-wise a > b ? a : b and a < b ? a : b — the x86 max/min rule
  // (the second operand on ties and unordered lanes), as in the scalar pack.
  friend Pack max(Pack a, Pack b) { return {_mm512_max_ps(a.v, b.v)}; }
  friend Pack min(Pack a, Pack b) { return {_mm512_min_ps(a.v, b.v)}; }
  friend Pack copysign(Pack mag, Pack sgn) {
    const __m512i sign_bit = _mm512_set1_epi32(INT32_MIN);
    return {_mm512_castsi512_ps(_mm512_or_epi32(
        _mm512_and_epi32(_mm512_castps_si512(sgn.v), sign_bit),
        _mm512_andnot_epi32(sign_bit, _mm512_castps_si512(mag.v))))};
  }
  friend Mask cmp_lt(Pack a, Pack b) {
    return _mm512_cmp_ps_mask(a.v, b.v, _CMP_LT_OQ);
  }
  friend Mask cmp_gt(Pack a, Pack b) {
    return _mm512_cmp_ps_mask(a.v, b.v, _CMP_GT_OQ);
  }
  friend Mask cmp_ge(Pack a, Pack b) {
    return _mm512_cmp_ps_mask(a.v, b.v, _CMP_GE_OQ);
  }
  static Mask mask_and(Mask a, Mask b) { return static_cast<Mask>(a & b); }
  friend Pack select(Mask m, Pack a, Pack b) {
    return {_mm512_mask_blend_ps(m, b.v, a.v)};
  }
  static unsigned mask_bits(Mask m) { return static_cast<unsigned>(m); }
  // Kept-lane index store for the list fill (md/kernel_rows.h ListFill):
  // writes 16 slots.
  static std::uint32_t* compress_indices(std::uint32_t* out,
                                         const std::uint32_t* idx,
                                         unsigned bits) {
    return detail::compress_indices<16>(out, idx, bits);
  }
  friend float reduce_add(Pack a) {
    alignas(64) float lanes[kWidth];
    _mm512_store_ps(lanes, a.v);
    float acc = lanes[0];
    for (std::size_t i = 1; i < kWidth; ++i) acc += lanes[i];
    return acc;
  }
};

template <>
struct Pack<double, SimdType::kAvx512> {
  static constexpr std::size_t kWidth = 8;
  using Mask = __mmask8;
  __m512d v;

  static Pack load(const double* p) { return {_mm512_load_pd(p)}; }
  static Pack loadu(const double* p) { return {_mm512_loadu_pd(p)}; }
  // Eight 256-bit record loads, paired as rk = {record 2k | record 2k+1};
  // unpacking r0/r1 and r2/r3 leaves x0 x2 z0 z2 x1 x3 z1 z3 (and the
  // y/pad twin, and the same for records 4-7), which one two-source
  // permute per axis puts in lane order.
  static void load_xyz(const double* records, const std::uint32_t* idx,
                       Pack& x, Pack& y, Pack& z) {
    const auto rec = [&](int l) {
      return _mm256_loadu_pd(record_of(records, idx[l]));
    };
    const auto pair = [&](int k) {
      return _mm512_insertf64x4(_mm512_castpd256_pd512(rec(2 * k)),
                                rec(2 * k + 1), 1);
    };
    const __m512d r0 = pair(0), r1 = pair(1), r2 = pair(2), r3 = pair(3);
    const __m512d xz03 = _mm512_unpacklo_pd(r0, r1);
    const __m512d yw03 = _mm512_unpackhi_pd(r0, r1);
    const __m512d xz47 = _mm512_unpacklo_pd(r2, r3);
    const __m512d yw47 = _mm512_unpackhi_pd(r2, r3);
    const __m512i xy_lanes = _mm512_set_epi64(13, 9, 12, 8, 5, 1, 4, 0);
    const __m512i z_lanes = _mm512_set_epi64(15, 11, 14, 10, 7, 3, 6, 2);
    x = {_mm512_permutex2var_pd(xz03, xy_lanes, xz47)};
    y = {_mm512_permutex2var_pd(yw03, xy_lanes, yw47)};
    z = {_mm512_permutex2var_pd(xz03, z_lanes, xz47)};
  }
  static Pack broadcast(double s) { return {_mm512_set1_pd(s)}; }
  static Pack zero() { return {_mm512_setzero_pd()}; }
  void store(double* p) const { _mm512_store_pd(p, v); }

  friend Pack operator+(Pack a, Pack b) { return {_mm512_add_pd(a.v, b.v)}; }
  friend Pack operator-(Pack a, Pack b) { return {_mm512_sub_pd(a.v, b.v)}; }
  friend Pack operator*(Pack a, Pack b) { return {_mm512_mul_pd(a.v, b.v)}; }
  friend Pack operator/(Pack a, Pack b) { return {_mm512_div_pd(a.v, b.v)}; }
  friend Pack abs(Pack a) {
    const __m512i mag = _mm512_set1_epi64(0x7fffffffffffffffLL);
    return {_mm512_castsi512_pd(
        _mm512_and_epi64(_mm512_castpd_si512(a.v), mag))};
  }
  // Lane-wise a > b ? a : b and a < b ? a : b — the x86 max/min rule
  // (the second operand on ties and unordered lanes), as in the scalar pack.
  friend Pack max(Pack a, Pack b) { return {_mm512_max_pd(a.v, b.v)}; }
  friend Pack min(Pack a, Pack b) { return {_mm512_min_pd(a.v, b.v)}; }
  friend Pack copysign(Pack mag, Pack sgn) {
    const __m512i sign_bit = _mm512_set1_epi64(INT64_MIN);
    return {_mm512_castsi512_pd(_mm512_or_epi64(
        _mm512_and_epi64(_mm512_castpd_si512(sgn.v), sign_bit),
        _mm512_andnot_epi64(sign_bit, _mm512_castpd_si512(mag.v))))};
  }
  friend Mask cmp_lt(Pack a, Pack b) {
    return _mm512_cmp_pd_mask(a.v, b.v, _CMP_LT_OQ);
  }
  friend Mask cmp_gt(Pack a, Pack b) {
    return _mm512_cmp_pd_mask(a.v, b.v, _CMP_GT_OQ);
  }
  friend Mask cmp_ge(Pack a, Pack b) {
    return _mm512_cmp_pd_mask(a.v, b.v, _CMP_GE_OQ);
  }
  static Mask mask_and(Mask a, Mask b) { return static_cast<Mask>(a & b); }
  friend Pack select(Mask m, Pack a, Pack b) {
    return {_mm512_mask_blend_pd(m, b.v, a.v)};
  }
  static unsigned mask_bits(Mask m) { return static_cast<unsigned>(m); }
  // Kept-lane index store for the list fill (md/kernel_rows.h ListFill):
  // writes 8 slots.
  static std::uint32_t* compress_indices(std::uint32_t* out,
                                         const std::uint32_t* idx,
                                         unsigned bits) {
    return detail::compress_indices<8>(out, idx, bits);
  }
  friend double reduce_add(Pack a) {
    alignas(64) double lanes[kWidth];
    _mm512_store_pd(lanes, a.v);
    double acc = lanes[0];
    for (std::size_t i = 1; i < kWidth; ++i) acc += lanes[i];
    return acc;
  }
};

}  // namespace emdpa::simd

#endif  // __AVX512F__
