// Scalar Pack fallback: one lane, plain arithmetic.  Always valid, on any
// target, so code written against Pack<Real, S> compiles everywhere.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "core/simd/pack_fwd.h"

namespace emdpa::simd {

template <typename Real>
struct Pack<Real, SimdType::kScalar> {
  static constexpr std::size_t kWidth = 1;
  using Mask = bool;
  Real v;

  static Pack load(const Real* p) { return {*p}; }
  static Pack loadu(const Real* p) { return {*p}; }
  static void load_xyz(const Real* records, const std::uint32_t* idx, Pack& x,
                       Pack& y, Pack& z) {
    const Real* r = record_of(records, idx[0]);
    x = {r[0]};
    y = {r[1]};
    z = {r[2]};
  }
  static Pack broadcast(Real s) { return {s}; }
  static Pack zero() { return {Real(0)}; }
  void store(Real* p) const { *p = v; }

  friend Pack operator+(Pack a, Pack b) { return {a.v + b.v}; }
  friend Pack operator-(Pack a, Pack b) { return {a.v - b.v}; }
  friend Pack operator*(Pack a, Pack b) { return {a.v * b.v}; }
  friend Pack operator/(Pack a, Pack b) { return {a.v / b.v}; }
  friend Pack abs(Pack a) { return {std::fabs(a.v)}; }
  // a > b ? a : b and a < b ? a : b: the x86 max/min rule (the second
  // operand on ties and unordered lanes) the vector packs follow.
  friend Pack max(Pack a, Pack b) { return {a.v > b.v ? a.v : b.v}; }
  friend Pack min(Pack a, Pack b) { return {a.v < b.v ? a.v : b.v}; }
  friend Pack copysign(Pack mag, Pack sgn) {
    return {std::copysign(mag.v, sgn.v)};
  }
  friend Mask cmp_lt(Pack a, Pack b) { return a.v < b.v; }
  friend Mask cmp_gt(Pack a, Pack b) { return a.v > b.v; }
  friend Mask cmp_ge(Pack a, Pack b) { return a.v >= b.v; }
  static Mask mask_and(Mask a, Mask b) { return a && b; }
  friend Pack select(Mask m, Pack a, Pack b) { return m ? a : b; }
  static unsigned mask_bits(Mask m) { return m ? 1u : 0u; }
  friend Real reduce_add(Pack a) { return a.v; }
};

}  // namespace emdpa::simd
