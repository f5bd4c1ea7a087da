// Shared SIMD lane math for the host LJ force kernels.
//
// Both host fast paths — the N^2 SoA batch kernel and the neighbour-list
// traversal kernel — evaluate the same per-lane physics: fused
// single-reflection minimum image on wrapped coordinates, a combined
// (r2 < cutoff^2) && (r2 > 0) lane mask, and blended LJ force / energy /
// virial accumulation.  Keeping the lane math in one place makes "the list
// path computes the same physics as the N^2 path" true by construction
// rather than by parallel maintenance.
//
// The SimdType parameter selects the Pack the lanes run on; the per-ISA row
// translation units (md/simd_rows_*.cpp) each instantiate exactly one S, so
// no TU emits vector code it was not compiled for.
//
// The r2 > 0 term excludes the self pair (and any exactly coincident pair;
// see the divergence note in soa_kernel.h).  Rejected lanes may carry
// inf/NaN from the 1/r2 at the self pair; select() is a blend, so they
// never reach an accumulator.
#pragma once

#include "core/simd.h"
#include "md/lj_potential.h"

namespace emdpa::md {

/// The fused single-reflection minimum image of one axis of raw separations:
/// d - select(|d| >= edge/2, copysign(edge, d), 0).  Exact for wrapped
/// positions (|d| <= edge), where it is bitwise d - edge*round(d/edge): the
/// quotient d/edge reaches 0.5 exactly when |d| >= edge/2, and the subtracted
/// multiple of the edge is 0 or exactly ±edge either way.  The reflection
/// test is >=, not >: at |d| exactly half the edge both images are
/// equidistant and std::round (the scalar kRound reference) rounds half away
/// from zero, i.e. reflects — small perfect lattices (e.g. 4x4x4 with cutoff
/// > edge/2) really do hit this, and a strict > would flip the force
/// direction of those pairs against the reference.  Shared by the force
/// sweep below and the list build's distance filter (kernel_rows.h).
template <typename P>
inline P reflect_min_image(P d, P edge, P half_edge, P zero) {
  return d - select(cmp_ge(abs(d), half_edge), copysign(edge, d), zero);
}

/// One axis of the j-block cull of the N^2 sweep (kernel_rows.h): a lower
/// bound g on the |dx| the lanes above compute for EVERY pair (i, j) with
/// coordinate xi in [a_lo, a_hi] and xj in [b_lo, b_hi].  Each lane of the
/// packs is one (A, B) interval pair.  Squared and summed in the lanes'
/// order, gx*gx + gy*gy + gz*gz, the three axes bound the lane r2 from
/// below: the block cull drops a block pair when that sum is >= cutoff_sq.
///
/// Precondition: every coordinate an interval bounds lies in [0, edge].
/// An axis holding anything else (a NaN, or a coordinate the wrap left
/// outside) gets the whole line (-inf, +inf) as its interval, for which g
/// is 0.
///
/// Why no safety margin.  Write u for the unit roundoff (2^-53 in double,
/// 2^-24 in float).  A gap test in real arithmetic on the true separations
/// would have to pay for two roundings: fl(xi - xj) is off by up to
/// u*|xi - xj| <= u*edge per axis (sqrt(3)*u*edge in r), and the three-term
/// sum fl(fl(dx*dx + dy*dy) + dz*dz) by up to ((1 + u)^3 - 1)*r2 ~ 3u*r2 —
/// so it could cull only above cutoff_sq * (1 + 3u + 2*sqrt(3)*u*edge/rc),
/// a margin that grows with the box.  Instead this bound replays the
/// lanes' own operations, in the lanes' own precision Real, on the
/// interval ends, and round-to-nearest is monotone (s <= t implies
/// fl(s) <= fl(t)), which turns every step into an exact inequality:
///  1. xi - xj lies in [a_lo - b_hi, a_hi - b_lo], so the lane's rounded
///     d = fl(xi - xj) lies in [d_lo, d_hi] = [fl(a_lo - b_hi),
///     fl(a_hi - b_lo)] — the same rounding, applied at the ends.  With all
///     coordinates in [0, edge], |d| <= edge.
///  2. The lane's reflection is exact: for edge/2 <= |d| <= edge,
///     d - copysign(edge, d) is exact by Sterbenz (edge/2 <= |d| <= 2 edge).
///     So the lane's |dx| is m(d) = |d| below edge/2 and edge - |d| from
///     there on, with no rounding at all.
///  3. Over [d_lo, d_hi], m is at least min(direct, wrapped), where
///     direct = max(d_lo, -d_hi) (exact) is the distance of the interval
///     from 0, and wrapped = fl(edge - max(|d_lo|, |d_hi|)) its distance
///     from ±edge.  When direct <= 0 the interval holds 0 and g is 0.
///     Otherwise (say 0 < d_lo <= d_hi): a lane d below edge/2 has
///     m(d) = d >= d_lo = direct; a lane d >= edge/2 forces
///     edge/2 <= d_hi <= edge, so wrapped = edge - d_hi is exact by
///     Sterbenz again and m(d) = edge - d >= wrapped.  Hence
///     0 <= g <= |dx| with g = max(0, min(direct, wrapped)).
///  4. r2 = fl(fl(fl(dx*dx) + fl(dy*dy)) + fl(dz*dz)) is, operation by
///     operation, monotone in |dx|, |dy|, |dz|, so the same expression in
///     (gx, gy, gz), evaluated in the same order, is <= r2.
/// So a block pair whose bound is >= cutoff_sq has every lane r2 >=
/// cutoff_sq: every lane fails the (r2 < cutoff_sq) mask, in double and in
/// float.  The margin is exactly zero.  The per-ISA row TUs build with
/// -ffp-contract=off, so neither side contracts into an FMA.  For point
/// intervals (lo == hi) g IS the lane's |dx|, bit for bit.
///
/// In code: d_lo <= d_hi (lo <= hi on both sides, and rounding is
/// monotone), so max(|d_lo|, |d_hi|) = max(d_hi, -d_lo); and -d_lo, -d_hi
/// are taken as b_hi - a_lo, b_lo - a_hi, which round to exactly the
/// negations (round-to-nearest is symmetric).  Nine operations per axis.
template <typename P>
inline P min_image_gap(P a_lo, P a_hi, P b_lo, P b_hi, P edge, P zero) {
  const P direct = max(a_lo - b_hi, b_lo - a_hi);   // max(d_lo, -d_hi)
  const P wrapped = edge - max(a_hi - b_lo, b_hi - a_lo);
  return max(zero, min(direct, wrapped));
}

/// Broadcast constants plus the fused min-image + LJ accumulation step for
/// one batch of Pack<Real, S>::kWidth j-lanes against a fixed atom i.
template <typename Real, simd::SimdType S = simd::fastest_simd_type()>
struct LjLaneKernel {
  using P = simd::Pack<Real, S>;

  P v_edge, v_half, v_cut, v_zero, v_one, v_two;
  P v_sigma2, v_eps24, v_eps4, v_shift;

  LjLaneKernel(Real edge, Real cutoff_sq, const LjParamsT<Real>& lj)
      : v_edge(P::broadcast(edge)),
        v_half(P::broadcast(edge / Real(2))),
        v_cut(P::broadcast(cutoff_sq)),
        v_zero(P::zero()),
        v_one(P::broadcast(Real(1))),
        v_two(P::broadcast(Real(2))),
        v_sigma2(P::broadcast(lj.sigma * lj.sigma)),
        v_eps24(P::broadcast(Real(24) * lj.epsilon)),
        v_eps4(P::broadcast(Real(4) * lj.epsilon)),
        v_shift(P::broadcast(lj.shifted ? lj.energy_shift() : Real(0))) {}

  /// Accumulate one batch of raw separations (dx, dy, dz) into the row's
  /// force/PE/virial lanes.  Returns the in-range lane mask bits (one bit
  /// per lane) so callers can early-out and count interactions.  The fused
  /// single-reflection minimum image is exact for wrapped positions
  /// (|dr| < edge per axis), where it coincides with every MinImageStrategy
  /// (see reflect_min_image).
  inline unsigned accumulate(P dx, P dy, P dz, P& fx, P& fy, P& fz, P& pe,
                             P& vir) const {
    dx = reflect_min_image(dx, v_edge, v_half, v_zero);
    dy = reflect_min_image(dy, v_edge, v_half, v_zero);
    dz = reflect_min_image(dz, v_edge, v_half, v_zero);

    const P r2 = dx * dx + dy * dy + dz * dz;
    const auto in_range = P::mask_and(cmp_lt(r2, v_cut), cmp_gt(r2, v_zero));
    const unsigned bits = P::mask_bits(in_range);
    if (bits == 0) return 0;  // the common case: whole batch out of range

    const P inv_r2 = v_one / r2;
    const P s2 = v_sigma2 * inv_r2;
    const P s6 = s2 * s2 * s2;
    const P f_over_r = select(
        in_range, v_eps24 * inv_r2 * s6 * (v_two * s6 - v_one), v_zero);
    const P energy =
        select(in_range, v_eps4 * s6 * (s6 - v_one) - v_shift, v_zero);

    fx = fx + dx * f_over_r;
    fy = fy + dy * f_over_r;
    fz = fz + dz * f_over_r;
    pe = pe + energy;
    vir = vir + f_over_r * r2;
    return bits;
  }
};

}  // namespace emdpa::md
