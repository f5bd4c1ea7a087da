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
