// The hot row loops of the two host LJ fast paths, templated on
// <Real, Acc, SimdType> so one definition serves every precision mode and
// every instruction set, plus the neighbour-list build's distance filter
// (ListFill, at the end).  Each per-ISA translation unit
// (md/simd_rows_*.cpp) instantiates RowKernels for exactly one SimdType —
// the one it was compiled with -m flags for — and exports the resulting
// function pointers through the md/simd_kernels.h registry; nothing else
// may include this header with a vector SimdType it cannot execute.
//
// Bitwise ISA independence.  The kernels do NOT accumulate at the pack
// width: every row is processed in fixed 64-byte blocks
// (simd::block_lanes<Real>() lanes — 8 doubles / 16 floats), held as
// kBlock/kWidth sub-pack accumulators.  Lane l of a block accumulates the
// same j columns on every ISA (only the grouping into hardware registers
// differs), and reduce_block() sums the block lanes in lane order — so
// scalar, SSE2, AVX2 and AVX-512 produce BITWISE IDENTICAL forces, energies
// and virials, and the runtime dispatcher can switch ISAs without touching
// the physics.  The per-sub-pack early-out cannot break this: skipping an
// all-out-of-range batch adds exactly nothing, and the accumulators can
// never hold -0.0 (they start at +0.0, and +0.0 + x never yields -0.0 for
// the x these loops produce), so "skip" and "add zero" are the same bits.
// The per-ISA TUs are compiled with -ffp-contract=off, keeping the lane
// arithmetic (mul-then-add, no FMA contraction) identical across TUs even
// in a -march=native build.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

#include "core/simd.h"
#include "core/vec3.h"
#include "md/lj_simd.h"
#include "md/lj_potential.h"

namespace emdpa::md::rows {

template <typename Real, typename Acc, simd::SimdType S>
struct RowKernels {
  using P = simd::Pack<Real, S>;
  static constexpr std::size_t kWidth = P::kWidth;
  static constexpr std::size_t kBlock = simd::block_lanes<Real>();
  static constexpr std::size_t kSub = kBlock / kWidth;
  static_assert(kBlock % kWidth == 0,
                "the 64-byte block must hold a whole number of packs");

  /// Per-row accumulators for one 64-byte block, one sub-pack per kWidth
  /// lanes.  The same logical lanes on every ISA.
  struct BlockAcc {
    P fx[kSub], fy[kSub], fz[kSub], pe[kSub], vir[kSub];
    BlockAcc() {
      for (std::size_t s = 0; s < kSub; ++s) {
        fx[s] = P::zero();
        fy[s] = P::zero();
        fz[s] = P::zero();
        pe[s] = P::zero();
        vir[s] = P::zero();
      }
    }
  };

  /// Sum a block's lanes in lane order (0..kBlock-1), widening each lane to
  /// Acc first — the ISA-independent, mixed-precision-correct reduction.
  static Acc reduce_block(const P* packs) {
    alignas(simd::kBlockBytes) Real lanes[kBlock];
    for (std::size_t s = 0; s < kSub; ++s) packs[s].store(lanes + s * kWidth);
    Acc total = Acc(0);
    for (std::size_t l = 0; l < kBlock; ++l) {
      total += static_cast<Acc>(lanes[l]);
    }
    return total;
  }

  static void finish_row(const BlockAcc& a, Acc inv_mass,
                         emdpa::Vec3<Acc>& accel, Acc& pe, Acc& vir) {
    accel = emdpa::Vec3<Acc>{reduce_block(a.fx), reduce_block(a.fy),
                             reduce_block(a.fz)} *
            inv_mass;
    pe = Acc(0.5) * reduce_block(a.pe);      // pair seen from both ends
    vir = Acc(0.5) * reduce_block(a.vir);
  }

  /// N^2 SoA row range: for each atom i in [i_begin, i_end), sweep all
  /// padded j columns one block at a time.  `padded` is a multiple of
  /// kBlock; rows write disjoint outputs, so ranges can run on any thread.
  static void soa_rows(const Real* xs, const Real* ys, const Real* zs,
                       std::size_t padded, Real edge, Real cutoff_sq,
                       const LjParamsT<Real>& lj, Acc inv_mass,
                       std::size_t i_begin, std::size_t i_end,
                       emdpa::Vec3<Acc>* accelerations, Acc* row_pe,
                       Acc* row_virial, std::uint64_t* row_hits) {
    const LjLaneKernel<Real, S> lanes(edge, cutoff_sq, lj);
    for (std::size_t i = i_begin; i < i_end; ++i) {
      const P xi = P::broadcast(xs[i]);
      const P yi = P::broadcast(ys[i]);
      const P zi = P::broadcast(zs[i]);
      BlockAcc a;
      std::uint64_t hits = 0;

      for (std::size_t j = 0; j < padded; j += kBlock) {
        // r2 > 0 in the lane mask excludes the self pair; padded columns
        // sit far outside the cutoff by construction.
        for (std::size_t s = 0; s < kSub; ++s) {
          const std::size_t js = j + s * kWidth;
          const unsigned bits = lanes.accumulate(
              xi - P::load(xs + js), yi - P::load(ys + js),
              zi - P::load(zs + js), a.fx[s], a.fy[s], a.fz[s], a.pe[s],
              a.vir[s]);
          hits += static_cast<std::uint64_t>(std::popcount(bits));
        }
      }

      finish_row(a, inv_mass, accelerations[i], row_pe[i], row_virial[i]);
      row_hits[i] = hits;
    }
  }

  /// Neighbour-list row range: walk each atom's padded CSR row one sub-pack
  /// at a time, gathering the j columns straight from the fixed-stride CSR
  /// entries with Pack::gather (hardware vgatherdpd/vgatherdps on AVX2+,
  /// lane loads below) — no staging lane buffers.  A gathered lane holds
  /// exactly the value a scalar load would, so the masked LJ step is bitwise
  /// identical to the N^2 kernel's.  Row extents are multiples of kBlock;
  /// padding entries are the atom itself, rejected by the r2 > 0 lane mask.
  static void list_rows(const Real* xs, const Real* ys, const Real* zs,
                        const std::uint32_t* row_begin,
                        const std::uint32_t* entries, Real edge,
                        Real cutoff_sq, const LjParamsT<Real>& lj,
                        Acc inv_mass, std::size_t i_begin, std::size_t i_end,
                        emdpa::Vec3<Acc>* accelerations, Acc* row_pe,
                        Acc* row_virial, std::uint64_t* row_hits) {
    const LjLaneKernel<Real, S> lanes(edge, cutoff_sq, lj);
    for (std::size_t i = i_begin; i < i_end; ++i) {
      const P xi = P::broadcast(xs[i]);
      const P yi = P::broadcast(ys[i]);
      const P zi = P::broadcast(zs[i]);
      BlockAcc a;
      std::uint64_t hits = 0;

      for (std::uint32_t k = row_begin[i]; k < row_begin[i + 1]; k += kBlock) {
        for (std::size_t s = 0; s < kSub; ++s) {
          const std::uint32_t* idx = entries + k + s * kWidth;
          const unsigned bits = lanes.accumulate(
              xi - P::gather(xs, idx), yi - P::gather(ys, idx),
              zi - P::gather(zs, idx), a.fx[s], a.fy[s], a.fz[s], a.pe[s],
              a.vir[s]);
          hits += static_cast<std::uint64_t>(std::popcount(bits));
        }
      }

      finish_row(a, inv_mass, accelerations[i], row_pe[i], row_virial[i]);
      row_hits[i] = hits;
    }
  }
};

/// The distance filter of the neighbour-list build (ParallelNeighborListT's
/// fill phase), one grid cell's rows per call.  The list has gathered the
/// wrapped coordinates into cell-sorted arrays (xs/ys/zs[s] is atom ids[s],
/// the stable counting-sort order), so the cell's whole stencil is a short
/// list of contiguous [begin, end) spans of those arrays, already in stencil
/// order — each is streamed kWidth lanes at a time with unaligned loads.
/// The arrays must hold kWidth readable (ignored) elements past their last
/// span: the tail pack over-reads and masks the extra lanes off.
///
/// Per lane the test is exactly the scalar build's: the force sweep's
/// reflection (reflect_min_image — bitwise the rounding min_image on wrapped
/// inputs), r2 = dx*dx + dy*dy + dz*dz in that order, kept when
/// r2 < cutoff_sq.  The self pair is excluded by index, not by r2 > 0, so
/// exactly coincident atoms stay in the list.  Kept lanes are written in
/// lane order (original atom indices, ascending within a cell), so a row is
/// byte-identical on every ISA: vpcompressd on AVX-512, a mask-bit scan on
/// the narrower packs.
template <typename Real, simd::SimdType S>
struct ListFill {
  using P = simd::Pack<Real, S>;
  static constexpr std::size_t kWidth = P::kWidth;

  /// Rows of the atoms at sorted positions [a_begin, a_end), each against
  /// the n_spans spans (begin, end pairs) of their cell's stencil.  With
  /// entries == nullptr this is the count pass: row_count[i] receives row
  /// i's kept count.  Otherwise it is the fill pass: row i is written to
  /// entries[row_begin[i] ..] and self-padded up to row_begin[i + 1].
  static void cell_rows(const Real* xs, const Real* ys, const Real* zs,
                        const std::uint32_t* ids, const std::uint32_t* spans,
                        std::size_t n_spans, std::uint32_t a_begin,
                        std::uint32_t a_end, Real edge, Real cutoff_sq,
                        const std::uint32_t* row_begin,
                        std::uint32_t* row_count, std::uint32_t* entries) {
    if (entries == nullptr) {
      rows<false>(xs, ys, zs, ids, spans, n_spans, a_begin, a_end, edge,
                  cutoff_sq, row_begin, row_count, entries);
    } else {
      rows<true>(xs, ys, zs, ids, spans, n_spans, a_begin, a_end, edge,
                 cutoff_sq, row_begin, row_count, entries);
    }
  }

 private:
  static std::uint32_t* store_kept(std::uint32_t* out,
                                   const std::uint32_t* ids, unsigned bits) {
    if constexpr (requires { P::compress_indices(out, ids, bits); }) {
      return P::compress_indices(out, ids, bits);
    } else {
      for (; bits != 0; bits &= bits - 1u) {
        *out++ = ids[std::countr_zero(bits)];
      }
      return out;
    }
  }

  template <bool kWrite>
  static void rows(const Real* xs, const Real* ys, const Real* zs,
                   const std::uint32_t* ids, const std::uint32_t* spans,
                   std::size_t n_spans, std::uint32_t a_begin,
                   std::uint32_t a_end, Real edge, Real cutoff_sq,
                   const std::uint32_t* row_begin, std::uint32_t* row_count,
                   std::uint32_t* entries) {
    const P v_edge = P::broadcast(edge);
    const P v_half = P::broadcast(edge / Real(2));
    const P v_cut = P::broadcast(cutoff_sq);
    const P v_zero = P::zero();
    for (std::uint32_t s = a_begin; s < a_end; ++s) {
      const std::uint32_t i = ids[s];
      const P xi = P::broadcast(xs[s]);
      const P yi = P::broadcast(ys[s]);
      const P zi = P::broadcast(zs[s]);
      std::uint32_t* out = kWrite ? entries + row_begin[i] : nullptr;
      std::uint32_t count = 0;
      for (std::size_t k = 0; k < n_spans; ++k) {
        const std::uint32_t end = spans[2 * k + 1];
        for (std::uint32_t j = spans[2 * k]; j < end; j += kWidth) {
          const P dx = reflect_min_image(xi - P::loadu(xs + j), v_edge,
                                         v_half, v_zero);
          const P dy = reflect_min_image(yi - P::loadu(ys + j), v_edge,
                                         v_half, v_zero);
          const P dz = reflect_min_image(zi - P::loadu(zs + j), v_edge,
                                         v_half, v_zero);
          unsigned bits = P::mask_bits(cmp_lt(dx * dx + dy * dy + dz * dz,
                                              v_cut));
          if (end - j < kWidth) bits &= (1u << (end - j)) - 1u;  // tail
          if (s - j < kWidth) bits &= ~(1u << (s - j));          // j == i
          if constexpr (kWrite) {
            out = store_kept(out, ids + j, bits);
          } else {
            count += static_cast<std::uint32_t>(std::popcount(bits));
          }
        }
      }
      if constexpr (kWrite) {
        std::uint32_t* const row_end = entries + row_begin[i + 1];
        while (out < row_end) *out++ = i;  // self pad, r2 == 0
      } else {
        row_count[i] = count;
      }
    }
  }
};

}  // namespace emdpa::md::rows
