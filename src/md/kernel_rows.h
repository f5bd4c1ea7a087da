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
// The same argument covers whole blocks: the N^2 sweep skips a j-block
// only when a bound proves every lane of it out of range (the block cull,
// RowKernels::live_spans / min_image_gap in lj_simd.h), i.e. when each
// of its sub-packs would have early-outed anyway.  The surviving blocks
// are swept in ascending order, so the order of the adds that do happen —
// and with it every force, energy and virial bit — is unchanged, on every
// ISA and at every thread count.
// The per-ISA TUs are compiled with -ffp-contract=off, keeping the lane
// arithmetic (mul-then-add, no FMA contraction) identical across TUs even
// in a -march=native build.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/simd.h"
#include "core/vec3.h"
#include "md/lj_simd.h"
#include "md/lj_potential.h"
#include "md/simd_kernels.h"

namespace emdpa::md::rows {

template <typename Real, typename Acc, simd::SimdType S>
struct RowKernels {
  using P = simd::Pack<Real, S>;
  static constexpr std::size_t kWidth = P::kWidth;
  static constexpr std::size_t kBlock = simd::block_lanes<Real>();
  static constexpr std::size_t kSub = kBlock / kWidth;
  static constexpr unsigned kLaneMask = (1u << kWidth) - 1u;
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

  /// The acceleration is formed in Acc and widened to double as it is
  /// stored (a no-op unless Acc is float): every kernel speaks double.
  static void finish_row(const BlockAcc& a, Acc inv_mass,
                         emdpa::Vec3<double>& accel, Acc& pe, Acc& vir) {
    accel = vec_cast<double>(emdpa::Vec3<Acc>{reduce_block(a.fx),
                                              reduce_block(a.fy),
                                              reduce_block(a.fz)} *
                             inv_mass);
    pe = Acc(0.5) * reduce_block(a.pe);      // pair seen from both ends
    vir = Acc(0.5) * reduce_block(a.vir);
  }

  /// The block cull: the j-blocks i-block ib must still sweep, as ascending
  /// half-open column spans [spans[2k], spans[2k+1]) of whole blocks; returns
  /// the number of span ends written (twice the span count).  spans[] must
  /// hold count + 1 entries.  A block is dropped only when the bound built
  /// from min_image_gap (lj_simd.h) proves every (i, j) lane r2 >=
  /// cutoff_sq, i.e. when every lane of the block would fail the range
  /// mask anyway.  kWidth blocks are tested per pack; runs of kept blocks
  /// become one span, so when nothing culls the sweep is the plain
  /// contiguous loop.
  static std::size_t live_spans(const simd_kernels::SoaBlocks<Real>& blocks,
                                std::size_t ib,
                                const LjLaneKernel<Real, S>& lanes,
                                std::size_t* spans) {
    const P ax_lo = P::broadcast(blocks.lo[0][ib]);
    const P ax_hi = P::broadcast(blocks.hi[0][ib]);
    const P ay_lo = P::broadcast(blocks.lo[1][ib]);
    const P ay_hi = P::broadcast(blocks.hi[1][ib]);
    const P az_lo = P::broadcast(blocks.lo[2][ib]);
    const P az_hi = P::broadcast(blocks.hi[2][ib]);
    const P edge = lanes.v_edge;
    const P zero = lanes.v_zero;
    std::size_t n_ends = 0;
    unsigned carry = 0;  // 1 when the block before this pack was kept
    for (std::size_t jb = 0; jb < blocks.count; jb += kWidth) {
      const P gx = min_image_gap(ax_lo, ax_hi, P::load(blocks.lo[0] + jb),
                                 P::load(blocks.hi[0] + jb), edge, zero);
      const P gy = min_image_gap(ay_lo, ay_hi, P::load(blocks.lo[1] + jb),
                                 P::load(blocks.hi[1] + jb), edge, zero);
      const P gz = min_image_gap(az_lo, az_hi, P::load(blocks.lo[2] + jb),
                                 P::load(blocks.hi[2] + jb), edge, zero);
      const P r2 = gx * gx + gy * gy + gz * gz;  // the lanes' order
      // Keep = NOT (bound >= cutoff_sq), so a NaN bound keeps the block.
      const std::size_t lanes_left = std::min(kWidth, blocks.count - jb);
      const unsigned keep = ~P::mask_bits(cmp_ge(r2, lanes.v_cut)) &
                            ((1u << lanes_left) - 1u);
      // A span starts or ends wherever keep differs from the block before —
      // rarely: a mixed gas keeps everything, a lattice keeps a few runs.
      unsigned edges = (keep ^ ((keep << 1) | carry)) & kLaneMask;
      for (; edges != 0; edges &= edges - 1u) {
        spans[n_ends++] = (jb + std::countr_zero(edges)) * kBlock;
      }
      carry = (keep >> (kWidth - 1)) & 1u;
    }
    if (carry != 0) spans[n_ends++] = blocks.count * kBlock;
    return n_ends;
  }

  /// N^2 SoA row range: for each atom i in [i_begin, i_end), sweep the padded
  /// j columns one 64-byte block at a time — only the blocks its i-block
  /// cannot cull.  Rows are taken i-block by i-block (atoms
  /// [ib*kBlock, (ib+1)*kBlock), clipped to the range): the i-block's box is
  /// tested once against every j-block box (live_spans), and each of its
  /// rows then sweeps the surviving blocks in ascending order.  Rows write
  /// disjoint outputs, so ranges can run on any thread; blocks.live[ib] is
  /// written by the range holding the i-block's first row only.
  static void soa_rows(const Real* xs, const Real* ys, const Real* zs,
                       const simd_kernels::SoaBlocks<Real>& blocks, Real edge,
                       Real cutoff_sq, const LjParamsT<Real>& lj,
                       Acc inv_mass, std::size_t i_begin, std::size_t i_end,
                       emdpa::Vec3<double>* accelerations, Acc* row_pe,
                       Acc* row_virial, std::uint64_t* row_hits) {
    const LjLaneKernel<Real, S> lanes(edge, cutoff_sq, lj);
    // Per-worker span scratch: O(blocks), reused across calls and steps.
    thread_local std::vector<std::size_t> span_scratch;
    if (span_scratch.size() < blocks.count + 1) {
      span_scratch.resize(blocks.count + 1);
    }
    std::size_t* const spans = span_scratch.data();

    for (std::size_t i = i_begin; i < i_end;) {
      const std::size_t ib = i / kBlock;
      const std::size_t i_stop = std::min(i_end, (ib + 1) * kBlock);
      const std::size_t n_ends = live_spans(blocks, ib, lanes, spans);
      if (i == ib * kBlock) {
        std::size_t live = 0;
        for (std::size_t p = 0; p < n_ends; p += 2) {
          live += spans[p + 1] - spans[p];
        }
        blocks.live[ib] = static_cast<std::uint32_t>(live / kBlock);
      }

      for (; i < i_stop; ++i) {
        const P xi = P::broadcast(xs[i]);
        const P yi = P::broadcast(ys[i]);
        const P zi = P::broadcast(zs[i]);
        BlockAcc a;
        std::uint64_t hits = 0;

        for (std::size_t p = 0; p < n_ends; p += 2) {
          for (std::size_t j = spans[p]; j < spans[p + 1]; j += kBlock) {
            // r2 > 0 in the lane mask excludes the self pair; padded
            // columns sit far outside the cutoff by construction.
            for (std::size_t s = 0; s < kSub; ++s) {
              const std::size_t js = j + s * kWidth;
              const unsigned bits = lanes.accumulate(
                  xi - P::load(xs + js), yi - P::load(ys + js),
                  zi - P::load(zs + js), a.fx[s], a.fy[s], a.fz[s], a.pe[s],
                  a.vir[s]);
              hits += static_cast<std::uint64_t>(std::popcount(bits));
            }
          }
        }

        finish_row(a, inv_mass, accelerations[i], row_pe[i], row_virial[i]);
        row_hits[i] = hits;
      }
    }
  }

  /// Neighbour-list rows of atoms order[s], s in [s_begin, s_end): walk
  /// each atom's padded row entries[row_begin[i], row_end[i]) one sub-pack
  /// at a time, loading the j columns with Pack::load_xyz — one record
  /// {x, y, z, 0} per neighbour (simd::kRecordReals Reals per atom),
  /// transposed into x/y/z lanes.  A loaded lane holds exactly the bits a
  /// scalar load of the field would, so the masked LJ step is bitwise
  /// identical to the N^2 kernel's.  Row extents are multiples of kBlock;
  /// padding entries are the atom itself, rejected by the r2 > 0 lane mask.
  /// Each row's results land at its own index i, so the visiting order
  /// (the list's write order, which streams the entries) moves no bit.
  static void list_rows(const Real* records, const std::uint32_t* order,
                        const std::uint32_t* row_begin,
                        const std::uint32_t* row_end,
                        const std::uint32_t* entries, Real edge,
                        Real cutoff_sq, const LjParamsT<Real>& lj,
                        Acc inv_mass, std::size_t s_begin, std::size_t s_end,
                        emdpa::Vec3<double>* accelerations, Acc* row_pe,
                        Acc* row_virial, std::uint64_t* row_hits) {
    const LjLaneKernel<Real, S> lanes(edge, cutoff_sq, lj);
    for (std::size_t s = s_begin; s < s_end; ++s) {
      const std::uint32_t i = order[s];
      const Real* ri = records + simd::kRecordReals * i;
      const P xi = P::broadcast(ri[0]);
      const P yi = P::broadcast(ri[1]);
      const P zi = P::broadcast(ri[2]);
      BlockAcc a;
      std::uint64_t hits = 0;

      for (std::uint32_t k = row_begin[i]; k < row_end[i]; k += kBlock) {
        for (std::size_t s = 0; s < kSub; ++s) {
          P xj, yj, zj;
          P::load_xyz(records, entries + k + s * kWidth, xj, yj, zj);
          const unsigned bits =
              lanes.accumulate(xi - xj, yi - yj, zi - zj, a.fx[s], a.fy[s],
                               a.fz[s], a.pe[s], a.vir[s]);
          hits += static_cast<std::uint64_t>(std::popcount(bits));
        }
      }

      finish_row(a, inv_mass, accelerations[i], row_pe[i], row_virial[i]);
      row_hits[i] = hits;
    }
  }
};

/// The distance filter of the neighbour-list build (ParallelNeighborListT's
/// fill phase), one row per call.  The list has gathered the wrapped
/// coordinates into cell-sorted arrays (xs/ys/zs[s] is atom ids[s], the
/// stable counting-sort order), so the row's cell stencil is a short list
/// of contiguous [begin, end) spans of those arrays, already in stencil
/// order — each is streamed kWidth lanes at a time with unaligned loads.
/// The arrays must hold kWidth readable (ignored) elements past their last
/// span: the tail pack over-reads and masks the extra lanes off.
///
/// Per lane the test is exactly a scalar box.min_image test's: the force
/// sweep's reflection (reflect_min_image — bitwise the rounding min_image on
/// wrapped inputs), r2 = dx*dx + dy*dy + dz*dz in that order, kept when
/// r2 < cutoff_sq.  The self pair is excluded by index, not by r2 > 0, so
/// exactly coincident atoms stay in the list.  Kept lanes are written in
/// lane order (original atom indices, ascending within a cell), so a row is
/// byte-identical on every ISA: vpcompressd on AVX-512, a mask-bit scan on
/// the narrower packs.
template <typename Real, simd::SimdType S>
struct ListFill {
  using P = simd::Pack<Real, S>;
  static constexpr std::size_t kWidth = P::kWidth;

  /// The row of the atom at sorted position s against the n_spans spans
  /// (begin, end pairs) of its cell's stencil, written from `out` without
  /// padding.  Writes exactly the kept entries — at most the stencil
  /// population minus one — and returns the end of the row.
  static std::uint32_t* row(const Real* xs, const Real* ys, const Real* zs,
                            const std::uint32_t* ids,
                            const std::uint32_t* spans, std::size_t n_spans,
                            std::uint32_t s, Real edge, Real cutoff_sq,
                            std::uint32_t* out) {
    const P v_edge = P::broadcast(edge);
    const P v_half = P::broadcast(edge / Real(2));
    const P v_cut = P::broadcast(cutoff_sq);
    const P v_zero = P::zero();
    const P xi = P::broadcast(xs[s]);
    const P yi = P::broadcast(ys[s]);
    const P zi = P::broadcast(zs[s]);
    for (std::size_t k = 0; k < n_spans; ++k) {
      const std::uint32_t end = spans[2 * k + 1];
      for (std::uint32_t j = spans[2 * k]; j < end; j += kWidth) {
        const P dx =
            reflect_min_image(xi - P::loadu(xs + j), v_edge, v_half, v_zero);
        const P dy =
            reflect_min_image(yi - P::loadu(ys + j), v_edge, v_half, v_zero);
        const P dz =
            reflect_min_image(zi - P::loadu(zs + j), v_edge, v_half, v_zero);
        unsigned bits =
            P::mask_bits(cmp_lt(dx * dx + dy * dy + dz * dz, v_cut));
        if (end - j < kWidth) bits &= (1u << (end - j)) - 1u;  // tail
        if (s - j < kWidth) bits &= ~(1u << (s - j));          // j == i
        out = store_kept(out, ids + j, bits);
      }
    }
    return out;
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
};

}  // namespace emdpa::md::rows
