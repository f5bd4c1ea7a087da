// Registry of the per-ISA compiled row kernels and the md-layer half of
// runtime SIMD dispatch.
//
// The hot loops in md/kernel_rows.h are compiled once per instruction set:
// four translation units (md/simd_rows_{scalar,sse2,avx2,avx512}.cpp), each
// built with its own -m flags and -ffp-contract=off, each instantiating
// RowKernels for exactly one SimdType and returning a KernelRows table of
// plain function pointers (or nullptr when the compiler could not target
// that ISA — e.g. -mavx512f unsupported, or a non-x86 build).  Selecting a
// kernel is then data, not control flow: resolve_isa() asks
// core/simd_dispatch.h to rank {what is compiled in} ∩ {what this CPU
// supports}, honouring an explicit request (--simd / Options::isa) or the
// EMDPA_SIMD environment override, and rows() hands back the winning table.
//
// Every table implements every precision combination (see md/precision.h):
// <double,double>, <float,float> and the mixed <float,double>, so ISA and
// precision dispatch compose freely.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <vector>

#include "core/simd/pack_fwd.h"
#include "core/vec3.h"
#include "md/lj_potential.h"

namespace emdpa::md::simd_kernels {

/// The j-blocks of the N^2 sweep: the padded SoA columns cut into `count`
/// 64-byte blocks (simd::block_lanes<Real>() atoms), each with the bounding
/// box of its real atoms, stored as six SoA arrays (lo[axis][b],
/// hi[axis][b]), 64-byte aligned and readable up to `count` rounded up to
/// a whole block.  The row loop writes live[ib], the number of j-blocks
/// i-block ib did not cull.  See SoaKernelT::compute and
/// RowKernels::soa_rows.
template <typename Real>
struct SoaBlocks {
  const Real* lo[3];
  const Real* hi[3];
  std::size_t count;
  std::uint32_t* live;
};

/// Row-loop signatures; see RowKernels::soa_rows / list_rows for the
/// parameter contract.
template <typename Real, typename Acc>
using SoaRowsFn = void (*)(const Real* xs, const Real* ys, const Real* zs,
                           const SoaBlocks<Real>& blocks, Real edge,
                           Real cutoff_sq, const LjParamsT<Real>& lj,
                           Acc inv_mass, std::size_t i_begin,
                           std::size_t i_end,
                           emdpa::Vec3<Acc>* accelerations, Acc* row_pe,
                           Acc* row_virial, std::uint64_t* row_hits);

/// The list sweep reads positions as records: `records` holds one
/// {x, y, z, 0} record of simd::kRecordReals Reals per atom, in atom order.
template <typename Real, typename Acc>
using ListRowsFn = void (*)(const Real* records,
                            const std::uint32_t* order,
                            const std::uint32_t* row_begin,
                            const std::uint32_t* row_end,
                            const std::uint32_t* entries, Real edge,
                            Real cutoff_sq, const LjParamsT<Real>& lj,
                            Acc inv_mass, std::size_t s_begin,
                            std::size_t s_end,
                            emdpa::Vec3<Acc>* accelerations, Acc* row_pe,
                            Acc* row_virial, std::uint64_t* row_hits);

/// List-build distance filter of one row; see rows::ListFill::row for the
/// parameter contract.
template <typename Real>
using ListFillFn = std::uint32_t* (*)(const Real* xs, const Real* ys,
                                      const Real* zs, const std::uint32_t* ids,
                                      const std::uint32_t* spans,
                                      std::size_t n_spans, std::uint32_t s,
                                      Real edge, Real cutoff_sq,
                                      std::uint32_t* out);

/// One ISA's worth of compiled row kernels: both hot loops in all three
/// precision combinations, the list-build filter in both list precisions,
/// plus the pack widths the ISA executes.
struct KernelRows {
  simd::SimdType isa;
  std::size_t width_double;
  std::size_t width_float;
  SoaRowsFn<double, double> soa_dd;
  SoaRowsFn<float, float> soa_ff;
  SoaRowsFn<float, double> soa_fd;
  ListRowsFn<double, double> list_dd;
  ListRowsFn<float, float> list_ff;
  ListRowsFn<float, double> list_fd;
  ListFillFn<double> fill_d;
  ListFillFn<float> fill_f;
};

namespace detail {
/// Per-TU hooks; each returns its table, or nullptr when the TU was
/// compiled without the ISA's feature macro.
const KernelRows* rows_scalar();
const KernelRows* rows_sse2();
const KernelRows* rows_avx2();
const KernelRows* rows_avx512();
}  // namespace detail

/// The table for `isa`, or nullptr when it is not compiled into the binary.
const KernelRows* rows_for(simd::SimdType isa);

/// OR of simd::isa_bit() for every table present in the binary.
unsigned compiled_mask();

/// ISAs that are both compiled in and supported by this CPU, best first.
std::vector<simd::SimdType> available_isas();

/// True when `isa` is compiled in AND this CPU can execute it.
bool isa_available(simd::SimdType isa);

/// Resolve the ISA to run: `request` (from --simd / kernel Options) wins,
/// else the EMDPA_SIMD environment override, else the fastest available.
/// Throws RuntimeFailure when an explicit choice cannot run here.
simd::SimdType resolve_isa(std::optional<simd::SimdType> request = {});

/// The table for a resolved ISA (ContractViolation if absent — callers go
/// through resolve_isa(), which only returns compiled-in ISAs).
const KernelRows& rows(simd::SimdType isa);

template <typename Real>
std::size_t width(const KernelRows& table) {
  if constexpr (std::is_same_v<Real, double>) {
    return table.width_double;
  } else {
    return table.width_float;
  }
}

template <typename Real, typename Acc>
SoaRowsFn<Real, Acc> soa_rows(const KernelRows& table) {
  if constexpr (std::is_same_v<Real, double>) {
    return table.soa_dd;
  } else if constexpr (std::is_same_v<Acc, float>) {
    return table.soa_ff;
  } else {
    return table.soa_fd;
  }
}

template <typename Real, typename Acc>
ListRowsFn<Real, Acc> list_rows(const KernelRows& table) {
  if constexpr (std::is_same_v<Real, double>) {
    return table.list_dd;
  } else if constexpr (std::is_same_v<Acc, float>) {
    return table.list_ff;
  } else {
    return table.list_fd;
  }
}

template <typename Real>
ListFillFn<Real> list_fill(const KernelRows& table) {
  if constexpr (std::is_same_v<Real, double>) {
    return table.fill_d;
  } else {
    return table.fill_f;
  }
}

}  // namespace emdpa::md::simd_kernels
