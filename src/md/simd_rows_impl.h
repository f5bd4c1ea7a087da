// Shared body of the four per-ISA row translation units
// (md/simd_rows_*.cpp): instantiate RowKernels<Real, Acc, S> for every
// precision combination and ListFill<Real, S> for both list precisions, and
// bundle the function pointers into a KernelRows table.  Included ONLY by
// those TUs — each instantiates exactly the one SimdType its -m flags
// permit, keeping every Pack's symbols inside a TU that may legally execute
// them.
#pragma once

#include "md/kernel_rows.h"
#include "md/simd_kernels.h"

namespace emdpa::md::simd_kernels {

template <simd::SimdType S>
KernelRows make_rows() {
  return KernelRows{
      S,
      simd::Pack<double, S>::kWidth,
      simd::Pack<float, S>::kWidth,
      &rows::RowKernels<double, double, S>::soa_rows,
      &rows::RowKernels<float, float, S>::soa_rows,
      &rows::RowKernels<float, double, S>::soa_rows,
      &rows::RowKernels<double, double, S>::list_rows,
      &rows::RowKernels<float, float, S>::list_rows,
      &rows::RowKernels<float, double, S>::list_rows,
      &rows::ListFill<double, S>::row,
      &rows::ListFill<float, S>::row,
  };
}

}  // namespace emdpa::md::simd_kernels
