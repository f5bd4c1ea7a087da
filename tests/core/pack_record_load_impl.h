// Shared body of the per-ISA PackRecordLoad probe TUs; included only by
// tests/core/pack_record_load_<isa>.cpp.
#pragma once

#include "core/simd.h"
#include "pack_record_load.h"

namespace emdpa::simd::testing {

template <typename Real, SimdType S>
std::size_t load_records(const Real* records, const std::uint32_t* idx,
                         Real* x, Real* y, Real* z) {
  using P = Pack<Real, S>;
  alignas(kBlockBytes) Real lanes[3][P::kWidth];
  P px, py, pz;
  P::load_xyz(records, idx, px, py, pz);
  px.store(lanes[0]);
  py.store(lanes[1]);
  pz.store(lanes[2]);
  for (std::size_t l = 0; l < P::kWidth; ++l) {
    x[l] = lanes[0][l];
    y[l] = lanes[1][l];
    z[l] = lanes[2][l];
  }
  return P::kWidth;
}

template <SimdType S>
const RecordLoaders* record_loaders() {
  static const RecordLoaders loaders{&load_records<double, S>,
                                     &load_records<float, S>};
  return &loaders;
}

}  // namespace emdpa::simd::testing
