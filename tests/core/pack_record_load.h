// Per-ISA probes of Pack::load_xyz for the PackRecordLoad tests.  Each
// tests/core/pack_record_load_<isa>.cpp is compiled with its ISA's -m
// flags (like md/simd_rows_*.cpp) and instantiates the probe for exactly
// that SimdType, or reports nullptr when the compiler could not target it.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/simd/pack_fwd.h"

namespace emdpa::simd::testing {

/// Load the records idx[0..width) with Pack::load_xyz and store the x, y
/// and z lanes to x[0..width), y[...], z[...]; returns the pack width.
template <typename Real>
using RecordLoadFn = std::size_t (*)(const Real* records,
                                     const std::uint32_t* idx, Real* x,
                                     Real* y, Real* z);

struct RecordLoaders {
  RecordLoadFn<double> dp;
  RecordLoadFn<float> sp;
};

const RecordLoaders* record_loaders_scalar();
const RecordLoaders* record_loaders_sse2();
const RecordLoaders* record_loaders_avx2();
const RecordLoaders* record_loaders_avx512();

}  // namespace emdpa::simd::testing
