// SIMD instruction-set enumeration and the Pack primary template.
//
// Shared by every per-ISA pack header (core/simd/pack_*.h) and by the
// runtime dispatch layer (core/simd_dispatch.h), which must name ISAs
// without pulling in any intrinsics.
#pragma once

#include <cstddef>
#include <cstdint>

namespace emdpa::simd {

/// Instruction sets the Pack abstraction can target, in ranking order:
/// larger enum value = wider = preferred by the runtime dispatcher.
enum class SimdType { kScalar = 0, kSse2 = 1, kAvx2 = 2, kAvx512 = 3 };

inline constexpr std::size_t kSimdTypeCount = 4;

constexpr const char* to_string(SimdType t) {
  switch (t) {
    case SimdType::kScalar: return "scalar";
    case SimdType::kSse2: return "sse2";
    case SimdType::kAvx2: return "avx2";
    case SimdType::kAvx512: return "avx512";
  }
  return "unknown";
}

template <typename Real, SimdType Type>
struct Pack;

/// Reals per position record: {x, y, z, 0}.  Pack::load_xyz reads kWidth
/// records from an array of them and transposes their x/y/z into lanes,
/// moving bits, never values: lane l of x holds exactly the bits of
/// record_of(records, idx[l])[0].  Every load stays inside its own record,
/// so the array needs no padding past its last record.
inline constexpr std::size_t kRecordReals = 4;

template <typename Real>
constexpr const Real* record_of(const Real* records, std::uint32_t i) {
  return records + kRecordReals * std::size_t{i};
}

}  // namespace emdpa::simd
