// Arithmetic precision of the host force kernels (--precision dp|sp|mixed).
//
// The SoA N^2 and neighbour-list kernels are templated on TWO real types:
// `Real`, the type coordinates are packed in and lane math runs in, and
// `Acc`, the type per-row lane totals are reduced into.  Every
// instantiation is a double-facing ForceKernel: it narrows its inputs to
// Real / Acc once per evaluation and widens its results back to double.
//
//   dp     <double, double>  the default; bit-compatible with the seed.
//   sp     <float,  float>   the paper's device precision: the lane math,
//                            the row sums and the cross-row reduction all
//                            run in FP32.
//   mixed  <float,  double>  FP32 lane math (full SIMD width on the hot
//                            loop) with each row's lanes widened to FP64
//                            before the cross-row reduction, so the global
//                            sums do not accumulate float rounding.
#pragma once

#include <string>
#include <type_traits>

namespace emdpa::md {

enum class PrecisionMode { kDouble, kSingle, kMixed };

const char* to_string(PrecisionMode mode);

/// Parse "dp" / "sp" / "mixed" (the --precision spellings); throws
/// RuntimeFailure listing the valid values on anything else.
PrecisionMode parse_precision(const std::string& text);

/// The <Real, Acc> pair a mode instantiates, as a kernel-name tag.
template <typename Real, typename Acc>
constexpr const char* precision_tag() {
  if constexpr (std::is_same_v<Real, double>) {
    return "fp64";
  } else if constexpr (std::is_same_v<Acc, float>) {
    return "fp32";
  } else {
    return "fp32x64";
  }
}

}  // namespace emdpa::md
