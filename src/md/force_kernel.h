// Force kernel interface: step 2 of the paper's MD kernel.
//
// Given positions, a periodic box and LJ parameters, a force kernel produces
// per-atom accelerations and the total potential energy.  This is the piece
// each architecture port offloads (to SPEs, to the GPU's shaders, to MTA
// streams); the host reference implementations live behind the same
// interface so tests can compare any two kernels on identical inputs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/vec3.h"
#include "md/box.h"
#include "md/lj_potential.h"

namespace emdpa::md {

/// Dynamic work statistics a kernel observed — the inputs to the timing
/// models (e.g. "interacting pairs" drives the cost of the acceleration
/// accumulation the paper SIMDises last, because so few tested pairs
/// actually interact).
///
/// Counts are UNORDERED pairs: every md:: host kernel (reference, SoA N^2,
/// neighbour list) reports {i,j} once however many times its traversal
/// visits it, so stats compare 1:1 across kernels.
///
/// PERMANENT divergence — do not "fix": the cellsim SPE/PPE kernels report
/// DIRECTED per-visit counts instead (candidates = N*(N-1), exactly 2x the
/// unordered convention).  Their loops, like the Cell hardware port they
/// model, really do visit each pair from both ends, and that directed visit
/// is the unit of modelled device work (FLOPs, DMA traffic, local-store
/// touches) their timing models price.  Collapsing the device counters to
/// unordered pairs would silently halve those model inputs.  The two
/// conventions are mutually convertible (directed = 2 * unordered);
/// tests/cellsim/visit_contract_test.cpp asserts the factor stays exact.
/// Timing models whose loops visit each pair from both ends (MTA/XMT and
/// the Opteron machine run "for each i, all j != i") likewise price 2x the
/// unordered counts reported here.
struct PairStats {
  std::uint64_t candidates = 0;   ///< unordered pairs whose distance was tested
  std::uint64_t interacting = 0;  ///< of those, pairs within the cutoff

  PairStats& operator+=(const PairStats& o) {
    candidates += o.candidates;
    interacting += o.interacting;
    return *this;
  }
};

template <typename Real>
struct ForceResultT {
  std::vector<emdpa::Vec3<Real>> accelerations;
  Real potential_energy{};
  /// Pair virial sum W = sum_{pairs} r_ij . f_ij, the interaction part of
  /// the pressure: P = (N k T + W/3) / V.  Host kernels fill it; device
  /// kernels (which reproduce the paper's ports) leave it zero.
  Real virial{};
  PairStats stats;
};

using ForceResult = ForceResultT<double>;
using ForceResultF = ForceResultT<float>;

/// Abstract force kernel at a fixed precision.
template <typename Real>
class ForceKernelT {
 public:
  virtual ~ForceKernelT() = default;

  virtual std::string name() const = 0;

  /// Compute accelerations and total PE for the given configuration.
  /// Positions need not be wrapped; kernels apply minimum-image internally.
  virtual ForceResultT<Real> compute(
      const std::vector<emdpa::Vec3<Real>>& positions,
      const PeriodicBoxT<Real>& box, const LjParamsT<Real>& lj, Real mass) = 0;

  /// Take back an acceleration array its caller is done with (typically
  /// one a previous compute() returned).  A kernel may return it, resized,
  /// from a later compute() instead of allocating; its contents are stale
  /// and its size may be wrong.  The default drops it.
  virtual void recycle(std::vector<emdpa::Vec3<Real>>&& /*spare*/) {}
};

using ForceKernel = ForceKernelT<double>;
using ForceKernelF = ForceKernelT<float>;

}  // namespace emdpa::md
