// Velocity-Verlet integrator — the paper's integration scheme (section 3.5).
//
// One step, matching the structure of the paper's Figure 4 pseudo-code:
//   1. advance velocities          (half kick with current accelerations)
//   3/4. move atoms / update positions  (drift, wrap into the box)
//   2. calculate forces            (the offloadable N^2 step)
//   1'. advance velocities         (second half kick with new accelerations)
//   5. calculate new kinetic and total energies
//
// The O(N) work around the force call runs as two fused passes over fixed
// chunks of kChunkAtoms atoms: kick + drift + wrap, then kick + per-atom
// |v|^2.  The |v|^2 terms are then summed in index order, so every position,
// velocity and kinetic-energy bit is the serial loop's at any thread count.
// Without a pool, or below one chunk, the same pass bodies run inline.
#pragma once

#include <cstddef>

#include "core/thread_pool.h"
#include "md/force_kernel.h"
#include "md/particle_system.h"

namespace emdpa::md {

template <typename Real>
struct StepEnergiesT {
  Real kinetic{};
  Real potential{};
  Real total() const { return kinetic + potential; }
};

using StepEnergies = StepEnergiesT<double>;

/// Steady-clock seconds a step (or prime) spent in each phase, accumulated
/// across calls: the force call, and the integrator's own passes (kicks,
/// drift, kinetic energy).
struct StepPhaseSeconds {
  double force = 0.0;
  double integrate = 0.0;
};

template <typename Real>
class VelocityVerletT {
 public:
  /// Atoms per pass chunk.  A system of at most one chunk runs inline and
  /// pays no pool dispatch.
  static constexpr std::size_t kChunkAtoms = 8192;

  /// `pool` splits the O(N) passes; nullptr runs them on the caller.
  explicit VelocityVerletT(Real dt, ThreadPool* pool = nullptr);

  Real dt() const { return dt_; }

  /// Advance the system one step using `kernel` for the force evaluation.
  /// The system's accelerations must be current for its positions (call
  /// prime() once before the first step).  The replaced acceleration array
  /// goes back to the kernel (ForceKernelT::recycle).  When `phases` is
  /// non-null the step adds its phase times to it.
  StepEnergiesT<Real> step(ParticleSystemT<Real>& system,
                           const PeriodicBoxT<Real>& box,
                           const LjParamsT<Real>& lj,
                           ForceKernelT<Real>& kernel,
                           StepPhaseSeconds* phases = nullptr) const;

  /// Compute initial accelerations (and return initial energies) so that the
  /// first step's leading half-kick uses forces consistent with the initial
  /// positions.
  StepEnergiesT<Real> prime(ParticleSystemT<Real>& system,
                            const PeriodicBoxT<Real>& box,
                            const LjParamsT<Real>& lj,
                            ForceKernelT<Real>& kernel,
                            StepPhaseSeconds* phases = nullptr) const;

 private:
  Real dt_;
  ThreadPool* pool_;
};

using VelocityVerlet = VelocityVerletT<double>;
using VelocityVerletF = VelocityVerletT<float>;

}  // namespace emdpa::md
