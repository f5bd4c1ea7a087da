#include "md/integrator.h"

#include <chrono>
#include <vector>

#include "core/error.h"
#include "md/observables.h"

namespace emdpa::md {

namespace {

/// Charges the wall time since the previous charge (or construction) to one
/// phase of a StepPhaseSeconds; reads no clock when there is none.
class PhaseClock {
 public:
  explicit PhaseClock(StepPhaseSeconds* phases) : phases_(phases) {
    if (phases_ != nullptr) last_ = Clock::now();
  }

  void charge(double StepPhaseSeconds::*phase) {
    if (phases_ == nullptr) return;
    const Clock::time_point now = Clock::now();
    phases_->*phase += std::chrono::duration<double>(now - last_).count();
    last_ = now;
  }

 private:
  using Clock = std::chrono::steady_clock;
  StepPhaseSeconds* phases_;
  Clock::time_point last_{};
};

/// body(begin, end) over [0, n) in chunks of kChunkAtoms on the pool, or
/// inline when there is no pool or only one chunk.
template <typename Real, typename Body>
void for_atom_chunks(ThreadPool* pool, std::size_t n, const Body& body) {
  constexpr std::size_t kChunk = VelocityVerletT<Real>::kChunkAtoms;
  if (pool != nullptr && n > kChunk) {
    pool->parallel_for(0, n, kChunk, body);
  } else {
    body(0, n);
  }
}

/// Per-atom |v|^2 scratch.  One per calling thread, so concurrent step()
/// calls on one const integrator never share it; it keeps its capacity
/// across steps.
template <typename Real>
std::vector<Real>& kinetic_terms(std::size_t n) {
  thread_local std::vector<Real> terms;
  terms.resize(n);
  return terms;
}

/// Step 2: evaluate forces, install the new accelerations and hand the
/// replaced array back to the kernel for its next evaluation.
template <typename Real>
Real evaluate_forces(ParticleSystemT<Real>& system,
                     const PeriodicBoxT<Real>& box, const LjParamsT<Real>& lj,
                     ForceKernelT<Real>& kernel) {
  ForceResultT<Real> forces =
      kernel.compute(system.positions(), box, lj, system.mass());
  system.accelerations().swap(forces.accelerations);
  kernel.recycle(std::move(forces.accelerations));
  return forces.potential_energy;
}

}  // namespace

template <typename Real>
VelocityVerletT<Real>::VelocityVerletT(Real dt, ThreadPool* pool)
    : dt_(dt), pool_(pool) {
  EMDPA_REQUIRE(dt > Real(0), "time step must be positive");
}

template <typename Real>
StepEnergiesT<Real> VelocityVerletT<Real>::prime(
    ParticleSystemT<Real>& system, const PeriodicBoxT<Real>& box,
    const LjParamsT<Real>& lj, ForceKernelT<Real>& kernel,
    StepPhaseSeconds* phases) const {
  PhaseClock clock(phases);
  const Real potential = evaluate_forces(system, box, lj, kernel);
  clock.charge(&StepPhaseSeconds::force);
  const Real kinetic = kinetic_energy_of(system);
  clock.charge(&StepPhaseSeconds::integrate);
  return {kinetic, potential};
}

template <typename Real>
StepEnergiesT<Real> VelocityVerletT<Real>::step(
    ParticleSystemT<Real>& system, const PeriodicBoxT<Real>& box,
    const LjParamsT<Real>& lj, ForceKernelT<Real>& kernel,
    StepPhaseSeconds* phases) const {
  const std::size_t n = system.size();
  const Real half_dt = Real(0.5) * dt_;
  Vec3<Real>* const x = system.positions().data();
  Vec3<Real>* const v = system.velocities().data();
  PhaseClock clock(phases);

  // 1. advance velocities (half kick), then 3/4. move atoms and update
  // (wrap) positions — per atom, so one pass.
  const Vec3<Real>* const a_old = system.accelerations().data();
  for_atom_chunks<Real>(pool_, n, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      v[i] += a_old[i] * half_dt;
      x[i] = box.wrap(x[i] + v[i] * dt_);
    }
  });
  clock.charge(&StepPhaseSeconds::integrate);

  // 2. calculate forces on each of the N atoms.
  const Real potential = evaluate_forces(system, box, lj, kernel);
  clock.charge(&StepPhaseSeconds::force);

  // 1'. advance velocities (second half kick with the new accelerations),
  // keeping each atom's |v|^2 for step 5.
  const Vec3<Real>* const a_new = system.accelerations().data();
  std::vector<Real>& terms = kinetic_terms<Real>(n);
  Real* const v2 = terms.data();
  for_atom_chunks<Real>(pool_, n, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      v[i] += a_new[i] * half_dt;
      v2[i] = length_squared(v[i]);
    }
  });

  // 5. calculate new kinetic and total energies: the terms summed in index
  // order, exactly as kinetic_energy_of sums them.
  Real sum{};
  for (std::size_t i = 0; i < n; ++i) sum += v2[i];
  const Real kinetic = Real(0.5) * system.mass() * sum;
  clock.charge(&StepPhaseSeconds::integrate);
  return {kinetic, potential};
}

template class VelocityVerletT<double>;
template class VelocityVerletT<float>;

}  // namespace emdpa::md
