// What every device model shares: its workload, its timed region and the
// quadword layout its ports move data in.  The timed region is the paper's
// accounting rule, defined once: the prime is untimed, one-time launches are
// charged to step 0, and device time is the sum of the timed steps.
#pragma once

#include <cstddef>
#include <functional>
#include <numeric>
#include <vector>

#include "core/time_model.h"
#include "core/vec4.h"
#include "md/backend.h"
#include "md/force_kernel.h"
#include "md/integrator.h"
#include "md/workload.h"

namespace emdpa::md {

/// The lattice workload at a device model's precision.
template <typename Real>
struct DeviceWorkloadT {
  ParticleSystemT<Real> system;
  PeriodicBoxT<Real> box;
  LjParamsT<Real> lj;
};

/// Builds config.workload's lattice at Real precision.  Every site lies
/// strictly inside the box, so the cast positions are already wrapped.
template <typename Real>
DeviceWorkloadT<Real> make_device_workload(const RunConfig& config) {
  const Workload workload = make_lattice_workload(config.workload);
  return {workload.system.template cast<Real>(),
          PeriodicBoxT<Real>(static_cast<Real>(workload.box.edge())),
          config.lj.template cast<Real>()};
}

/// A device model's part of the timed region.  A step's time is
/// charge_step()'s return, plus launch at step 0, plus the time force writes.
/// A model may split that sum between the two hooks as it likes: one that
/// reads the whole step off its machine's clock returns zero from
/// charge_step and has force write the clock's advance since the step began.
template <typename Real>
struct DeviceModelT {
  /// The modelled force evaluation: writes its share of the step's model
  /// time to the first argument; the rest is CallableKernelT's signature.
  std::function<ForceResultT<Real>(
      ModelTime&, const std::vector<emdpa::Vec3<Real>>&,
      const PeriodicBoxT<Real>&, const LjParamsT<Real>&, Real)>
      force;
  /// Charges what precedes each step's force evaluation (integration) and
  /// returns its share of the step's model time.
  std::function<ModelTime()> charge_step;
  /// One-time thread launches, charged to step 0.
  ModelTime launch = ModelTime::zero();
  /// Clears what the untimed prime charged.  May be empty.
  std::function<void()> reset = {};
};

/// Primes untimed, calls model.reset, then runs config.steps velocity-Verlet
/// steps.  A step's time is model.charge_step() (plus model.launch at step
/// 0) plus its force evaluation's time.  Appends the energies (as double) and
/// step times to `result`, sets result.device_time to the left-to-right sum
/// of the step times, and result.final_state.
template <typename Real>
void run_timed_region(DeviceWorkloadT<Real> workload, const RunConfig& config,
                      const DeviceModelT<Real>& model, RunResult& result) {
  ModelTime force_time;
  CallableKernelT<Real> kernel(
      result.backend_name, std::bind_front(model.force, std::ref(force_time)));
  const VelocityVerletT<Real> integrator(static_cast<Real>(config.dt));
  auto& [system, box, lj] = workload;

  result.energies.push_back(
      integrator.prime(system, box, lj, kernel).template cast<double>());
  if (model.reset) model.reset();

  for (int step = 0; step < config.steps; ++step) {
    ModelTime step_time = model.charge_step();
    if (step == 0) step_time += model.launch;
    result.energies.push_back(
        integrator.step(system, box, lj, kernel).template cast<double>());
    step_time += force_time;
    result.step_times.push_back(step_time);
  }

  result.device_time = std::accumulate(
      result.step_times.begin(), result.step_times.end(), ModelTime::zero());
  result.final_state = system.template cast<double>();
}

/// Marshals positions into quadwords with w = 0: the layout the SPEs DMA in
/// and the GPU reads from its position texture.
template <typename Real>
void pack_positions(const std::vector<emdpa::Vec3<Real>>& positions,
                    emdpa::Vec4<Real>* out) {
  for (std::size_t i = 0; i < positions.size(); ++i) {
    out[i] = emdpa::Vec4<Real>(positions[i], Real(0));
  }
}

/// Unmarshals n acceleration quadwords that carry each atom's potential
/// energy in w; the PE is summed in index order.
template <typename Real>
ForceResultT<Real> unpack_forces(const emdpa::Vec4<Real>* quads,
                                 std::size_t n) {
  ForceResultT<Real> forces;
  forces.accelerations.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    forces.accelerations[i] = quads[i].xyz();
    forces.potential_energy += quads[i].w;
  }
  return forces;
}

}  // namespace emdpa::md
