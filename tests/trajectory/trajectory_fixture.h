// Shared fixture for the trajectory-level regression suite: one canonical
// argon-melt run (the repo-wide default workload — LJ liquid at density
// 0.8442, T 1.44, seed 20070326) driven through md::Simulation with a
// selectable force kernel, recording per-step energies and final positions.
#pragma once

#include <cstddef>
#include <vector>

#include "core/thread_pool.h"
#include "md/simulation.h"

namespace emdpa::md::testing {

struct Trajectory {
  std::vector<StepEnergies> energies;  ///< [0] is the primed initial state
  std::vector<Vec3d> positions;        ///< after the last step
  std::uint64_t list_rebuilds = 0;
};

struct MeltSpec {
  std::size_t n_atoms = 256;
  int steps = 200;
  SimKernel kernel = SimKernel::kReference;
  ThreadPool* pool = nullptr;
  double skin = 0.3;
  SkinPolicy skin_policy = SkinPolicy::kHalfSkinDisplacement;
  double dt = 0.005;
  /// Force the SIMD kernels' instruction set; empty auto-dispatches.
  std::optional<simd::SimdType> isa;
  /// Numeric precision of the fast-path kernels (dp / sp / mixed).
  PrecisionMode precision = PrecisionMode::kDouble;
};

inline Trajectory run_melt(const MeltSpec& spec) {
  Simulation::Options options;
  options.workload.n_atoms = spec.n_atoms;
  options.dt = spec.dt;
  options.kernel = spec.kernel;
  options.skin = spec.skin;
  options.skin_policy = spec.skin_policy;
  options.pool = spec.pool;
  options.simd_isa = spec.isa;
  options.precision = spec.precision;

  Simulation sim(options);
  Trajectory trajectory;
  trajectory.energies.reserve(static_cast<std::size_t>(spec.steps) + 1);
  trajectory.energies.push_back(sim.last_energies());
  sim.run(spec.steps, [&](long, const StepEnergies& e) {
    trajectory.energies.push_back(e);
  });
  trajectory.positions = sim.system().positions();
  trajectory.list_rebuilds = sim.list_rebuilds();
  return trajectory;
}

}  // namespace emdpa::md::testing
