#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/error.h"
#include "core/thread_pool.h"
#include "md/backend.h"
#include "md/observables.h"
#include "md/parallel_neighbor.h"
#include "md/simulation.h"
#include "md/soa_kernel.h"

namespace emdpa::md {
namespace {

Simulation::Options small_options() {
  Simulation::Options options;
  options.workload.n_atoms = 125;
  options.dt = 0.004;
  return options;
}

TEST(Simulation, ConstructsPrimedState) {
  Simulation sim(small_options());
  EXPECT_EQ(sim.system().size(), 125u);
  EXPECT_EQ(sim.current_step(), 0);
  EXPECT_LT(sim.last_energies().potential, 0.0);  // bound liquid
}

TEST(Simulation, StepAdvancesCounterAndEnergies) {
  Simulation sim(small_options());
  const auto e = sim.step();
  EXPECT_EQ(sim.current_step(), 1);
  EXPECT_GT(e.kinetic, 0.0);
  EXPECT_EQ(e.total(), sim.last_energies().total());
}

TEST(Simulation, RunInvokesObserverEveryStep) {
  Simulation sim(small_options());
  int calls = 0;
  long last_step = -1;
  sim.run(5, [&](long step, const StepEnergies&) {
    ++calls;
    last_step = step;
  });
  EXPECT_EQ(calls, 5);
  EXPECT_EQ(last_step, 5);
}

TEST(Simulation, NegativeRunRejected) {
  Simulation sim(small_options());
  EXPECT_THROW(sim.run(-1), ContractViolation);
}

TEST(Simulation, ThermostatPullsTemperatureToTarget) {
  auto options = small_options();
  options.workload.temperature = 2.0;
  Simulation sim(options);
  sim.set_thermostat(BerendsenThermostat(0.5, 0.5));
  sim.run(60);
  EXPECT_NEAR(temperature_of(sim.system()), 0.5, 0.15);
}

TEST(Simulation, ClearThermostatRestoresNve) {
  Simulation sim(small_options());
  sim.set_thermostat(BerendsenThermostat(0.5, 1.0));
  sim.run(5);
  sim.clear_thermostat();
  const double e_before = sim.last_energies().total();
  sim.run(10);
  // NVE: drift stays small (vs the thermostat, which would keep draining).
  EXPECT_NEAR(sim.last_energies().total(), e_before,
              0.05 * std::fabs(e_before));
}

TEST(Simulation, BondsContributeEnergy) {
  Simulation sim(small_options());
  const double pe_before = sim.last_energies().potential;
  // A stretched bond between two far-apart atoms adds positive PE.
  BondTopology bonds;
  bonds.add_bond({0, 124, 10.0, 0.5});
  sim.set_bonds(bonds);
  EXPECT_GT(sim.last_energies().potential, pe_before);
}

TEST(Simulation, CheckpointResumeContinuesBitIdentically) {
  Simulation sim(small_options());
  sim.run(7);

  std::stringstream checkpoint;
  sim.save(checkpoint);
  Simulation resumed = Simulation::resume(checkpoint, small_options());
  EXPECT_EQ(resumed.current_step(), 7);

  sim.run(5);
  resumed.run(5);
  for (std::size_t i = 0; i < sim.system().size(); ++i) {
    EXPECT_EQ(sim.system().positions()[i], resumed.system().positions()[i]);
    EXPECT_EQ(sim.system().velocities()[i], resumed.system().velocities()[i]);
  }
}

TEST(Simulation, DeterministicForSameOptions) {
  Simulation a(small_options());
  Simulation b(small_options());
  a.run(10);
  b.run(10);
  for (std::size_t i = 0; i < a.system().size(); ++i) {
    EXPECT_EQ(a.system().positions()[i], b.system().positions()[i]);
  }
}


TEST(Simulation, MinimizeUsesFullForceField) {
  Simulation sim(small_options());
  // Attach a strongly stretched bond; minimisation must relieve it, which a
  // pure-LJ minimiser could not.
  BondTopology bonds;
  bonds.add_bond({0, 1, 200.0, 0.5});
  sim.set_bonds(bonds);
  const double e0 = sim.last_energies().potential;
  MinimizeOptions options;
  options.max_iterations = 100;
  options.force_tolerance = 0.5;
  const auto r = sim.minimize(options);
  EXPECT_LT(r.final_energy, e0);
  // The integrator was re-primed: stepping works immediately.
  EXPECT_NO_THROW(sim.step());
}


TEST(Simulation, AnglesContributeEnergy) {
  Simulation sim(small_options());
  const double pe_before = sim.last_energies().potential;
  // Three nearby atoms forced toward a straight line from a bent geometry.
  AngleTopology angles;
  angles.add_angle({0, 1, 5, 50.0, 3.14159265358979});
  sim.set_angles(angles);
  EXPECT_GT(sim.last_energies().potential, pe_before);
}

TEST(Simulation, LangevinThermostatControlsTemperature) {
  auto options = small_options();
  options.workload.temperature = 2.5;
  Simulation sim(options);
  sim.set_thermostat(LangevinThermostat(0.8, 5.0, 17));
  sim.run(150);
  EXPECT_NEAR(temperature_of(sim.system()), 0.8, 0.3);
}

TEST(Simulation, SettingOneThermostatClearsTheOther) {
  Simulation sim(small_options());
  sim.set_thermostat(BerendsenThermostat(0.1, 1.0));
  sim.set_thermostat(LangevinThermostat(2.0, 5.0, 3));
  // If Berendsen (target 0.1, instant) were still active the system would
  // freeze; under Langevin at 2.0 it stays hot.
  sim.run(100);
  EXPECT_GT(temperature_of(sim.system()), 1.0);
}

bool bits_equal(const std::vector<Vec3d>& a, const std::vector<Vec3d>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(Vec3d)) == 0;
}

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// The kinds of acceleration array a kernel may be handed back.
enum class Spare { kStale, kLonger, kShorter, kEmpty };

std::vector<Vec3d> spare_array(Spare kind, std::size_t n) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  switch (kind) {
    case Spare::kStale: return std::vector<Vec3d>(n, Vec3d{nan, nan, nan});
    case Spare::kLonger:
      return std::vector<Vec3d>(n + 37, Vec3d{1e300, -1e300, 7.0});
    case Spare::kShorter: return std::vector<Vec3d>(n / 2, Vec3d{-7, -7, -7});
    case Spare::kEmpty: break;
  }
  return {};
}

/// Two kernels fed the same two configurations, one of them handed a spare
/// array of `kind` before each evaluation: its forces (plus a bond chain's
/// when `bonded`) must match the never-recycled kernel's bit for bit, and a
/// spare with room for every atom must be the array compute() returns.
template <typename Kernel>
void expect_spare_arrays_change_no_force_bit() {
  Simulation::Options options;
  options.workload.n_atoms = 1331;
  options.workload.temperature = 1.5;
  options.kernel = SimKernel::kSoaN2;
  Simulation sim(options);
  sim.run(2);
  const std::vector<Vec3d> first = sim.system().positions();
  sim.run(4);
  const std::vector<Vec3d> second = sim.system().positions();
  const std::size_t n = first.size();
  const BondTopology chain = BondTopology::linear_chain(n, 5.0, 1.1);

  ThreadPool pool(3);
  typename Kernel::Options kernel_options;
  kernel_options.pool = &pool;
  for (const bool bonded : {false, true}) {
    for (const Spare kind :
         {Spare::kStale, Spare::kLonger, Spare::kShorter, Spare::kEmpty}) {
      SCOPED_TRACE("bonded=" + std::to_string(bonded) +
                   " spare=" + std::to_string(static_cast<int>(kind)));
      Kernel recycled(kernel_options);
      Kernel fresh(kernel_options);
      for (const std::vector<Vec3d>* positions : {&first, &second}) {
        std::vector<Vec3d> spare = spare_array(kind, n);
        const Vec3d* reused = spare.capacity() >= n ? spare.data() : nullptr;
        recycled.recycle(std::move(spare));
        ForceResult a = recycled.compute(*positions, sim.box(), options.lj, 1.0);
        ForceResult b = fresh.compute(*positions, sim.box(), options.lj, 1.0);
        if (reused != nullptr) {
          EXPECT_EQ(a.accelerations.data(), reused);
        }
        if (bonded) {
          a.potential_energy +=
              chain.accumulate_forces(*positions, sim.box(), 1.0, a.accelerations);
          b.potential_energy +=
              chain.accumulate_forces(*positions, sim.box(), 1.0, b.accelerations);
        }
        EXPECT_TRUE(bits_equal(a.accelerations, b.accelerations));
        EXPECT_TRUE(bits_equal(a.potential_energy, b.potential_energy));
        EXPECT_TRUE(bits_equal(a.virial, b.virial));
        EXPECT_EQ(a.stats.candidates, b.stats.candidates);
        EXPECT_EQ(a.stats.interacting, b.stats.interacting);
      }
    }
  }
}

TEST(KernelRecycle, SoaKernelIgnoresSpareContentsAndSize) {
  expect_spare_arrays_change_no_force_bit<SoaKernel>();
  expect_spare_arrays_change_no_force_bit<SoaKernelF>();
  expect_spare_arrays_change_no_force_bit<SoaKernelMixed>();
}

TEST(KernelRecycle, NeighborListKernelIgnoresSpareContentsAndSize) {
  expect_spare_arrays_change_no_force_bit<NeighborListKernel>();
  expect_spare_arrays_change_no_force_bit<NeighborListKernelF>();
  expect_spare_arrays_change_no_force_bit<NeighborListKernelMixed>();
}

/// LJ plus bonds composed by hand, dropping every array handed back: the
/// allocate-per-evaluation path Simulation's recycling replaced.
class NonRecyclingBondedKernel final : public ForceKernel {
 public:
  NonRecyclingBondedKernel(ForceKernel& lj, const BondTopology& bonds)
      : lj_(lj), bonds_(bonds) {}
  std::string name() const override { return "lj+bonds"; }
  ForceResult compute(const std::vector<Vec3d>& positions,
                      const PeriodicBox& box, const LjParams& lj,
                      double mass) override {
    ForceResult result = lj_.compute(positions, box, lj, mass);
    result.potential_energy +=
        bonds_.accumulate_forces(positions, box, mass, result.accelerations);
    return result;
  }

 private:
  ForceKernel& lj_;
  const BondTopology& bonds_;
};

template <typename Kernel>
void expect_bonded_run_matches_non_recycling_loop(SimKernel kind) {
  ThreadPool pool(3);
  Simulation::Options options;
  options.workload.n_atoms = 1331;
  options.kernel = kind;
  options.pool = &pool;
  const BondTopology chain = BondTopology::linear_chain(1331, 5.0, 1.1);
  Simulation sim(options);
  sim.set_bonds(chain);
  sim.run(20);

  // Simulation's composition by hand: prime on the LJ kernel, re-prime once
  // the bonds attach, then step.
  Workload w = make_lattice_workload(options.workload);
  const PeriodicBox box(
      box_edge_for(options.workload.n_atoms, options.workload.density));
  typename Kernel::Options kernel_options;
  kernel_options.pool = &pool;
  Kernel lj_kernel(kernel_options);
  NonRecyclingBondedKernel bonded(lj_kernel, chain);
  const VelocityVerlet vv(options.dt, &pool);
  vv.prime(w.system, box, options.lj, lj_kernel);
  StepEnergies e = vv.prime(w.system, box, options.lj, bonded);
  for (int s = 0; s < 20; ++s) e = vv.step(w.system, box, options.lj, bonded);

  EXPECT_TRUE(bits_equal(sim.system().positions(), w.system.positions()));
  EXPECT_TRUE(bits_equal(sim.system().velocities(), w.system.velocities()));
  EXPECT_TRUE(
      bits_equal(sim.system().accelerations(), w.system.accelerations()));
  EXPECT_TRUE(bits_equal(sim.last_energies().kinetic, e.kinetic));
  EXPECT_TRUE(bits_equal(sim.last_energies().potential, e.potential));
}

TEST(KernelRecycle, BondedSoaRunMatchesANonRecyclingLoop) {
  expect_bonded_run_matches_non_recycling_loop<SoaKernel>(SimKernel::kSoaN2);
}

TEST(KernelRecycle, BondedListRunMatchesANonRecyclingLoop) {
  expect_bonded_run_matches_non_recycling_loop<NeighborListKernel>(
      SimKernel::kNeighborList);
}

TEST(Simulation, HostParallelReportsPhaseTimesWithinTheWallClock) {
  for (const HostKernel kernel : {HostKernel::kN2, HostKernel::kList}) {
    SCOPED_TRACE(to_string(kernel));
    RunConfig config;
    config.workload.n_atoms = 2048;
    config.steps = 5;
    config.host_kernel = kernel;
    const RunResult r = HostParallelBackend().run(config);
    const double force_ms = r.metadata.at("phase_force_ms");
    const double integrate_ms = r.metadata.at("phase_integrate_ms");
    EXPECT_GT(force_ms, 0.0);
    EXPECT_GT(integrate_ms, 0.0);
    EXPECT_LE(force_ms + integrate_ms,
              r.breakdown.at("host_wall").to_seconds() * 1e3);
  }
}

TEST(Simulation, ListSweepAndBuildPhasesFitInsideTheForcePhase) {
  // 32k atoms over 40 steps rebuilds the list several times; the sweeps,
  // bins and fills are disjoint intervals of the force calls.
  RunConfig config;
  config.workload.n_atoms = 32768;
  config.steps = 40;
  config.host_kernel = HostKernel::kList;
  const RunResult r = HostParallelBackend().run(config);
  ASSERT_GE(r.metadata.at("list_rebuilds"), 2.0);
  const double sweep_ms = r.metadata.at("phase_sweep_ms");
  const double build_ms = r.metadata.at("list_build_bin_ms") +
                          r.metadata.at("list_build_fill_ms");
  EXPECT_GT(sweep_ms, 0.0);
  EXPECT_GT(build_ms, 0.0);
  EXPECT_LE(sweep_ms + build_ms, r.metadata.at("phase_force_ms"));
}

TEST(Simulation, N2RunsReportNoSweepPhase) {
  RunConfig config;
  config.workload.n_atoms = 256;
  config.steps = 2;
  config.host_kernel = HostKernel::kN2;
  const RunResult r = HostParallelBackend().run(config);
  EXPECT_EQ(r.metadata.count("phase_sweep_ms"), 0u);
}

}  // namespace
}  // namespace emdpa::md
