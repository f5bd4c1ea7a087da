#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "core/error.h"
#include "md/observables.h"
#include "md/simulation.h"

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

TEST(Simulation, CellListOptionMatchesBruteForce) {
  auto options = small_options();
  Simulation brute(options);
  options.kernel = SimKernel::kCellList;
  Simulation cells(options);
  brute.run(5);
  cells.run(5);
  EXPECT_NEAR(brute.last_energies().potential, cells.last_energies().potential,
              1e-9 * std::fabs(brute.last_energies().potential));
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

}  // namespace
}  // namespace emdpa::md
