#include <gtest/gtest.h>

#include <cmath>

#include "core/error.h"
#include "md/observables.h"
#include "md/workload.h"

namespace emdpa::md {
namespace {

TEST(BoxEdge, MatchesDensity) {
  // N / edge^3 == density.
  const double edge = box_edge_for(1000, 0.8);
  EXPECT_NEAR(1000.0 / (edge * edge * edge), 0.8, 1e-12);
}

TEST(BoxEdge, Validation) {
  EXPECT_THROW(box_edge_for(0, 1.0), ContractViolation);
  EXPECT_THROW(box_edge_for(10, 0.0), ContractViolation);
}

TEST(LatticeWorkload, ExactAtomCount) {
  for (std::size_t n : {1u, 7u, 256u, 500u}) {
    WorkloadSpec spec;
    spec.n_atoms = n;
    EXPECT_EQ(make_lattice_workload(spec).system.size(), n);
  }
}

TEST(LatticeWorkload, AllAtomsInsideBox) {
  WorkloadSpec spec;
  spec.n_atoms = 256;
  const Workload w = make_lattice_workload(spec);
  for (const auto& p : w.system.positions()) {
    EXPECT_GE(p.x, 0.0);
    EXPECT_LT(p.x, w.box.edge());
    EXPECT_GE(p.y, 0.0);
    EXPECT_LT(p.y, w.box.edge());
    EXPECT_GE(p.z, 0.0);
    EXPECT_LT(p.z, w.box.edge());
  }
}

/// Every lattice site, cast to Real, is a fixed point of the Real box's
/// wrap: the device models run the cast lattice without wrapping it.
template <typename Real>
void expect_cast_lattice_wrapped(std::size_t n_atoms) {
  WorkloadSpec spec;
  spec.n_atoms = n_atoms;
  const Workload w = make_lattice_workload(spec);
  const PeriodicBoxT<Real> box(static_cast<Real>(w.box.edge()));
  const ParticleSystemT<Real> system = w.system.template cast<Real>();
  for (const auto& p : system.positions()) {
    const auto wrapped = box.wrap(p);
    ASSERT_EQ(wrapped.x, p.x);
    ASSERT_EQ(wrapped.y, p.y);
    ASSERT_EQ(wrapped.z, p.z);
  }
}

TEST(LatticeWorkload, CastPositionsAreAlreadyWrapped) {
  for (std::size_t n : {1u, 7u, 500u, 4096u, 100000u}) {
    SCOPED_TRACE(n);
    expect_cast_lattice_wrapped<double>(n);
    expect_cast_lattice_wrapped<float>(n);
  }
}

TEST(LatticeWorkload, NoOverlappingAtoms) {
  WorkloadSpec spec;
  spec.n_atoms = 216;
  const Workload w = make_lattice_workload(spec);
  const double min_expected = 0.5;  // lattice spacing ~ 1.06 at rho 0.8442
  for (std::size_t i = 0; i < w.system.size(); ++i) {
    for (std::size_t j = i + 1; j < w.system.size(); ++j) {
      const Vec3d dr = w.box.min_image(w.system.positions()[i] -
                                       w.system.positions()[j]);
      EXPECT_GT(length(dr), min_expected);
    }
  }
}

TEST(LatticeWorkload, DeterministicForSameSpec) {
  WorkloadSpec spec;
  spec.n_atoms = 64;
  const Workload a = make_lattice_workload(spec);
  const Workload b = make_lattice_workload(spec);
  for (std::size_t i = 0; i < a.system.size(); ++i) {
    EXPECT_EQ(a.system.positions()[i], b.system.positions()[i]);
    EXPECT_EQ(a.system.velocities()[i], b.system.velocities()[i]);
  }
}

TEST(LatticeWorkload, DifferentSeedsGiveDifferentVelocities) {
  WorkloadSpec a, b;
  a.n_atoms = b.n_atoms = 64;
  b.seed = a.seed + 1;
  const Workload wa = make_lattice_workload(a);
  const Workload wb = make_lattice_workload(b);
  EXPECT_NE(wa.system.velocities()[0], wb.system.velocities()[0]);
  // Positions are lattice-determined, not seeded.
  EXPECT_EQ(wa.system.positions()[0], wb.system.positions()[0]);
}

TEST(LatticeWorkload, ZeroTotalMomentum) {
  WorkloadSpec spec;
  spec.n_atoms = 128;
  const Workload w = make_lattice_workload(spec);
  const Vec3d p = total_momentum_of(w.system);
  EXPECT_NEAR(p.x, 0.0, 1e-10);
  EXPECT_NEAR(p.y, 0.0, 1e-10);
  EXPECT_NEAR(p.z, 0.0, 1e-10);
}

TEST(LatticeWorkload, ExactInitialTemperature) {
  WorkloadSpec spec;
  spec.n_atoms = 128;
  spec.temperature = 1.44;
  const Workload w = make_lattice_workload(spec);
  EXPECT_NEAR(temperature_of(w.system), 1.44, 1e-10);
}

class LatticeTemperatureSweep
    : public ::testing::TestWithParam<double> {};

TEST_P(LatticeTemperatureSweep, TemperatureIsExactAcrossTargets) {
  WorkloadSpec spec;
  spec.n_atoms = 100;
  spec.temperature = GetParam();
  const Workload w = make_lattice_workload(spec);
  EXPECT_NEAR(temperature_of(w.system), GetParam(), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Targets, LatticeTemperatureSweep,
                         ::testing::Values(0.1, 0.5, 1.0, 1.44, 2.0, 5.0));

TEST(LatticeWorkload, ZeroTemperatureMeansZeroVelocities) {
  WorkloadSpec spec;
  spec.n_atoms = 27;
  spec.temperature = 0.0;
  const Workload w = make_lattice_workload(spec);
  for (const auto& v : w.system.velocities()) EXPECT_EQ(v, Vec3d{});
}

TEST(RandomGasWorkload, RespectsMinimumSeparation) {
  WorkloadSpec spec;
  spec.n_atoms = 64;
  spec.density = 0.4;
  const double min_sep = 0.7;
  const Workload w = make_random_gas_workload(spec, min_sep);
  for (std::size_t i = 0; i < w.system.size(); ++i) {
    for (std::size_t j = i + 1; j < w.system.size(); ++j) {
      const Vec3d dr = w.box.min_image(w.system.positions()[i] -
                                       w.system.positions()[j]);
      EXPECT_GE(length(dr), min_sep);
    }
  }
}

TEST(RandomGasWorkload, ImpossiblePackingThrows) {
  WorkloadSpec spec;
  spec.n_atoms = 128;
  spec.density = 1.0;  // edge ~ 5; min_sep 3 cannot fit 128 atoms
  EXPECT_THROW(make_random_gas_workload(spec, 3.0), RuntimeFailure);
}

TEST(AssignThermalVelocities, SingleAtomGetsNoVelocity) {
  ParticleSystem ps(1);
  assign_thermal_velocities(ps, 2.0, 1);
  EXPECT_EQ(ps.velocities()[0], Vec3d{});
}

}  // namespace
}  // namespace emdpa::md
