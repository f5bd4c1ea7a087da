#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "core/error.h"
#include "core/thread_pool.h"
#include "md/integrator.h"
#include "md/observables.h"
#include "md/reference_kernel.h"
#include "md/workload.h"

namespace emdpa::md {
namespace {

Workload make_small_fluid(std::size_t n = 64, double temperature = 0.7) {
  WorkloadSpec spec;
  spec.n_atoms = n;
  spec.temperature = temperature;
  return make_lattice_workload(spec);
}

TEST(VelocityVerlet, RejectsNonPositiveTimeStep) {
  EXPECT_THROW(VelocityVerlet(0.0), ContractViolation);
  EXPECT_THROW(VelocityVerlet(-0.1), ContractViolation);
}

TEST(VelocityVerlet, PrimeSetsAccelerations) {
  Workload w = make_small_fluid();
  LjParams lj;
  ReferenceKernel kernel;
  VelocityVerlet vv(0.005);
  const auto e = vv.prime(w.system, w.box, lj, kernel);
  EXPECT_GT(e.kinetic, 0.0);
  EXPECT_LT(e.potential, 0.0);  // bound liquid
  bool any_nonzero = false;
  for (const auto& a : w.system.accelerations()) {
    if (length_squared(a) > 0) any_nonzero = true;
  }
  EXPECT_TRUE(any_nonzero);
}

TEST(VelocityVerlet, MomentumConservedOverManySteps) {
  Workload w = make_small_fluid();
  LjParams lj;
  ReferenceKernel kernel;
  VelocityVerlet vv(0.004);
  vv.prime(w.system, w.box, lj, kernel);
  for (int s = 0; s < 50; ++s) vv.step(w.system, w.box, lj, kernel);
  const Vec3d p = total_momentum_of(w.system);
  EXPECT_NEAR(p.x, 0.0, 1e-9);
  EXPECT_NEAR(p.y, 0.0, 1e-9);
  EXPECT_NEAR(p.z, 0.0, 1e-9);
}

TEST(VelocityVerlet, EnergyConservedWithShiftedPotential) {
  // Shifted LJ removes the cutoff energy discontinuity; with a small step
  // the total energy drift over 200 steps must be tiny.
  Workload w = make_small_fluid(64, 0.5);
  LjParams lj;
  lj.shifted = true;
  ReferenceKernel kernel;
  VelocityVerlet vv(0.002);
  const auto e0 = vv.prime(w.system, w.box, lj, kernel);
  StepEnergies last{};
  for (int s = 0; s < 200; ++s) last = vv.step(w.system, w.box, lj, kernel);
  const double scale = std::fabs(e0.total()) + std::fabs(e0.kinetic);
  EXPECT_NEAR(last.total(), e0.total(), 0.01 * scale);
}

TEST(VelocityVerlet, StepEnergiesAreConsistentWithState) {
  Workload w = make_small_fluid();
  LjParams lj;
  ReferenceKernel kernel;
  VelocityVerlet vv(0.005);
  vv.prime(w.system, w.box, lj, kernel);
  const auto e = vv.step(w.system, w.box, lj, kernel);
  EXPECT_NEAR(e.kinetic, kinetic_energy_of(w.system), 1e-12);
}

TEST(VelocityVerlet, PositionsStayWrapped) {
  Workload w = make_small_fluid(64, 2.0);
  LjParams lj;
  ReferenceKernel kernel;
  VelocityVerlet vv(0.005);
  vv.prime(w.system, w.box, lj, kernel);
  for (int s = 0; s < 20; ++s) vv.step(w.system, w.box, lj, kernel);
  for (const auto& p : w.system.positions()) {
    EXPECT_GE(p.x, 0.0);
    EXPECT_LT(p.x, w.box.edge());
    EXPECT_GE(p.y, 0.0);
    EXPECT_LT(p.y, w.box.edge());
    EXPECT_GE(p.z, 0.0);
    EXPECT_LT(p.z, w.box.edge());
  }
}

TEST(VelocityVerlet, TimeReversible) {
  // Integrate forward, negate velocities, integrate the same number of
  // steps: the system returns (numerically) to its start.
  Workload w = make_small_fluid(32, 0.3);
  const std::vector<Vec3d> start = w.system.positions();
  LjParams lj;
  lj.shifted = true;
  ReferenceKernel kernel;
  VelocityVerlet vv(0.002);
  vv.prime(w.system, w.box, lj, kernel);
  const int steps = 25;
  for (int s = 0; s < steps; ++s) vv.step(w.system, w.box, lj, kernel);
  for (auto& v : w.system.velocities()) v = -v;
  for (int s = 0; s < steps; ++s) vv.step(w.system, w.box, lj, kernel);
  for (std::size_t i = 0; i < start.size(); ++i) {
    const Vec3d dr = w.box.min_image(w.system.positions()[i] - start[i]);
    EXPECT_NEAR(length(dr), 0.0, 1e-8);
  }
}

TEST(VelocityVerlet, FrozenLatticeAtEquilibriumSpacingStaysPut) {
  // A perfect cubic lattice at T=0 is a force-equilibrium configuration by
  // symmetry: nothing should move.  N = 125 = 5^3 fills the lattice exactly
  // AND satisfies the minimum-image validity condition cutoff <= edge/2
  // (edge 5.29 at this density); smaller boxes genuinely break the symmetry
  // through one-sided minimum images.
  WorkloadSpec spec;
  spec.n_atoms = 125;
  spec.temperature = 0.0;
  Workload w = make_lattice_workload(spec);
  LjParams lj;
  ReferenceKernel kernel;
  VelocityVerlet vv(0.005);
  vv.prime(w.system, w.box, lj, kernel);
  const std::vector<Vec3d> start = w.system.positions();
  for (int s = 0; s < 10; ++s) vv.step(w.system, w.box, lj, kernel);
  for (std::size_t i = 0; i < start.size(); ++i) {
    EXPECT_NEAR(length(w.system.positions()[i] - start[i]), 0.0, 1e-9);
  }
}

class TimestepConvergence : public ::testing::TestWithParam<double> {};

TEST_P(TimestepConvergence, SmallerStepsConserveEnergyBetter) {
  Workload w = make_small_fluid(48, 0.6);
  LjParams lj;
  lj.shifted = true;
  ReferenceKernel kernel;
  const double dt = GetParam();
  VelocityVerlet vv(dt);
  const auto e0 = vv.prime(w.system, w.box, lj, kernel);
  StepEnergies last{};
  const int steps = static_cast<int>(0.2 / dt);  // fixed physical time
  for (int s = 0; s < steps; ++s) last = vv.step(w.system, w.box, lj, kernel);
  // Velocity Verlet is O(dt^2) away from the cutoff, but atoms crossing the
  // truncation radius inject O(dt)-ish noise in the (unsmoothed) force, so
  // assert a looser dt^1.5 envelope — still strong enough to catch a broken
  // integrator, whose drift would not shrink with dt at all.
  const double drift = std::fabs(last.total() - e0.total());
  EXPECT_LT(drift, 0.5 * std::pow(dt / 0.004, 1.5) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Steps, TimestepConvergence,
                         ::testing::Values(0.001, 0.002, 0.004));

/// A cheap O(N) force: every atom is pulled toward the box centre by a
/// spring.  Enough to drive the integrator's chunked passes at tens of
/// thousands of atoms without an N^2 kernel.
template <typename Real>
class SpringKernel final : public ForceKernelT<Real> {
 public:
  std::string name() const override { return "spring"; }

  ForceResultT<Real> compute(const std::vector<Vec3<Real>>& positions,
                             const PeriodicBoxT<Real>& box,
                             const LjParamsT<Real>& /*lj*/,
                             Real mass) override {
    ForceResultT<Real> result;
    result.accelerations.resize(positions.size());
    const Real c = Real(0.5) * box.edge();
    for (std::size_t i = 0; i < positions.size(); ++i) {
      const Vec3<Real> d = positions[i] - Vec3<Real>{c, c, c};
      result.accelerations[i] = d * (-kStiffness / mass);
      result.potential_energy += Real(0.5) * kStiffness * length_squared(d);
    }
    return result;
  }

  void recycle(std::vector<Vec3<Real>>&& spare) override {
    recycled.push_back(spare.data());
  }

  static constexpr Real kStiffness = Real(0.25);
  std::vector<const Vec3<Real>*> recycled;  ///< data() of each handed back
};

template <typename T>
bool bits_equal(const T& a, const T& b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

template <typename Real>
bool bits_equal(const std::vector<Vec3<Real>>& a,
                const std::vector<Vec3<Real>>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(Vec3<Real>)) == 0;
}

/// A hot lattice of `n` atoms in `Real`; run with a large dt so atoms near
/// the box faces move far enough to be wrapped.
template <typename Real>
std::pair<ParticleSystemT<Real>, PeriodicBoxT<Real>> hot_system(std::size_t n) {
  WorkloadSpec spec;
  spec.n_atoms = n;
  spec.temperature = 4.0;
  const Workload w = make_lattice_workload(spec);
  return {w.system.template cast<Real>(),
          PeriodicBoxT<Real>(static_cast<Real>(w.box.edge()))};
}

template <typename Real>
class PooledVerlet : public ::testing::Test {};

using Precisions = ::testing::Types<double, float>;
TYPED_TEST_SUITE(PooledVerlet, Precisions);

TYPED_TEST(PooledVerlet, MatchesInlinePassesBitwiseAtAnyThreadCount) {
  using Real = TypeParam;
  constexpr std::size_t kChunk = VelocityVerletT<Real>::kChunkAtoms;
  const LjParamsT<Real> lj = LjParams{}.cast<Real>();
  const Real dt = Real(0.02);
  // Below one chunk (inline even with a pool), an exact multiple of the
  // chunk, and a ragged last chunk.
  for (const std::size_t n : {std::size_t{1000}, 2 * kChunk, 2 * kChunk + 777}) {
    auto [start, box] = hot_system<Real>(n);
    SpringKernel<Real> serial_kernel;
    ParticleSystemT<Real> serial = start;
    const VelocityVerletT<Real> inline_vv(dt);
    inline_vv.prime(serial, box, lj, serial_kernel);
    std::vector<StepEnergiesT<Real>> expected;
    for (int s = 0; s < 20; ++s) {
      expected.push_back(inline_vv.step(serial, box, lj, serial_kernel));
    }

    for (const std::size_t threads : {1, 2, 3, 8}) {
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " threads=" + std::to_string(threads));
      ThreadPool pool(threads);
      SpringKernel<Real> kernel;
      ParticleSystemT<Real> system = start;
      const VelocityVerletT<Real> vv(dt, &pool);
      vv.prime(system, box, lj, kernel);
      for (int s = 0; s < 20; ++s) {
        const StepEnergiesT<Real> e = vv.step(system, box, lj, kernel);
        EXPECT_TRUE(bits_equal(e.kinetic, expected[s].kinetic)) << "step " << s;
        EXPECT_TRUE(bits_equal(e.potential, expected[s].potential));
        const Real ke = kinetic_energy_of(system);
        EXPECT_TRUE(bits_equal(e.kinetic, ke)) << "step " << s;
      }
      EXPECT_TRUE(bits_equal(system.positions(), serial.positions()));
      EXPECT_TRUE(bits_equal(system.velocities(), serial.velocities()));
      EXPECT_TRUE(bits_equal(system.accelerations(), serial.accelerations()));
    }
  }
}

TEST(VelocityVerlet, HandsTheReplacedAccelerationsBackToTheKernel) {
  auto [system, box] = hot_system<double>(64);
  SpringKernel<double> kernel;
  const VelocityVerlet vv(0.005);
  const Vec3d* primed_from = system.accelerations().data();
  vv.prime(system, box, LjParams{}, kernel);
  const Vec3d* stepped_from = system.accelerations().data();
  vv.step(system, box, LjParams{}, kernel);
  ASSERT_EQ(kernel.recycled.size(), 2u);
  EXPECT_EQ(kernel.recycled[0], primed_from);
  EXPECT_EQ(kernel.recycled[1], stepped_from);
}

TEST(VelocityVerlet, PhaseTimesAccumulateWithoutMovingABit) {
  ThreadPool pool(2);
  const std::size_t n = 2 * VelocityVerlet::kChunkAtoms + 5;
  auto [timed, box] = hot_system<double>(n);
  ParticleSystem untimed = timed;
  SpringKernel<double> timed_kernel, untimed_kernel;
  const VelocityVerlet vv(0.01, &pool);
  StepPhaseSeconds phases;
  vv.prime(timed, box, LjParams{}, timed_kernel, &phases);
  vv.prime(untimed, box, LjParams{}, untimed_kernel);
  const StepPhaseSeconds after_prime = phases;
  for (int s = 0; s < 5; ++s) {
    const StepEnergies a = vv.step(timed, box, LjParams{}, timed_kernel, &phases);
    const StepEnergies b = vv.step(untimed, box, LjParams{}, untimed_kernel);
    EXPECT_TRUE(bits_equal(a.kinetic, b.kinetic));
    EXPECT_TRUE(bits_equal(a.potential, b.potential));
  }
  EXPECT_GT(after_prime.force, 0.0);
  EXPECT_GT(phases.force, after_prime.force);
  EXPECT_GT(phases.integrate, after_prime.integrate);
  EXPECT_TRUE(bits_equal(timed.positions(), untimed.positions()));
  EXPECT_TRUE(bits_equal(timed.velocities(), untimed.velocities()));
}

}  // namespace
}  // namespace emdpa::md
