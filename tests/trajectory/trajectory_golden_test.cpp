// Golden-trajectory regression tests: the canonical argon-melt runs (64 and
// 256 atoms, 200 velocity-Verlet steps) against committed reference values,
// for every kernel the simulation seam can select.
//
// What is pinned, and why these observables:
//  * the initial energy — a pure function of the deterministic workload, so
//    it holds to ~1e-12 across compilers and SIMD widths;
//  * the TOTAL energy at step 200 — conservation makes total energy robust
//    to rounding-level trajectory divergence (measured spread between
//    default and -march=native builds: ~1e-14 relative), unlike the
//    kinetic/potential split, which chaos scrambles at long horizons;
//  * positions at a SHORT horizon (20 steps) — early enough that Lyapunov
//    growth has not amplified 1-ulp rounding differences above ~1e-12;
//  * the energy-drift envelope over the full 200 steps;
//  * bitwise self-consistency: the same run twice is identical.
//
// Tolerances carry >=1e4 margin over the measured cross-build spread.
#include <gtest/gtest.h>

#include <cmath>

#include "trajectory_fixture.h"

namespace emdpa::md::testing {
namespace {

struct GoldenMelt {
  std::size_t n_atoms;
  double e0_total;
  double e200_total;
  double max_rel_drift;  ///< measured envelope, asserted with ~2x headroom
  std::size_t probe_atoms[3];
  Vec3d pos20[3];
};

// Reference-kernel values, generated from the committed workload
// (density 0.8442, T 1.44, seed 20070326, dt 0.005).
constexpr GoldenMelt kGolden64 = {
    64,
    -182.91815465642151,
    -187.15869611748201,
    0.024,
    {0, 32, 63},
    {{0.67269372209051681, 0.52372220897867428, 0.56469707857985174},
     {2.6852824199732357, 0.58154221872694056, 0.57845809574558094},
     {3.7195854173875995, 3.7155341386564156, 3.6386386115721163}},
};

constexpr GoldenMelt kGolden256 = {
    256,
    499.16696695200750,
    523.21358035351841,
    0.052,
    {0, 128, 255},
    {{0.37479744184898933, 0.48528846939526116, 0.44535836959688269},
     {2.3535708363930330, 4.3712954210107444, 2.3624361403443870},
     {5.4280363216815921, 1.5133248792513372, 3.4458515738191990}},
};

constexpr double kEnergyRelTol = 1e-9;
constexpr double kPositionAbsTol = 1e-9;

constexpr SimKernel kAllKernels[] = {SimKernel::kReference, SimKernel::kSoaN2,
                                     SimKernel::kNeighborList};

double rel_diff(double a, double b) {
  return std::abs(a - b) / std::max(std::abs(b), 1.0);
}

class GoldenTrajectory : public ::testing::TestWithParam<SimKernel> {};

TEST_P(GoldenTrajectory, MatchesCommittedEnergies64) {
  MeltSpec spec;
  spec.n_atoms = kGolden64.n_atoms;
  spec.kernel = GetParam();
  const Trajectory t = run_melt(spec);
  EXPECT_LT(rel_diff(t.energies.front().total(), kGolden64.e0_total),
            kEnergyRelTol);
  EXPECT_LT(rel_diff(t.energies.back().total(), kGolden64.e200_total),
            kEnergyRelTol);
}

TEST_P(GoldenTrajectory, MatchesCommittedEnergies256) {
  MeltSpec spec;
  spec.n_atoms = kGolden256.n_atoms;
  spec.kernel = GetParam();
  const Trajectory t = run_melt(spec);
  EXPECT_LT(rel_diff(t.energies.front().total(), kGolden256.e0_total),
            kEnergyRelTol);
  EXPECT_LT(rel_diff(t.energies.back().total(), kGolden256.e200_total),
            kEnergyRelTol);
}

TEST_P(GoldenTrajectory, MatchesCommittedPositionsAtShortHorizon) {
  for (const GoldenMelt& golden : {kGolden64, kGolden256}) {
    MeltSpec spec;
    spec.n_atoms = golden.n_atoms;
    spec.steps = 20;
    spec.kernel = GetParam();
    const Trajectory t = run_melt(spec);
    for (int k = 0; k < 3; ++k) {
      const Vec3d& p = t.positions[golden.probe_atoms[k]];
      EXPECT_NEAR(p.x, golden.pos20[k].x, kPositionAbsTol);
      EXPECT_NEAR(p.y, golden.pos20[k].y, kPositionAbsTol);
      EXPECT_NEAR(p.z, golden.pos20[k].z, kPositionAbsTol);
    }
  }
}

TEST_P(GoldenTrajectory, EnergyDriftStaysInsideTheEnvelope) {
  for (const GoldenMelt& golden : {kGolden64, kGolden256}) {
    MeltSpec spec;
    spec.n_atoms = golden.n_atoms;
    spec.kernel = GetParam();
    const Trajectory t = run_melt(spec);
    const double e0 = t.energies.front().total();
    for (const StepEnergies& e : t.energies) {
      EXPECT_LT(std::abs(e.total() - e0) / std::abs(e0),
                2.0 * golden.max_rel_drift);
    }
  }
}

TEST_P(GoldenTrajectory, RerunIsBitwiseIdentical) {
  MeltSpec spec;
  spec.n_atoms = 256;
  spec.steps = 60;
  spec.kernel = GetParam();
  const Trajectory a = run_melt(spec);
  const Trajectory b = run_melt(spec);
  ASSERT_EQ(a.energies.size(), b.energies.size());
  for (std::size_t s = 0; s < a.energies.size(); ++s) {
    EXPECT_EQ(a.energies[s].kinetic, b.energies[s].kinetic);
    EXPECT_EQ(a.energies[s].potential, b.energies[s].potential);
  }
  ASSERT_EQ(a.positions.size(), b.positions.size());
  for (std::size_t i = 0; i < a.positions.size(); ++i) {
    EXPECT_EQ(a.positions[i].x, b.positions[i].x);
    EXPECT_EQ(a.positions[i].y, b.positions[i].y);
    EXPECT_EQ(a.positions[i].z, b.positions[i].z);
  }
}

INSTANTIATE_TEST_SUITE_P(AllKernels, GoldenTrajectory,
                         ::testing::ValuesIn(kAllKernels),
                         [](const auto& info) {
                           std::string name = to_string(info.param);
                           for (char& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

// The kernels must also agree with EACH OTHER along the whole horizon, not
// just with the committed endpoints: per-step total energies within 1e-9
// relative of the reference kernel's.
TEST(GoldenTrajectory, KernelsAgreeStepByStep) {
  for (const std::size_t n : {std::size_t(64), std::size_t(256)}) {
    MeltSpec spec;
    spec.n_atoms = n;
    const Trajectory ref = run_melt(spec);
    for (const SimKernel kernel : {SimKernel::kSoaN2, SimKernel::kNeighborList}) {
      spec.kernel = kernel;
      const Trajectory t = run_melt(spec);
      ASSERT_EQ(t.energies.size(), ref.energies.size());
      for (std::size_t s = 0; s < ref.energies.size(); ++s) {
        EXPECT_LT(rel_diff(t.energies[s].total(), ref.energies[s].total()),
                  kEnergyRelTol)
            << to_string(kernel) << " at step " << s << " (" << n << " atoms)";
      }
    }
  }
}

}  // namespace
}  // namespace emdpa::md::testing
