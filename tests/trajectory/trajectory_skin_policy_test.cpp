// The skin-radius rebuild policy is load-bearing: these tests prove the
// displacement check triggers when it must, that the deliberately broken
// kNeverRebuild policy produces measurably wrong forces (so a regression
// that stops rebuilding cannot pass), and that structural invalidation
// (cutoff change) stays on regardless of policy.
#include <gtest/gtest.h>

#include <cmath>

#include "md/parallel_neighbor.h"
#include "md/reference_kernel.h"
#include "md/workload.h"
#include "trajectory_fixture.h"

namespace emdpa::md::testing {
namespace {

constexpr double kSkin = 0.3;

Workload melt_workload(std::size_t n_atoms) {
  WorkloadSpec spec;
  spec.n_atoms = n_atoms;
  return make_lattice_workload(spec);
}

TEST(SkinPolicy, FastMovingAtomForcesRebuild) {
  Workload w = melt_workload(256);
  const LjParams lj;
  ParallelNeighborListT<double> list(kSkin);
  list.build(w.system.positions(), w.box, lj.cutoff);
  EXPECT_FALSE(list.needs_rebuild(w.system.positions(), w.box, lj.cutoff));

  // A drift under skin/2 keeps the list valid...
  std::vector<Vec3d> moved = w.system.positions();
  moved[17].x += 0.4 * kSkin;
  EXPECT_FALSE(list.needs_rebuild(moved, w.box, lj.cutoff));

  // ...but one atom past skin/2 invalidates it, no matter how still the
  // other 255 are.
  moved[17].x += 0.2 * kSkin;
  EXPECT_TRUE(list.needs_rebuild(moved, w.box, lj.cutoff));
}

TEST(SkinPolicy, NeverRebuildIgnoresDisplacementButNotStructure) {
  Workload w = melt_workload(256);
  const LjParams lj;
  ParallelNeighborListT<double> list(kSkin, nullptr, SkinPolicy::kNeverRebuild);
  list.build(w.system.positions(), w.box, lj.cutoff);

  std::vector<Vec3d> moved = w.system.positions();
  moved[17].x += 10.0 * kSkin;  // far beyond any displacement bound
  EXPECT_FALSE(list.needs_rebuild(moved, w.box, lj.cutoff));

  // Structural changes still invalidate: a list indexed for a different
  // cutoff or atom count is memory-unsafe, not merely stale.
  EXPECT_TRUE(list.needs_rebuild(moved, w.box, lj.cutoff * 0.8));
  moved.pop_back();
  EXPECT_TRUE(list.needs_rebuild(moved, w.box, lj.cutoff));
}

// The decisive physics test: walk a real trajectory, then evaluate forces
// at the step-100 configuration.  A kernel following the correct policy has
// rebuilt along the way and reproduces the exact N^2 potential energy; the
// kNeverRebuild kernel is still using the step-0 list and gets it wrong.
// Chaos plays no role here — both kernels see the SAME positions.
TEST(SkinPolicy, NeverRebuildProducesWrongForcesOnAMovedConfiguration) {
  const LjParams lj;

  // Positions after 100 correct steps.
  MeltSpec spec;
  spec.n_atoms = 256;
  spec.steps = 100;
  spec.kernel = SimKernel::kReference;
  const Trajectory moved = run_melt(spec);

  Workload w = melt_workload(256);
  ReferenceKernel reference;
  const double true_pe =
      reference.compute(moved.positions, w.box, lj, 1.0).potential_energy;

  auto stale_pe_with = [&](SkinPolicy policy) {
    NeighborListKernel::Options options;
    options.skin = kSkin;
    options.skin_policy = policy;
    NeighborListKernel kernel(options);
    // Build at the initial lattice, then jump to the moved configuration.
    kernel.compute(w.system.positions(), w.box, lj, 1.0);
    return kernel.compute(moved.positions, w.box, lj, 1.0).potential_energy;
  };

  const double correct_policy_pe =
      stale_pe_with(SkinPolicy::kHalfSkinDisplacement);
  const double never_rebuild_pe = stale_pe_with(SkinPolicy::kNeverRebuild);

  // The rebuilding kernel matches the N^2 truth to rounding error; the
  // frozen list misses pairs that wandered into the cutoff and is off by a
  // physically meaningful margin.
  EXPECT_LT(std::abs(correct_policy_pe - true_pe) / std::abs(true_pe), 1e-9);
  EXPECT_GT(std::abs(never_rebuild_pe - true_pe) / std::abs(true_pe), 1e-3);
}

TEST(SkinPolicy, SimulationReportsRebuildsUnderTheCorrectPolicy) {
  MeltSpec spec;
  spec.n_atoms = 256;
  spec.steps = 200;
  spec.kernel = SimKernel::kNeighborList;

  // The melt moves atoms fast: the half-skin policy must rebuild many
  // times, and the broken policy must keep the single initial build.
  const Trajectory correct = run_melt(spec);
  EXPECT_GT(correct.list_rebuilds, 10u);
  EXPECT_LT(correct.list_rebuilds, 201u);  // the skin buys SOME reuse

  spec.skin_policy = SkinPolicy::kNeverRebuild;
  const Trajectory frozen = run_melt(spec);
  EXPECT_EQ(frozen.list_rebuilds, 1u);
}

// The PR-2 stale-cutoff regression, driven through the kernel seam: a
// cutoff change between evaluations must rebuild and reprice, under either
// policy.
TEST(SkinPolicy, CutoffChangeRebuildsThroughTheKernelSeam) {
  Workload w = melt_workload(256);
  ReferenceKernel reference;

  for (const SkinPolicy policy :
       {SkinPolicy::kHalfSkinDisplacement, SkinPolicy::kNeverRebuild}) {
    NeighborListKernel::Options options;
    options.skin = kSkin;
    options.skin_policy = policy;
    NeighborListKernel kernel(options);

    LjParams wide;
    wide.cutoff = 2.5;
    kernel.compute(w.system.positions(), w.box, wide, 1.0);
    EXPECT_EQ(kernel.rebuilds(), 1u) << to_string(policy);

    LjParams narrow;
    narrow.cutoff = 2.0;
    const double pe =
        kernel.compute(w.system.positions(), w.box, narrow, 1.0)
            .potential_energy;
    EXPECT_EQ(kernel.rebuilds(), 2u) << to_string(policy);

    const double ref_pe =
        reference.compute(w.system.positions(), w.box, narrow, 1.0)
            .potential_energy;
    EXPECT_NEAR(pe, ref_pe, 1e-9 * std::abs(ref_pe)) << to_string(policy);
  }
}

}  // namespace
}  // namespace emdpa::md::testing
