#include <gtest/gtest.h>

#include <cmath>

#include "core/error.h"
#include "core/thread_pool.h"
#include "md/integrator.h"
#include "md/parallel_neighbor.h"
#include "md/reference_kernel.h"
#include "md/soa_kernel.h"
#include "md/workload.h"

namespace emdpa::md {
namespace {

/// The list kernel is the host fast path: it must reproduce the scalar
/// reference exactly — same unordered pair stats, same PE, same forces.
class NeighborListAgreement : public ::testing::TestWithParam<std::size_t> {};

TEST_P(NeighborListAgreement, MatchesReferenceKernel) {
  WorkloadSpec spec;
  spec.n_atoms = GetParam();
  Workload w = make_lattice_workload(spec);
  LjParams lj;

  ReferenceKernel ref;
  NeighborListKernel list;
  const auto a = ref.compute(w.system.positions(), w.box, lj, 1.0);
  const auto b = list.compute(w.system.positions(), w.box, lj, 1.0);

  EXPECT_EQ(a.stats.interacting, b.stats.interacting);
  // Candidates differ by design: the list prunes to cutoff+skin.
  EXPECT_LE(b.stats.candidates, a.stats.candidates);
  const double scale = std::fabs(a.potential_energy) + 1.0;
  EXPECT_NEAR(a.potential_energy, b.potential_energy, 1e-10 * scale);
  EXPECT_NEAR(a.virial, b.virial, 1e-10 * scale);
  ASSERT_EQ(a.accelerations.size(), b.accelerations.size());
  for (std::size_t i = 0; i < a.accelerations.size(); ++i) {
    const double fscale = length(a.accelerations[i]) + 1.0;
    EXPECT_LT(length(a.accelerations[i] - b.accelerations[i]), 1e-10 * fscale)
        << "atom " << i;
  }
}

// 27 exercises the one-cell build of a box too small for the stencil;
// 171 is deliberately not a multiple of any SIMD width; 2048 has a real grid.
INSTANTIATE_TEST_SUITE_P(AtomCounts, NeighborListAgreement,
                         ::testing::Values(27, 64, 171, 256, 512, 2048));

TEST(NeighborListKernel, MatchesReferenceOnRandomGas) {
  WorkloadSpec spec;
  spec.n_atoms = 150;
  spec.density = 0.5;
  Workload w = make_random_gas_workload(spec, 0.8);
  LjParams lj;

  ReferenceKernel ref;
  NeighborListKernel list;
  const auto a = ref.compute(w.system.positions(), w.box, lj, 1.0);
  const auto b = list.compute(w.system.positions(), w.box, lj, 1.0);
  EXPECT_EQ(a.stats.interacting, b.stats.interacting);
  EXPECT_NEAR(a.potential_energy, b.potential_energy, 1e-10);
}

TEST(NeighborListKernel, ParallelIsBitIdenticalAcrossThreadCounts) {
  // The build's two-pass sweep and the kernel's ordered row reduction make
  // the result a pure function of the inputs: any pool size, same bits.
  WorkloadSpec spec;
  spec.n_atoms = 500;
  spec.temperature = 0.5;
  Workload w = make_lattice_workload(spec);
  LjParams lj;

  NeighborListKernel serial;
  const auto want = serial.compute(w.system.positions(), w.box, lj, 1.0);

  for (const std::size_t threads : {1u, 4u, 8u}) {
    ThreadPool pool(threads);
    NeighborListKernel::Options options;
    options.pool = &pool;
    NeighborListKernel parallel(options);
    const auto got = parallel.compute(w.system.positions(), w.box, lj, 1.0);
    EXPECT_EQ(got.potential_energy, want.potential_energy) << threads;
    EXPECT_EQ(got.virial, want.virial) << threads;
    EXPECT_EQ(got.stats.candidates, want.stats.candidates) << threads;
    EXPECT_EQ(got.stats.interacting, want.stats.interacting) << threads;
    for (std::size_t i = 0; i < want.accelerations.size(); ++i) {
      EXPECT_EQ(got.accelerations[i], want.accelerations[i])
          << threads << " threads, atom " << i;
    }
  }
}

TEST(NeighborListKernel, ReusesListAcrossCloseConfigurations) {
  WorkloadSpec spec;
  spec.n_atoms = 256;
  spec.temperature = 0.5;
  Workload w = make_lattice_workload(spec);
  LjParams lj;

  NeighborListKernel::Options options;
  options.skin = 0.4;
  NeighborListKernel kernel(options);
  ReferenceKernel ref;
  VelocityVerlet vv(0.002);
  vv.prime(w.system, w.box, lj, ref);
  for (int s = 0; s < 20; ++s) {
    vv.step(w.system, w.box, lj, ref);
    const auto a = ref.compute(w.system.positions(), w.box, lj, 1.0);
    const auto b = kernel.compute(w.system.positions(), w.box, lj, 1.0);
    EXPECT_NEAR(a.potential_energy, b.potential_energy,
                1e-9 * std::fabs(a.potential_energy))
        << "step " << s;
  }
  EXPECT_EQ(kernel.evaluations(), 20u);
  EXPECT_LT(kernel.rebuilds(), 8u);
  EXPECT_GE(kernel.rebuilds(), 1u);
}

TEST(NeighborListKernel, CutoffChangeForcesRebuild) {
  // Same stale-cutoff scenario as VerletListKernel.CutoffChangeForcesRebuild:
  // the list path must never reuse a list built for a different cutoff.
  std::vector<Vec3d> pos = {{5.0, 5.0, 5.0}, {7.0, 5.0, 5.0}};
  PeriodicBox box(20.0);
  NeighborListKernel kernel;

  LjParams narrow;
  narrow.cutoff = 1.5;
  const auto before = kernel.compute(pos, box, narrow, 1.0);
  EXPECT_EQ(before.stats.interacting, 0u);
  EXPECT_EQ(before.potential_energy, 0.0);

  LjParams wide;
  wide.cutoff = 2.5;
  const auto after = kernel.compute(pos, box, wide, 1.0);
  EXPECT_EQ(kernel.rebuilds(), 2u);
  EXPECT_EQ(after.stats.interacting, 1u);
  EXPECT_NEAR(after.potential_energy, wide.pair_energy(4.0), 1e-12);
}

TEST(NeighborListKernel, SkinDisplacementForcesRebuild) {
  WorkloadSpec spec;
  spec.n_atoms = 64;
  Workload w = make_lattice_workload(spec);
  LjParams lj;
  NeighborListKernel::Options options;
  options.skin = 0.3;
  NeighborListKernel kernel(options);
  kernel.compute(w.system.positions(), w.box, lj, 1.0);
  EXPECT_EQ(kernel.rebuilds(), 1u);

  // Within skin/2: reuse.
  w.system.positions()[0].x += 0.1;
  kernel.compute(w.system.positions(), w.box, lj, 1.0);
  EXPECT_EQ(kernel.rebuilds(), 1u);

  // Past skin/2: rebuild.
  w.system.positions()[0].x += 0.1;
  kernel.compute(w.system.positions(), w.box, lj, 1.0);
  EXPECT_EQ(kernel.rebuilds(), 2u);
}

TEST(NeighborListKernel, CandidatesBoundedByListNotNSquared) {
  WorkloadSpec spec;
  spec.n_atoms = 2048;
  Workload w = make_lattice_workload(spec);
  LjParams lj;
  NeighborListKernel kernel;
  const auto r = kernel.compute(w.system.positions(), w.box, lj, 1.0);
  EXPECT_LT(r.stats.candidates, 2048ull * 100ull);
  EXPECT_GT(r.stats.interacting, 0u);

  SoaKernel soa;
  const auto n2 = soa.compute(w.system.positions(), w.box, lj, 1.0);
  EXPECT_EQ(r.stats.interacting, n2.stats.interacting);
  EXPECT_LT(r.stats.candidates, n2.stats.candidates / 10);
}

TEST(NeighborListKernel, SinglePrecisionInstantiation) {
  WorkloadSpec spec;
  spec.n_atoms = 125;
  Workload w = make_lattice_workload(spec);
  std::vector<Vec3f> pos;
  for (const auto& p : w.system.positions()) pos.push_back(vec_cast<float>(p));
  const PeriodicBoxF box(static_cast<float>(w.box.edge()));
  const auto lj = LjParams{}.cast<float>();

  ReferenceKernelF ref;
  NeighborListKernelF kernel;
  const auto a = ref.compute(pos, box, lj, 1.0f);
  // The sp kernel takes the doubles `pos`, `box` and `lj` were narrowed from.
  const auto b = kernel.compute(w.system.positions(), w.box, LjParams{}, 1.0);
  EXPECT_EQ(a.stats.interacting, b.stats.interacting);
  EXPECT_NEAR(b.potential_energy, a.potential_energy,
              1e-4f * std::fabs(a.potential_energy));
}

// The Verlet-list contract of the paper's section 3.4 -- each atom keeps the
// neighbours within cutoff + skin, and the list is reused until some atom has
// moved skin/2 or the cutoff, box or atom count changes -- checked on
// NeighborListKernel, the host's one list kernel.
NeighborListKernel verlet_kernel(double skin) {
  NeighborListKernel::Options options;
  options.skin = skin;
  return NeighborListKernel(options);
}

TEST(VerletListKernel, RejectsNegativeSkin) {
  EXPECT_THROW(verlet_kernel(-0.1), ContractViolation);
}

class VerletListAgreement : public ::testing::TestWithParam<std::size_t> {};

TEST_P(VerletListAgreement, MatchesReferenceKernel) {
  WorkloadSpec spec;
  spec.n_atoms = GetParam();
  Workload w = make_lattice_workload(spec);
  LjParams lj;

  ReferenceKernel ref;
  NeighborListKernel verlet = verlet_kernel(0.3);
  const auto a = ref.compute(w.system.positions(), w.box, lj, 1.0);
  const auto b = verlet.compute(w.system.positions(), w.box, lj, 1.0);
  // PairStats speak the same unordered-pair language across kernels.
  EXPECT_EQ(a.stats.interacting, b.stats.interacting);
  EXPECT_NEAR(a.potential_energy, b.potential_energy,
              1e-9 * std::fabs(a.potential_energy));
  for (std::size_t i = 0; i < a.accelerations.size(); ++i) {
    EXPECT_NEAR(a.accelerations[i].x, b.accelerations[i].x, 1e-9);
    EXPECT_NEAR(a.accelerations[i].y, b.accelerations[i].y, 1e-9);
    EXPECT_NEAR(a.accelerations[i].z, b.accelerations[i].z, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(AtomCounts, VerletListAgreement,
                         ::testing::Values(64, 125, 256, 512));

TEST(VerletListKernel, ReusesListAcrossCloseConfigurations) {
  WorkloadSpec spec;
  spec.n_atoms = 256;
  spec.temperature = 0.5;
  Workload w = make_lattice_workload(spec);
  LjParams lj;

  NeighborListKernel kernel = verlet_kernel(0.4);
  ReferenceKernel ref;
  VelocityVerlet vv(0.002);
  // Drive the system with the reference kernel, querying the list kernel
  // each step and checking it stays correct while reusing its list.
  vv.prime(w.system, w.box, lj, ref);
  for (int s = 0; s < 20; ++s) {
    vv.step(w.system, w.box, lj, ref);
    const auto a = ref.compute(w.system.positions(), w.box, lj, 1.0);
    const auto b = kernel.compute(w.system.positions(), w.box, lj, 1.0);
    EXPECT_NEAR(a.potential_energy, b.potential_energy,
                1e-9 * std::fabs(a.potential_energy))
        << "step " << s;
  }
  EXPECT_EQ(kernel.evaluations(), 20u);
  // "Updated every few simulation time steps": far fewer rebuilds than
  // evaluations.
  EXPECT_LT(kernel.rebuilds(), 8u);
  EXPECT_GE(kernel.rebuilds(), 1u);
}

TEST(VerletListKernel, ZeroSkinRebuildsEveryMove) {
  WorkloadSpec spec;
  spec.n_atoms = 64;
  spec.temperature = 0.5;
  Workload w = make_lattice_workload(spec);
  LjParams lj;
  NeighborListKernel kernel = verlet_kernel(0.0);
  kernel.compute(w.system.positions(), w.box, lj, 1.0);
  w.system.positions()[0].x += 0.01;
  kernel.compute(w.system.positions(), w.box, lj, 1.0);
  EXPECT_EQ(kernel.rebuilds(), 2u);
}

TEST(VerletListKernel, CandidatesBoundedByListNotNSquared) {
  WorkloadSpec spec;
  spec.n_atoms = 2048;
  Workload w = make_lattice_workload(spec);
  LjParams lj;
  NeighborListKernel kernel = verlet_kernel(0.3);
  const auto r = kernel.compute(w.system.positions(), w.box, lj, 1.0);
  // List candidates ~ N * (neighbours within cutoff+skin) << N^2.
  EXPECT_LT(r.stats.candidates, 2048ull * 200ull);
  EXPECT_GT(r.stats.interacting, 0u);
}

TEST(VerletListKernel, CutoffChangeForcesRebuild) {
  // Regression: a list reused across a cutoff change silently drops every
  // pair between the old and new radius.  Two atoms at r = 2.0: invisible
  // at cutoff 1.5, interacting at cutoff 2.5.
  std::vector<Vec3d> pos = {{5.0, 5.0, 5.0}, {7.0, 5.0, 5.0}};
  PeriodicBox box(20.0);
  NeighborListKernel kernel = verlet_kernel(0.3);

  LjParams narrow;
  narrow.cutoff = 1.5;
  const auto before = kernel.compute(pos, box, narrow, 1.0);
  EXPECT_EQ(before.stats.interacting, 0u);
  EXPECT_EQ(before.potential_energy, 0.0);

  LjParams wide;
  wide.cutoff = 2.5;
  const auto after = kernel.compute(pos, box, wide, 1.0);
  EXPECT_EQ(kernel.rebuilds(), 2u);
  EXPECT_EQ(after.stats.interacting, 1u);
  EXPECT_NEAR(after.potential_energy, wide.pair_energy(4.0), 1e-12);
  EXPECT_NE(after.accelerations[0].x, 0.0);

  // Shrinking back must also rebuild: the wide list holds pairs the narrow
  // cutoff-plus-skin radius should never have admitted as candidates.
  const auto again = kernel.compute(pos, box, narrow, 1.0);
  EXPECT_EQ(kernel.rebuilds(), 3u);
  EXPECT_EQ(again.stats.candidates, 0u);
}

TEST(VerletListKernel, AtomCountChangeForcesRebuild) {
  LjParams lj;
  NeighborListKernel kernel = verlet_kernel(0.3);
  WorkloadSpec small_spec;
  small_spec.n_atoms = 64;
  Workload small = make_lattice_workload(small_spec);
  kernel.compute(small.system.positions(), small.box, lj, 1.0);

  WorkloadSpec big_spec;
  big_spec.n_atoms = 125;
  Workload big = make_lattice_workload(big_spec);
  const auto r = kernel.compute(big.system.positions(), big.box, lj, 1.0);
  EXPECT_EQ(kernel.rebuilds(), 2u);
  EXPECT_EQ(r.accelerations.size(), 125u);
}

TEST(VerletListKernel, SinglePrecisionInstantiation) {
  WorkloadSpec spec;
  spec.n_atoms = 125;
  Workload w = make_lattice_workload(spec);
  NeighborListKernelF::Options options;
  options.skin = 0.3;
  NeighborListKernelF kernel(options);
  const auto r = kernel.compute(w.system.positions(), w.box, LjParams{}, 1.0);
  EXPECT_LT(r.potential_energy, 0.0);
}

TEST(ParallelNeighborList, PaddedRowsHoldSelfIndex) {
  WorkloadSpec spec;
  spec.n_atoms = 64;
  Workload w = make_lattice_workload(spec);
  LjParams lj;

  ParallelNeighborListT<double> list(0.3);
  list.build(w.system.positions(), w.box, lj.cutoff);
  const auto& begin = list.row_begin();
  const auto& end = list.row_end();
  const auto entries = list.entries();
  ASSERT_EQ(begin.size(), 64u);
  ASSERT_EQ(end.size(), 64u);
  // Rows are padded to the ISA-independent accumulation block, not the
  // dispatched pack width, so one list layout serves every runtime ISA.
  const std::size_t width = NeighborListKernel::block_width();
  std::uint64_t directed = 0;
  for (std::size_t i = 0; i < 64; ++i) {
    const std::size_t extent = end[i] - begin[i];
    EXPECT_EQ(extent % width, 0u) << "row " << i;
    ASSERT_LE(end[i], entries.size()) << "row " << i;
    for (std::size_t k = begin[i]; k < end[i]; ++k) {
      if (entries[k] == i) continue;  // padding (or a coincident self slot)
      ++directed;
    }
  }
  EXPECT_EQ(directed, list.directed_entries());
  EXPECT_GT(directed, 0u);
}

TEST(ParallelNeighborList, EnsureRebuildsOnlyWhenStale) {
  WorkloadSpec spec;
  spec.n_atoms = 64;
  Workload w = make_lattice_workload(spec);
  LjParams lj;

  ParallelNeighborListT<double> list(0.3);
  EXPECT_TRUE(list.ensure(w.system.positions(), w.box, lj.cutoff));
  EXPECT_FALSE(list.ensure(w.system.positions(), w.box, lj.cutoff));
  EXPECT_TRUE(list.ensure(w.system.positions(), w.box, lj.cutoff + 0.5));
  list.invalidate();
  EXPECT_TRUE(list.ensure(w.system.positions(), w.box, lj.cutoff));
  EXPECT_EQ(list.rebuilds(), 3u);
}

}  // namespace
}  // namespace emdpa::md
