// The list sweep's plain rows: rows whose stencil sits at least one cell
// from every face skip the minimum-image reflection, and that must move no
// bit.  The oracle is the same kernel under SkinPolicy::kNeverRebuild,
// which reflects every row and, while no atom has moved more than skin/2,
// sweeps the very same list.  A 21,952-atom box (a 21-cell grid whose
// interior rows are plain) is built once, then every atom is displaced by
// just under skin/2 without a rebuild; atoms placed next to and across
// every face at the build are pushed outward, so some cross a face and
// wrap to the other side between the build and the sweep.  Accelerations,
// potential energy, virial and interacting-pair counts must be bitwise the
// oracle's in dp, sp and mixed, on every available ISA, at 1 and 4
// threads.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/random.h"
#include "core/thread_pool.h"
#include "md/backend.h"
#include "md/lj_potential.h"
#include "md/parallel_neighbor.h"
#include "md/simd_kernels.h"
#include "md/workload.h"

namespace emdpa::md {
namespace {

constexpr double kSkin = 0.3;

struct Frames {
  std::vector<Vec3d> build;  ///< positions the list is built from
  std::vector<Vec3d> sweep;  ///< displaced by < skin/2, no rebuild
  PeriodicBox box{1.0};
};

/// A jittered 28^3 lattice with every 17th atom moved to within skin/2 of
/// a face (inside or outside it; axis and side in turn), then a second
/// frame in which every atom moved 0.99 * skin/2: face atoms straight out
/// through their face, the rest in a random direction.
Frames frames() {
  WorkloadSpec spec;
  spec.n_atoms = 28 * 28 * 28;
  const Workload w = make_lattice_workload(spec);
  Frames f;
  f.box = w.box;
  const double edge = w.box.edge();
  const double step = 0.99 * kSkin / 2;
  Rng rng(8675309);
  f.build = w.system.positions();
  f.sweep.resize(f.build.size());
  for (std::size_t i = 0; i < f.build.size(); ++i) {
    Vec3d& p = f.build[i];
    p = p + Vec3d{rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2),
                  rng.uniform(-0.2, 0.2)};
    Vec3d d{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
            rng.uniform(-1.0, 1.0)};
    if (i % 17 == 0) {
      const std::size_t k = i / 17;
      double* axis = k % 3 == 0 ? &p.x : k % 3 == 1 ? &p.y : &p.z;
      const bool high = (k / 3) % 2 == 1;
      // Up to 0.9 * skin/2 inside the face, or up to that far outside.
      const double u = rng.uniform(-0.9, 0.9) * kSkin / 2;
      *axis = high ? edge - u : u;
      d = {0, 0, 0};
      (k % 3 == 0 ? d.x : k % 3 == 1 ? d.y : d.z) = high ? 1.0 : -1.0;
    }
    f.sweep[i] = p + d * (step / std::sqrt(length_squared(d)));
  }
  return f;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

template <typename Real, typename Acc>
void expect_plain_rows_match_the_oracle(const Frames& f) {
  const LjParams lj;
  std::size_t crossed = 0;
  for (std::size_t i = 0; i < f.build.size(); ++i) {
    const Vec3d a = f.box.wrap(f.build[i]);
    const Vec3d b = f.box.wrap(f.sweep[i]);
    const double e = f.box.edge() / 2;
    crossed += std::abs(a.x - b.x) > e || std::abs(a.y - b.y) > e ||
               std::abs(a.z - b.z) > e;
  }
  ASSERT_GT(crossed, 100u);  // atoms wrapped through a face, no rebuild
  for (const simd::SimdType isa : simd_kernels::available_isas()) {
    for (const std::size_t threads : {1u, 4u}) {
      SCOPED_TRACE(::testing::Message() << simd::to_string(isa) << ", "
                                        << threads << " threads");
      ThreadPool pool(threads);
      typename NeighborListKernelT<Real, Acc>::Options options;
      options.skin = kSkin;
      options.pool = &pool;
      options.isa = isa;
      NeighborListKernelT<Real, Acc> plain(options);
      options.skin_policy = SkinPolicy::kNeverRebuild;
      NeighborListKernelT<Real, Acc> oracle(options);

      plain.compute(f.build, f.box, lj, 1.0);
      oracle.compute(f.build, f.box, lj, 1.0);
      const ForceResult got = plain.compute(f.sweep, f.box, lj, 1.0);
      const ForceResult want = oracle.compute(f.sweep, f.box, lj, 1.0);
      ASSERT_EQ(plain.rebuilds(), 1u);
      ASSERT_EQ(oracle.rebuilds(), 1u);
      // Some rows skip the reflection, the face rows do not; the oracle
      // skips it nowhere.
      EXPECT_GT(plain.list().sweep_plain_rows(), f.build.size() / 4);
      EXPECT_LT(plain.list().sweep_plain_rows(), f.build.size());
      EXPECT_EQ(oracle.list().sweep_plain_rows(), 0u);

      ASSERT_EQ(got.accelerations.size(), want.accelerations.size());
      std::size_t mismatched = 0;
      for (std::size_t i = 0; i < got.accelerations.size(); ++i) {
        const Vec3d& g = got.accelerations[i];
        const Vec3d& w = want.accelerations[i];
        mismatched += !(same_bits(g.x, w.x) && same_bits(g.y, w.y) &&
                        same_bits(g.z, w.z));
      }
      EXPECT_EQ(mismatched, 0u);
      EXPECT_TRUE(same_bits(got.potential_energy, want.potential_energy));
      EXPECT_TRUE(same_bits(got.virial, want.virial));
      EXPECT_EQ(got.stats.interacting, want.stats.interacting);
      EXPECT_EQ(got.stats.candidates, want.stats.candidates);
    }
  }
}

TEST(ListSweepPlain, MatchesTheReflectingOracleBitwiseInDp) {
  expect_plain_rows_match_the_oracle<double, double>(frames());
}

TEST(ListSweepPlain, MatchesTheReflectingOracleBitwiseInSp) {
  expect_plain_rows_match_the_oracle<float, float>(frames());
}

TEST(ListSweepPlain, MatchesTheReflectingOracleBitwiseInMixed) {
  expect_plain_rows_match_the_oracle<float, double>(frames());
}

TEST(ListSweepPlain, NoRowIsPlainInABoxTooSmallForIt) {
  // 4096 atoms: a 12-cell grid, where 2 * ((2 * range + 2) * cell_edge +
  // skin) exceeds the edge — every row reflects, as in a one-cell build.
  WorkloadSpec spec;
  spec.n_atoms = 4096;
  const Workload w = make_lattice_workload(spec);
  NeighborListKernel::Options options;
  options.skin = kSkin;
  NeighborListKernel kernel(options);
  kernel.compute(w.system.positions(), w.box, LjParams{}, 1.0);
  EXPECT_EQ(kernel.list().sweep_plain_rows(), 0u);
}

TEST(ListSweepPlain, BackendReportsThePlainRowsOfTheLastBuild) {
  RunConfig config;
  config.workload.n_atoms = 32768;
  config.steps = 2;
  config.host_kernel = HostKernel::kList;
  const RunResult list = HostParallelBackend().run(config);
  EXPECT_GT(list.metadata.at("list_sweep_plain_rows"), 0.0);
  EXPECT_LT(list.metadata.at("list_sweep_plain_rows"), 32768.0);

  config.host_kernel = HostKernel::kN2;
  config.workload.n_atoms = 256;
  const RunResult n2 = HostParallelBackend().run(config);
  EXPECT_EQ(n2.metadata.count("list_sweep_plain_rows"), 0u);
}

}  // namespace
}  // namespace emdpa::md
