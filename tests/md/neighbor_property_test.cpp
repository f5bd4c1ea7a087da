// Randomized property harness for the parallel neighbour-list path.
//
// The neighbour list is the hottest correctness-critical data structure in
// the repo: every large-N simulation flows through it.  This suite
// cross-checks the list kernel against an N^2 kernel over ~50 seeded random
// configurations — varying atom count (up to 20k), density, temperature,
// cutoff, skin and box shape, including degenerate boxes barely wider than
// 2*cutoff that force the all-pairs fallback — and asserts three contracts
// on every one:
//
//  1. Physics equivalence: forces, PE and virial match the N^2 reference
//     within double-reduction tolerance, and the unordered interacting-pair
//     count is IDENTICAL (the list may prune candidates, never pairs).
//  2. Bitwise thread invariance: the kernel's output at 2 and 8 threads is
//     bit-for-bit the serial output.
//  3. Bitwise list invariance: the built CSR itself (row offsets AND entry
//     order) is identical at every thread count — the parallel binning pass
//     must produce the exact stable counting sort a serial build would.
//
// Everything is seeded: a failure reproduces from the config index alone.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "core/thread_pool.h"
#include "md/parallel_neighbor.h"
#include "md/reference_kernel.h"
#include "md/soa_kernel.h"
#include "md/workload.h"
#include "list_rows.h"
#include "property_configs.h"

namespace emdpa::md {
namespace {

class NeighborPropertyTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(NeighborPropertyTest, ListMatchesN2AndIsThreadInvariant) {
  const PropertyConfig config = make_config(GetParam());
  SCOPED_TRACE(::testing::Message()
               << "config " << config.index << ": n=" << config.n_atoms
               << " density=" << config.density << " cutoff=" << config.cutoff
               << " skin=" << config.skin << " degenerate="
               << config.degenerate);

  Workload w = make_jittered_workload(config);
  LjParams lj;
  lj.cutoff = config.cutoff;

  // --- 1. physics equivalence against an N^2 kernel -----------------------
  // The scalar reference is ground truth up to 2048 atoms; above that the
  // SoA N^2 kernel stands in (itself pinned bitwise-adjacent to the
  // reference by the md suite) so 20k-atom configs stay affordable.
  ForceResult expected;
  if (config.n_atoms <= 2048) {
    ReferenceKernel ref;
    expected = ref.compute(w.system.positions(), w.box, lj, 1.0);
  } else {
    SoaKernel soa;
    expected = soa.compute(w.system.positions(), w.box, lj, 1.0);
  }

  NeighborListKernel::Options options;
  options.skin = config.skin;
  NeighborListKernel serial(options);
  const auto got = serial.compute(w.system.positions(), w.box, lj, 1.0);

  EXPECT_EQ(got.stats.interacting, expected.stats.interacting);
  EXPECT_LE(got.stats.candidates, expected.stats.candidates);
  const double pe_scale = std::fabs(expected.potential_energy) + 1.0;
  EXPECT_NEAR(got.potential_energy, expected.potential_energy,
              1e-9 * pe_scale);
  EXPECT_NEAR(got.virial, expected.virial, 1e-9 * pe_scale);
  ASSERT_EQ(got.accelerations.size(), expected.accelerations.size());
  for (std::size_t i = 0; i < expected.accelerations.size(); ++i) {
    const double scale = length(expected.accelerations[i]) + 1.0;
    ASSERT_LT(length(got.accelerations[i] - expected.accelerations[i]),
              1e-9 * scale)
        << "atom " << i;
  }

  // --- 2. bitwise kernel invariance across thread counts ------------------
  for (const std::size_t threads : {2u, 8u}) {
    ThreadPool pool(threads);
    NeighborListKernel::Options parallel_options;
    parallel_options.skin = config.skin;
    parallel_options.pool = &pool;
    NeighborListKernel parallel(parallel_options);
    const auto p = parallel.compute(w.system.positions(), w.box, lj, 1.0);
    EXPECT_EQ(p.potential_energy, got.potential_energy) << threads;
    EXPECT_EQ(p.virial, got.virial) << threads;
    EXPECT_EQ(p.stats.candidates, got.stats.candidates) << threads;
    EXPECT_EQ(p.stats.interacting, got.stats.interacting) << threads;
    for (std::size_t i = 0; i < got.accelerations.size(); ++i) {
      ASSERT_EQ(p.accelerations[i], got.accelerations[i])
          << threads << " threads, atom " << i;
    }
  }

  // --- 3. bitwise list invariance: every row, entry order included ---
  ParallelNeighborListT<double> reference_list(config.skin);
  reference_list.build(w.system.positions(), w.box, lj.cutoff);
  for (const std::size_t threads : {2u, 8u}) {
    ThreadPool pool(threads);
    ParallelNeighborListT<double> list(config.skin, &pool);
    list.build(w.system.positions(), w.box, lj.cutoff);
    EXPECT_EQ(list.directed_entries(), reference_list.directed_entries());
    EXPECT_EQ(list.build_distance_tests(),
              reference_list.build_distance_tests());
    ASSERT_EQ(rows_of(list), rows_of(reference_list)) << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(SeededConfigs, NeighborPropertyTest,
                         ::testing::Range<std::size_t>(0, 50));

}  // namespace
}  // namespace emdpa::md
