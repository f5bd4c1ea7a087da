// Row identity of the neighbour-list fill on every ISA and precision.
//
// The list build streams cell-sorted coordinate spans through a per-ISA
// SIMD distance filter (kernel_rows.h ListFill) and writes each row once,
// straight into pages of the list's block.  Its contract is that the rows
// do not depend on how the filter runs: for every instruction set available
// on this host, in dp and sp, at 1 and 8 threads, every row
// [row_begin()[i], row_end()[i]) must equal, entry for entry, a brute-force
// reference that tests each candidate with the scalar rounding
// box.min_image — the same rows in stencil order (cells in table order,
// atoms within a cell in index order), the same self-padding to the 64-byte
// block.  Where a row sits in the block is not part of the contract.
// Configurations: the 50 seeded property-harness workloads, a box with
// exactly `width` cells per axis (every z-window wraps), coincident atoms
// (r2 == 0 but j != i: kept), a pair exactly half the edge apart, and
// mostly-empty cell grids.
//
// The block is reused across builds and never value-initialised, so a
// sequence of builds on ONE list object — growing past its capacity (the
// grow-and-filter-again refill), shrinking, regrowing, through the
// all-pairs fallback — must give the rows a fresh list gives, and every
// slot of a shrunken list's rows must be rewritten (no stale index
// survives).
//
// Also here: the pool-parallel staleness check, the checked 32-bit offset
// guard (a build that trips it leaves the list invalid), the bounded
// bin-histogram chunking, and the list counters the host-parallel backend
// reports.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "core/error.h"
#include "core/random.h"
#include "core/thread_pool.h"
#include "md/backend.h"
#include "md/list_build_util.h"
#include "md/lj_potential.h"
#include "md/parallel_neighbor.h"
#include "md/simd_kernels.h"
#include "md/workload.h"
#include "list_rows.h"
#include "property_configs.h"

namespace emdpa::md {
namespace {

template <typename Real>
std::vector<Vec3<Real>> narrow(const std::vector<Vec3d>& positions) {
  std::vector<Vec3<Real>> out;
  out.reserve(positions.size());
  for (const auto& p : positions) {
    out.push_back({static_cast<Real>(p.x), static_cast<Real>(p.y),
                   static_cast<Real>(p.z)});
  }
  return out;
}

/// The cell grid the list derives from (edge, list radius).
struct Grid {
  std::size_t cells = 0;
  std::size_t range = 0;
  std::size_t width() const { return 2 * range + 1; }
  bool degenerate() const { return width() > cells; }
};

template <typename Real>
Grid grid_for(Real edge, Real list_cutoff) {
  const double e = static_cast<double>(edge);
  auto cells = static_cast<long long>(e / (static_cast<double>(list_cutoff) *
                                           0.5));
  if (cells < 1) cells = 1;
  Grid g;
  g.cells = static_cast<std::size_t>(cells);
  g.range = static_cast<std::size_t>(std::ceil(
      static_cast<double>(list_cutoff) / (e / static_cast<double>(cells))));
  return g;
}

/// Brute-force reference rows: every candidate tested with the scalar
/// rounding minimum image, in the list's candidate order — stencil order
/// over the cell grid, or index order when the box is too small for one —
/// then self-padded to the 64-byte block.
template <typename Real>
ListRows reference_rows(const std::vector<Vec3<Real>>& positions, Real edge,
                  Real cutoff, Real skin) {
  const PeriodicBoxT<Real> box(edge);
  const Real list_cutoff = cutoff + skin;
  const Real list_cutoff_sq = list_cutoff * list_cutoff;
  const std::size_t n = positions.size();
  std::vector<Vec3<Real>> wrapped(n);
  for (std::size_t i = 0; i < n; ++i) wrapped[i] = box.wrap(positions[i]);
  auto keep = [&](std::size_t i, std::size_t j) {
    return j != i && length_squared(box.min_image(wrapped[i] - wrapped[j])) <
                         list_cutoff_sq;
  };

  const Grid g = grid_for(edge, list_cutoff);
  const double inv_cell =
      static_cast<double>(g.cells) / static_cast<double>(edge);
  auto axis_cell = [&](Real x) {
    auto c = static_cast<long long>(static_cast<double>(x) * inv_cell);
    if (c < 0) c = 0;
    if (c >= static_cast<long long>(g.cells)) {
      c = static_cast<long long>(g.cells) - 1;
    }
    return static_cast<std::size_t>(c);
  };
  std::vector<std::vector<std::uint32_t>> members;
  if (!g.degenerate()) {
    members.resize(g.cells * g.cells * g.cells);
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t c =
          (axis_cell(wrapped[j].x) * g.cells + axis_cell(wrapped[j].y)) *
              g.cells +
          axis_cell(wrapped[j].z);
      members[c].push_back(static_cast<std::uint32_t>(j));
    }
  }
  auto stencil = [&](std::size_t a, std::size_t k) {
    return (a + k + g.cells - g.range) % g.cells;
  };

  ListRows rows(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<std::uint32_t>& row = rows[i];
    if (g.degenerate()) {
      for (std::size_t j = 0; j < n; ++j) {
        if (keep(i, j)) row.push_back(static_cast<std::uint32_t>(j));
      }
    } else {
      const std::size_t cx = axis_cell(wrapped[i].x);
      const std::size_t cy = axis_cell(wrapped[i].y);
      const std::size_t cz = axis_cell(wrapped[i].z);
      for (std::size_t kx = 0; kx < g.width(); ++kx) {
        for (std::size_t ky = 0; ky < g.width(); ++ky) {
          for (std::size_t kz = 0; kz < g.width(); ++kz) {
            const std::size_t c =
                (stencil(cx, kx) * g.cells + stencil(cy, ky)) * g.cells +
                stencil(cz, kz);
            for (const std::uint32_t j : members[c]) {
              if (keep(i, j)) row.push_back(j);
            }
          }
        }
      }
    }
    while (row.size() % simd::block_lanes<Real>() != 0) {
      row.push_back(static_cast<std::uint32_t>(i));  // self pad
    }
  }
  return rows;
}

std::size_t entry_count(const ListRows& rows) {
  std::size_t count = 0;
  for (const auto& row : rows) count += row.size();
  return count;
}

/// Every row of the list equals the reference's on every available ISA at 1
/// and 8 threads.  Returns the reference for scenario-specific checks.
template <typename Real>
ListRows expect_identity(const std::vector<Vec3d>& positions_d, double edge_d,
                    double cutoff_d, double skin_d) {
  const auto positions = narrow<Real>(positions_d);
  const auto edge = static_cast<Real>(edge_d);
  const auto cutoff = static_cast<Real>(cutoff_d);
  const auto skin = static_cast<Real>(skin_d);
  const ListRows expected = reference_rows(positions, edge, cutoff, skin);
  for (const simd::SimdType isa : simd_kernels::available_isas()) {
    for (const std::size_t threads : {1u, 8u}) {
      SCOPED_TRACE(::testing::Message()
                   << simd::to_string(isa) << ", " << threads << " threads, "
                   << (sizeof(Real) == 8 ? "dp" : "sp"));
      ThreadPool pool(threads);
      ParallelNeighborListT<Real> list(skin, &pool);
      list.set_isa(isa);
      list.build(positions, PeriodicBoxT<Real>(edge), cutoff);
      EXPECT_EQ(rows_of(list), expected);
    }
  }
  return expected;
}

void expect_identity_both(const std::vector<Vec3d>& positions, double edge,
                          double cutoff, double skin) {
  {
    SCOPED_TRACE("dp");
    expect_identity<double>(positions, edge, cutoff, skin);
  }
  {
    SCOPED_TRACE("sp");
    expect_identity<float>(positions, edge, cutoff, skin);
  }
}

std::vector<Vec3d> random_positions(std::size_t n, double edge,
                                    std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec3d> out(n);
  for (auto& p : out) {
    p = {rng.uniform(0.0, edge), rng.uniform(0.0, edge),
         rng.uniform(0.0, edge)};
  }
  return out;
}

bool row_contains(const ListRows& rows, std::size_t i, std::uint32_t j) {
  return std::ranges::find(rows[i], j) != rows[i].end();
}

class ListFillIdentityTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ListFillIdentityTest, MatchesBruteForceOnEveryIsaAndPrecision) {
  const PropertyConfig config = make_config(GetParam());
  SCOPED_TRACE(::testing::Message()
               << "config " << config.index << ": n=" << config.n_atoms
               << " cutoff=" << config.cutoff << " skin=" << config.skin);
  const Workload w = make_jittered_workload(config);
  expect_identity_both(w.system.positions(), w.box.edge(), config.cutoff,
                       config.skin);
}

INSTANTIATE_TEST_SUITE_P(SeededConfigs, ListFillIdentityTest,
                         ::testing::Range<std::size_t>(0, 50));

TEST(ListFillIdentity, CellsEqualWidthWrapsEveryZWindow) {
  // edge 10, list radius 3.9: 5 cells of edge 2, range 2, width 5 — the
  // stencil spans the whole grid, so z-windows wrap into two spans.
  const double edge = 10.0, cutoff = 3.6, skin = 0.3;
  const Grid g = grid_for(edge, cutoff + skin);
  ASSERT_EQ(g.cells, 5u);
  ASSERT_EQ(g.width(), g.cells);
  expect_identity_both(random_positions(400, edge, 11), edge, cutoff, skin);
}

TEST(ListFillIdentity, CoincidentAtomsAreKept) {
  const double edge = 12.0, cutoff = 2.5, skin = 0.3;
  std::vector<Vec3d> positions = random_positions(300, edge, 12);
  positions[7] = positions[200];     // exactly coincident pair
  positions[41] = {0.0, 0.0, 0.0};   // and a pair coincident at the origin,
  positions[42] = {12.0, 0.0, 0.0};  // one of them only after wrapping
  const ListRows dp = expect_identity<double>(positions, edge, cutoff, skin);
  const ListRows sp = expect_identity<float>(positions, edge, cutoff, skin);
  for (const ListRows* rows : {&dp, &sp}) {
    EXPECT_TRUE(row_contains(*rows, 7, 200));
    EXPECT_TRUE(row_contains(*rows, 200, 7));
    EXPECT_TRUE(row_contains(*rows, 41, 42));
    EXPECT_TRUE(row_contains(*rows, 42, 41));
  }
}

TEST(ListFillIdentity, PairExactlyHalfTheEdgeApart) {
  // The reflection tie (|d| == edge/2) on every axis in turn.  A list radius
  // below the half edge (the cell-grid path) never keeps such a pair; the
  // all-pairs fallback of a small box does.
  const double edge = 16.0;
  std::vector<Vec3d> positions = random_positions(200, edge, 13);
  positions[0] = {3.0, 5.0, 7.0};
  positions[1] = {3.0 + edge / 2, 5.0, 7.0};
  positions[2] = {1.0, 2.0 + edge / 2, 4.0};
  positions[3] = {1.0, 2.0, 4.0};
  positions[4] = {9.5, 2.25, 4.0 + edge / 2};
  positions[5] = {9.5, 2.25, 4.0};
  const ListRows grid = expect_identity<double>(positions, edge, 2.5, 0.3);
  EXPECT_FALSE(row_contains(grid, 0, 1));
  expect_identity<float>(positions, edge, 2.5, 0.3);

  ASSERT_TRUE(grid_for(edge, 8.5 + 0.3).degenerate());
  const ListRows all_pairs =
      expect_identity<double>(positions, edge, 8.5, 0.3);
  EXPECT_TRUE(row_contains(all_pairs, 0, 1));
  EXPECT_TRUE(row_contains(all_pairs, 3, 2));
  EXPECT_TRUE(row_contains(all_pairs, 5, 4));
  expect_identity<float>(positions, edge, 8.5, 0.3);
}

TEST(ListFillIdentity, MostlyEmptyCells) {
  // A dilute gas (most cells empty) and a clump in one corner of a large
  // box (empty cells everywhere else, full ones at the wrap).
  const double edge = 30.0;
  expect_identity_both(random_positions(40, edge, 14), edge, 2.5, 0.3);
  std::vector<Vec3d> clump = random_positions(500, 4.0, 15);
  for (auto& p : clump) p = p - Vec3d{2.0, 2.0, 2.0};  // straddles the corner
  expect_identity_both(clump, edge, 2.5, 0.3);
}

TEST(ListFillIdentity, KernelPinsItsIsaIntoTheList) {
  for (const simd::SimdType isa : simd_kernels::available_isas()) {
    NeighborListKernel::Options options;
    options.isa = isa;
    const NeighborListKernel kernel(options);
    ASSERT_TRUE(kernel.list().isa().has_value());
    EXPECT_EQ(*kernel.list().isa(), isa);
  }
}

TEST(ListStaleness, ParallelVerdictMatchesSerialAtAnyThreadCount) {
  const double edge = 20.0, cutoff = 2.5, skin = 0.4;
  const std::vector<Vec3d> start = random_positions(20000, edge, 16);
  const PeriodicBox box(edge);
  // Moves: none; everyone by just under skin/2; one atom (the last one, in
  // the last chunk) by just over skin/2, across the periodic boundary.
  std::vector<std::vector<Vec3d>> moves(3, start);
  for (auto& p : moves[1]) p = p + Vec3d{0.199, 0.0, 0.0};
  moves[2].back() = start.back() + Vec3d{0.0, 0.0, edge - 0.201};
  const bool expected[] = {false, false, true};
  for (const std::size_t threads : {1u, 3u, 8u}) {
    ThreadPool pool(threads);
    ParallelNeighborListT<double> list(skin, &pool);
    list.build(start, box, cutoff);
    for (std::size_t m = 0; m < moves.size(); ++m) {
      EXPECT_EQ(list.needs_rebuild(moves[m], box, cutoff), expected[m])
          << threads << " threads, move " << m;
    }
  }
}

TEST(ListCsrOffsets, PaddedPrefixMatchesTheBlockPadding) {
  const std::vector<std::uint32_t> counts = {1, 9, 0, 16};
  std::vector<std::uint32_t> row_begin;
  EXPECT_EQ(listutil::padded_row_offsets<double>(counts, row_begin), 26u);
  EXPECT_EQ(row_begin, (std::vector<std::uint32_t>{0, 8, 24, 24, 40}));
  EXPECT_EQ(listutil::padded_row_offsets<float>(counts, row_begin), 26u);
  EXPECT_EQ(row_begin, (std::vector<std::uint32_t>{0, 16, 32, 32, 48}));
  EXPECT_EQ(listutil::padded_row_offsets<double>(counts, row_begin, 40), 26u);
}

TEST(ListCsrOffsets, OverflowThrowsWithContextInsteadOfWrapping) {
  const std::vector<std::uint32_t> counts = {1, 9, 0, 16};
  std::vector<std::uint32_t> row_begin;
  try {
    listutil::padded_row_offsets<double>(counts, row_begin, 39);
    FAIL() << "expected the padded-offset guard to throw";
  } catch (const RuntimeFailure& e) {
    const ErrorContext* context = error_context(e);
    ASSERT_NE(context, nullptr);
    EXPECT_EQ(context->atoms, 4);
    EXPECT_EQ(context->detail, "padded entries 40 > limit 39");
    EXPECT_NE(std::string(e.what()).find("32-bit"), std::string::npos);
  }
  // The real limit is the uint32 offset range: a sum that wraps it throws.
  const std::vector<std::uint32_t> huge = {UINT32_MAX - 4, 8};
  EXPECT_THROW(listutil::padded_row_offsets<double>(huge, row_begin),
               RuntimeFailure);
}

// ---------------------------------------------------------------------------
// Storage reuse.

/// One list object per (ISA, threads) rebuilt through a sequence that grows
/// the list past its block (a refill: the build runs out, grows the block
/// and filters again), shrinks it, detours through the all-pairs fallback
/// (a box too small for the stencil) and regrows it past the largest
/// capacity so far.  Every build's rows must equal a freshly
/// constructed list's and the brute-force reference's.
template <typename Real>
void expect_reuse_sequence() {
  struct Step {
    std::size_t n;
    double edge;
    std::uint64_t seed;
  };
  const Step steps[] = {{300, 14.0, 21},   // sparse: small block
                        {2000, 14.0, 22},  // ~7x the entries: grows
                        {500, 14.0, 23},   // shrinks, storage kept
                        {150, 5.0, 24},    // all-pairs fallback
                        {6000, 14.0, 25}}; // past every capacity so far
  const auto cutoff = static_cast<Real>(2.5);
  const auto skin = static_cast<Real>(0.3);
  ASSERT_FALSE(grid_for(static_cast<Real>(14.0), cutoff + skin).degenerate());
  ASSERT_TRUE(grid_for(static_cast<Real>(5.0), cutoff + skin).degenerate());

  std::vector<std::vector<Vec3<Real>>> positions;
  std::vector<ListRows> expected;
  for (const Step& step : steps) {
    positions.push_back(
        narrow<Real>(random_positions(step.n, step.edge, step.seed)));
    expected.push_back(reference_rows(positions.back(),
                                      static_cast<Real>(step.edge), cutoff,
                                      skin));
  }
  ASSERT_GT(entry_count(expected[1]), 2 * entry_count(expected[0]));
  ASSERT_LT(entry_count(expected[2]), entry_count(expected[1]));
  ASSERT_GT(entry_count(expected[4]), 4 * entry_count(expected[1]));

  for (const simd::SimdType isa : simd_kernels::available_isas()) {
    for (const std::size_t threads : {1u, 8u}) {
      ThreadPool pool(threads);
      ParallelNeighborListT<Real> reused(skin, &pool);
      reused.set_isa(isa);
      std::vector<std::uint64_t> csr_bytes;
      for (std::size_t k = 0; k < std::size(steps); ++k) {
        SCOPED_TRACE(::testing::Message()
                     << simd::to_string(isa) << ", " << threads
                     << " threads, " << (sizeof(Real) == 8 ? "dp" : "sp")
                     << ", step " << k);
        const PeriodicBoxT<Real> box(static_cast<Real>(steps[k].edge));
        reused.build(positions[k], box, cutoff);
        ParallelNeighborListT<Real> fresh(skin, &pool);
        fresh.set_isa(isa);
        fresh.build(positions[k], box, cutoff);

        const ListRows rows = rows_of(reused);
        EXPECT_EQ(rows, expected[k]);
        EXPECT_EQ(rows, rows_of(fresh));
        EXPECT_EQ(reused.directed_entries(), fresh.directed_entries());
        EXPECT_EQ(reused.build_distance_tests(), fresh.build_distance_tests());
        csr_bytes.push_back(reused.memory().csr_bytes);
      }
      // The sequence really exercised growth and reuse: the list's storage
      // grew at steps 1 and 4 and was kept (never shrunk) in between.  Step
      // 4 keeps over 4x step 1's entries, more than any block so far holds
      // with its headroom, so the continuing list, which sized its block
      // from the build before, ran out and refilled (step 1 may too).
      EXPECT_GT(csr_bytes[1], csr_bytes[0]);
      EXPECT_GE(csr_bytes[2], csr_bytes[1]);
      EXPECT_GE(csr_bytes[3], csr_bytes[2]);
      EXPECT_GT(csr_bytes[4], csr_bytes[3]);
      EXPECT_GE(reused.refills(), 1u);
    }
  }
}

TEST(ListStorage, GrowShrinkRegrowMatchesAFreshListAndTheReference) {
  {
    SCOPED_TRACE("dp");
    expect_reuse_sequence<double>();
  }
  {
    SCOPED_TRACE("sp");
    expect_reuse_sequence<float>();
  }
}

template <typename Real>
void expect_every_slot_written() {
  // Both sizes in the same box, so the second list is about a quarter of
  // the first and lives inside its block, whose pages still hold indices
  // >= 2048 from the first build.
  const double edge = box_edge_for(4096, 0.8442);
  const auto cutoff = static_cast<Real>(2.5);
  const auto skin = static_cast<Real>(0.3);
  const PeriodicBoxT<Real> box(static_cast<Real>(edge));
  const auto big = narrow<Real>(random_positions(4096, edge, 31));
  const auto small = narrow<Real>(random_positions(2048, edge, 32));
  const ListRows expected =
      reference_rows(small, static_cast<Real>(edge), cutoff, skin);
  for (const simd::SimdType isa : simd_kernels::available_isas()) {
    for (const std::size_t threads : {1u, 8u}) {
      SCOPED_TRACE(::testing::Message()
                   << simd::to_string(isa) << ", " << threads << " threads, "
                   << (sizeof(Real) == 8 ? "dp" : "sp"));
      ThreadPool pool(threads);
      ParallelNeighborListT<Real> list(skin, &pool);
      list.set_isa(isa);
      list.build(big, box, cutoff);
      const std::uint64_t bytes = list.memory().csr_bytes;
      list.build(small, box, cutoff);
      EXPECT_EQ(list.memory().csr_bytes, bytes);  // reused, not reallocated
      EXPECT_EQ(list.refills(), 0u);
      const ListRows rows = rows_of(list);
      ASSERT_EQ(rows.size(), 2048u);
      std::size_t stale = 0;
      for (const auto& row : rows) {
        for (const std::uint32_t e : row) stale += e >= 2048;
      }
      EXPECT_EQ(stale, 0u);
      EXPECT_EQ(rows, expected);
    }
  }
}

TEST(ListStorage, EverySlotIsRewrittenWhenAShrunkenListReusesItsStorage) {
  {
    SCOPED_TRACE("dp");
    expect_every_slot_written<double>();
  }
  {
    SCOPED_TRACE("sp");
    expect_every_slot_written<float>();
  }
}

template <typename Real>
void expect_refill_matches_reference() {
  // A fresh list sizes its block from the uniform-density estimate of the
  // box: 1500 atoms packed into a 4-wide corner of a 20-wide box keep
  // hundreds of neighbours each where the estimate expects about a dozen.
  // The first build runs out, grows the block and filters again; a regrow
  // to 3000 atoms in the same corner runs out of that block too.  Both
  // refills must give the reference rows.
  const double edge = 20.0;
  const auto cutoff = static_cast<Real>(2.5);
  const auto skin = static_cast<Real>(0.3);
  const PeriodicBoxT<Real> box(static_cast<Real>(edge));
  std::vector<std::vector<Vec3<Real>>> clusters;
  std::vector<ListRows> expected;
  for (const std::size_t n : {1500u, 3000u}) {
    std::vector<Vec3d> cluster = random_positions(n, 4.0, 60 + n);
    for (auto& p : cluster) p = p - Vec3d{2.0, 2.0, 2.0};  // over the corner
    clusters.push_back(narrow<Real>(cluster));
    expected.push_back(reference_rows(clusters.back(),
                                      static_cast<Real>(edge), cutoff, skin));
  }
  for (const simd::SimdType isa : simd_kernels::available_isas()) {
    for (const std::size_t threads : {1u, 8u}) {
      SCOPED_TRACE(::testing::Message()
                   << simd::to_string(isa) << ", " << threads << " threads, "
                   << (sizeof(Real) == 8 ? "dp" : "sp"));
      ThreadPool pool(threads);
      ParallelNeighborListT<Real> list(skin, &pool);
      list.set_isa(isa);
      list.build(clusters[0], box, cutoff);
      EXPECT_EQ(list.refills(), 1u);
      EXPECT_EQ(rows_of(list), expected[0]);
      list.build(clusters[0], box, cutoff);  // sized from the last build
      EXPECT_EQ(list.refills(), 1u);
      EXPECT_EQ(rows_of(list), expected[0]);
      list.build(clusters[1], box, cutoff);
      EXPECT_EQ(list.refills(), 2u);
      EXPECT_EQ(rows_of(list), expected[1]);
      EXPECT_EQ(list.rebuilds(), 3u);
    }
  }
}

TEST(ListStorage, DenseClusterRefillsAndMatchesTheReference) {
  {
    SCOPED_TRACE("dp");
    expect_refill_matches_reference<double>();
  }
  {
    SCOPED_TRACE("sp");
    expect_refill_matches_reference<float>();
  }
}

TEST(ListStorage, FreshFluidListNeverRefills) {
  // The density estimate covers a melting lattice with room to spare: one
  // pass per build for the whole run, so list_refills stays 0.
  RunConfig cfg;
  cfg.workload.n_atoms = 32768;
  cfg.steps = 40;
  cfg.host_kernel = HostKernel::kList;
  const RunResult result = HostParallelBackend().run(cfg);
  ASSERT_GE(result.metadata.at("list_rebuilds"), 2.0);
  EXPECT_EQ(result.metadata.at("list_refills"), 0.0);
}

// ---------------------------------------------------------------------------
// Failed builds.

TEST(ListCsrOffsets, FailedBuildLeavesTheListInvalidAndTheNextBuildIsCorrect) {
  // Grid path (edge 12) and all-pairs fallback (edge 5).
  for (const double edge : {12.0, 5.0}) {
    SCOPED_TRACE(::testing::Message() << "edge " << edge);
    const double cutoff = 2.5, skin = 0.3;
    const PeriodicBox box(edge);
    const auto first = random_positions(300, edge, 41);
    const auto second = random_positions(400, edge, 42);
    const ListRows expected = reference_rows(second, edge, cutoff, skin);
    for (const std::size_t threads : {1u, 8u}) {
      ThreadPool pool(threads);
      ParallelNeighborListT<double> list(skin, &pool);
      list.build(first, box, cutoff);
      ASSERT_TRUE(list.valid());

      list.set_csr_limit(entry_count(expected) - 1);
      try {
        list.build(second, box, cutoff);
        FAIL() << "expected the offset guard to throw";
      } catch (const RuntimeFailure& e) {
        const ErrorContext* context = error_context(e);
        ASSERT_NE(context, nullptr);
        EXPECT_EQ(context->atoms, 400);
        EXPECT_NE(std::string(e.what()).find("32-bit"), std::string::npos);
      }
      EXPECT_FALSE(list.valid());
      EXPECT_TRUE(list.needs_rebuild(second, box, cutoff));

      list.set_csr_limit(listutil::kMaxCsrEntries);
      EXPECT_TRUE(list.ensure(second, box, cutoff));
      EXPECT_TRUE(list.valid());
      EXPECT_EQ(rows_of(list), expected);
    }
  }
}

// ---------------------------------------------------------------------------
// Bounded binning histogram.

TEST(ListBinChunks, ChunkCountStaysWithinTheCapUpTo1e8Atoms) {
  std::vector<std::size_t> sizes = {1, 2047, 2048, 2049, 32768, 32769,
                                    103823, 1000000, 10000000, 100000000};
  for (std::size_t n = 1; n <= 100000000; n = n * 3 + 1) sizes.push_back(n);
  for (const std::size_t n : sizes) {
    const std::size_t chunk = listutil::bin_chunk_size(n);
    const std::size_t n_chunks = (n + chunk - 1) / chunk;
    EXPECT_LE(n_chunks, listutil::kMaxBinChunks) << n;
    EXPECT_GE(chunk, listutil::kBinChunkAtoms) << n;
    // The smallest power-of-two multiple of kBinChunkAtoms that fits.
    if (chunk > listutil::kBinChunkAtoms) {
      EXPECT_GT((n + chunk / 2 - 1) / (chunk / 2), listutil::kMaxBinChunks)
          << n;
    }
  }
}

TEST(ListBinChunks, CountingSortDoesNotDependOnTheThreadCount) {
  // 50,000 atoms: 13 histogram chunks of 4096; a 30^3 grid: 27,000 cells,
  // several prefix blocks of listutil::kMergeCells.
  const std::size_t n = 50000, cells = 30;
  const double edge = 30.0;
  const std::size_t n_cells = cells * cells * cells;
  const double inv_cell = static_cast<double>(cells) / edge;
  const PeriodicBox box(edge);
  std::vector<Vec3d> wrapped = random_positions(n, edge, 51);
  for (auto& p : wrapped) p = box.wrap(p);
  ASSERT_GT(n_cells, 2 * listutil::kMergeCells);

  // Reference: a serial stable sort of the atom ids by cell.
  std::vector<std::uint32_t> cell_of(n);
  std::vector<std::uint32_t> expected_atoms(n);
  for (std::size_t i = 0; i < n; ++i) {
    cell_of[i] = static_cast<std::uint32_t>(
        listutil::cell_index(wrapped[i], inv_cell, cells));
    expected_atoms[i] = static_cast<std::uint32_t>(i);
  }
  std::stable_sort(expected_atoms.begin(), expected_atoms.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return cell_of[a] < cell_of[b];
                   });
  std::vector<std::uint32_t> expected_start(n_cells + 1, 0);
  for (std::size_t i = 0; i < n; ++i) ++expected_start[cell_of[i] + 1];
  for (std::size_t c = 0; c < n_cells; ++c) {
    expected_start[c + 1] += expected_start[c];
  }

  const std::size_t chunk = listutil::bin_chunk_size(n);
  const std::size_t n_chunks = (n + chunk - 1) / chunk;
  for (const std::size_t threads : {0u, 1u, 3u, 8u}) {  // 0: no pool
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    std::optional<ThreadPool> pool;
    if (threads > 0) pool.emplace(threads);
    const listutil::RunSpanFn run =
        [&](std::size_t count, std::size_t grain,
            const std::function<void(std::size_t, std::size_t)>& body) {
          if (pool) {
            pool->parallel_for(0, count, grain, body);
          } else {
            body(0, count);
          }
        };
    std::vector<std::uint32_t> cell_of_atom, bin_hist, cell_start, cell_atoms;
    // Stale contents from an earlier, larger use must not leak through.
    bin_hist.assign(2 * n_chunks * n_cells, 7u);
    bin_hist.resize(n_chunks * n_cells / 2);
    listutil::bin_pass_histogram(wrapped, cells, n_cells, inv_cell, run,
                                 cell_of_atom, bin_hist);
    EXPECT_EQ(bin_hist.size(), n_chunks * n_cells);
    EXPECT_LE(bin_hist.size(), listutil::kMaxBinChunks * n_cells);
    listutil::bin_merge_scatter(n, n_cells, run, cell_of_atom, bin_hist,
                                cell_start, cell_atoms);
    EXPECT_EQ(cell_start, expected_start);
    EXPECT_EQ(cell_atoms, expected_atoms);
  }
}

// ---------------------------------------------------------------------------
// Memory counters.

TEST(ListMemoryCounters, BackendReportsBlockEntriesTestsAndHistogram) {
  // Enough steps for rebuilds after the first, which sized its block from
  // the density estimate; the later ones size it from the build before.
  RunConfig cfg;
  cfg.workload.n_atoms = 4096;
  cfg.steps = 40;
  cfg.host_kernel = HostKernel::kList;
  const RunResult list = HostParallelBackend().run(cfg);
  ASSERT_GE(list.metadata.at("list_rebuilds"), 2.0);
  for (const char* key : {"list_csr_bytes", "list_hist_bytes", "list_entries",
                          "list_distance_tests"}) {
    ASSERT_EQ(list.metadata.count(key), 1u) << key;
    EXPECT_GT(list.metadata.at(key), 0.0) << key;
  }
  EXPECT_EQ(list.metadata.at("list_refills"), 0.0);
  EXPECT_EQ(list.metadata.count("list_scratch_bytes"), 0u);  // no scratch
  // The block holds at least every padded entry, 4 bytes each; each kept
  // entry costs at least one distance test.
  EXPECT_GE(list.metadata.at("list_csr_bytes"),
            4.0 * list.metadata.at("list_entries"));
  EXPECT_GE(list.metadata.at("list_distance_tests"),
            list.metadata.at("list_entries"));
  // The histogram holds at most kMaxBinChunks rows of one counter per cell
  // (the list radius is the LJ cutoff plus the default 0.3 skin).
  const Grid g = grid_for(box_edge_for(4096, cfg.workload.density),
                          LjParams{}.cutoff + 0.3);
  const double n_cells = static_cast<double>(g.cells * g.cells * g.cells);
  EXPECT_LE(list.metadata.at("list_hist_bytes"),
            static_cast<double>(listutil::kMaxBinChunks) * n_cells * 4.0);

  cfg.host_kernel = HostKernel::kN2;
  const RunResult n2 = HostParallelBackend().run(cfg);
  for (const char* key : {"list_csr_bytes", "list_hist_bytes", "list_entries",
                          "list_distance_tests", "list_refills"}) {
    EXPECT_EQ(n2.metadata.count(key), 0u) << key;
  }
}

// ---------------------------------------------------------------------------
// Phase timers.

TEST(ListPhases, PhasesSumToTheWallClock) {
  // A 32k list run: setup + force + integrate + store account for the whole
  // wall clock (within 5%), and inside the force phase the sweeps, builds
  // and staleness checks never exceed it.
  RunConfig cfg;
  cfg.workload.n_atoms = 32768;
  cfg.steps = 20;
  cfg.host_kernel = HostKernel::kList;
  const RunResult r = HostParallelBackend().run(cfg);
  const auto ms = [&](const char* key) {
    EXPECT_EQ(r.metadata.count(key), 1u) << key;
    return r.metadata.count(key) ? r.metadata.at(key) : 0.0;
  };
  const double wall = r.breakdown.at("host_wall").to_milliseconds();
  const double phases = ms("phase_setup_ms") + ms("phase_force_ms") +
                        ms("phase_integrate_ms") +
                        (r.metadata.count("phase_store_ms")
                             ? r.metadata.at("phase_store_ms")
                             : 0.0);
  EXPECT_GT(ms("phase_setup_ms"), 0.0);
  EXPECT_NEAR(phases, wall, 0.05 * wall);
  EXPECT_LE(ms("phase_sweep_ms") + ms("list_build_bin_ms") +
                ms("list_build_fill_ms") + ms("phase_list_check_ms"),
            ms("phase_force_ms"));
  EXPECT_GT(ms("phase_list_check_ms"), 0.0);
}

}  // namespace
}  // namespace emdpa::md
