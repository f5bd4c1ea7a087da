// CSR identity of the neighbour-list fill on every ISA and precision.
//
// The list build streams cell-sorted coordinate spans through a per-ISA
// SIMD distance filter (kernel_rows.h ListFill).  Its contract is that the
// CSR bytes do not depend on how the filter runs: for every instruction set
// available on this host, in dp and sp, at 1 and 8 threads, row_begin() and
// entries() must equal a brute-force reference that tests each candidate
// with the scalar rounding box.min_image — the same rows in stencil order
// (cells in table order, atoms within a cell in index order), the same
// self-padding to the 64-byte block.  Configurations: the 50 seeded
// property-harness workloads, a box with exactly `width` cells per axis
// (every z-window wraps), coincident atoms (r2 == 0 but j != i: kept), a
// pair exactly half the edge apart, and mostly-empty cell grids.
//
// Also here: the pool-parallel staleness check and the checked 32-bit CSR
// offset prefix, both of which the fill rests on.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/error.h"
#include "core/random.h"
#include "core/thread_pool.h"
#include "md/list_build_util.h"
#include "md/parallel_neighbor.h"
#include "md/simd_kernels.h"
#include "property_configs.h"

namespace emdpa::md {
namespace {

struct Csr {
  std::vector<std::uint32_t> row_begin;
  std::vector<std::uint32_t> entries;
};

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

/// Brute-force reference CSR: every candidate tested with the scalar
/// rounding minimum image, in the list's candidate order — stencil order
/// over the cell grid, or index order when the box is too small for one.
template <typename Real>
Csr reference_csr(const std::vector<Vec3<Real>>& positions, Real edge,
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

  Csr csr;
  csr.row_begin.push_back(0);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<std::uint32_t> row;
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
    csr.entries.insert(csr.entries.end(), row.begin(), row.end());
    csr.row_begin.push_back(static_cast<std::uint32_t>(csr.entries.size()));
  }
  return csr;
}

/// The list's CSR equals the reference on every available ISA at 1 and 8
/// threads.  Returns the reference for scenario-specific checks.
template <typename Real>
Csr expect_identity(const std::vector<Vec3d>& positions_d, double edge_d,
                    double cutoff_d, double skin_d) {
  const auto positions = narrow<Real>(positions_d);
  const auto edge = static_cast<Real>(edge_d);
  const auto cutoff = static_cast<Real>(cutoff_d);
  const auto skin = static_cast<Real>(skin_d);
  const Csr expected = reference_csr(positions, edge, cutoff, skin);
  for (const simd::SimdType isa : simd_kernels::available_isas()) {
    for (const std::size_t threads : {1u, 8u}) {
      SCOPED_TRACE(::testing::Message()
                   << simd::to_string(isa) << ", " << threads << " threads, "
                   << (sizeof(Real) == 8 ? "dp" : "sp"));
      ThreadPool pool(threads);
      ParallelNeighborListT<Real> list(skin, &pool);
      list.set_isa(isa);
      list.build(positions, PeriodicBoxT<Real>(edge), cutoff);
      EXPECT_EQ(list.row_begin(), expected.row_begin);
      EXPECT_EQ(list.entries(), expected.entries);
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

bool row_contains(const Csr& csr, std::size_t i, std::uint32_t j) {
  for (std::uint32_t k = csr.row_begin[i]; k < csr.row_begin[i + 1]; ++k) {
    if (csr.entries[k] == j) return true;
  }
  return false;
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
  const Csr dp = expect_identity<double>(positions, edge, cutoff, skin);
  const Csr sp = expect_identity<float>(positions, edge, cutoff, skin);
  for (const Csr* csr : {&dp, &sp}) {
    EXPECT_TRUE(row_contains(*csr, 7, 200));
    EXPECT_TRUE(row_contains(*csr, 200, 7));
    EXPECT_TRUE(row_contains(*csr, 41, 42));
    EXPECT_TRUE(row_contains(*csr, 42, 41));
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
  const Csr grid = expect_identity<double>(positions, edge, 2.5, 0.3);
  EXPECT_FALSE(row_contains(grid, 0, 1));
  expect_identity<float>(positions, edge, 2.5, 0.3);

  ASSERT_TRUE(grid_for(edge, 8.5 + 0.3).degenerate());
  const Csr all_pairs = expect_identity<double>(positions, edge, 8.5, 0.3);
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

}  // namespace
}  // namespace emdpa::md
