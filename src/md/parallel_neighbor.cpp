#include "md/parallel_neighbor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <numbers>
#include <string>

#include "core/error.h"
#include "core/fault_injection.h"
#include "md/list_build_util.h"

namespace emdpa::md {

using listutil::run_span;
using listutil::seconds_since;

const char* to_string(SkinPolicy policy) {
  switch (policy) {
    case SkinPolicy::kHalfSkinDisplacement: return "half-skin-displacement";
    case SkinPolicy::kNeverRebuild: return "never-rebuild";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// ParallelNeighborListT
// ---------------------------------------------------------------------------

template <typename Real>
ParallelNeighborListT<Real>::ParallelNeighborListT(Real skin, ThreadPool* pool,
                                                   SkinPolicy policy)
    : skin_(skin), pool_(pool), policy_(policy) {
  EMDPA_REQUIRE(skin >= Real(0), "skin must be non-negative");
}

template <typename Real>
bool ParallelNeighborListT<Real>::needs_rebuild(
    const std::vector<emdpa::Vec3<Real>>& positions,
    const PeriodicBoxT<Real>& box, Real cutoff) const {
  if (build_positions_.size() != positions.size()) return true;
  // A list built for one cutoff silently drops interactions at a larger one
  // — invalidate on ANY cutoff (or box) change, not just growth.
  if (cutoff != build_cutoff_ || box.edge() != build_edge_) return true;
  if (policy_ == SkinPolicy::kNeverRebuild) return false;  // broken on purpose
  // Valid while no atom moved more than half the skin since the build: two
  // atoms approaching from opposite sides close at most `skin` total.  The
  // verdict is an OR over atoms, so splitting it over the pool (chunks stop
  // early once any chunk found a mover) gives the same answer — and so the
  // same rebuild schedule — at any thread count.
  const Real limit_sq = (skin_ / Real(2)) * (skin_ / Real(2));
  std::atomic<bool> stale{false};
  run_span(pool_, positions.size(), kAtomGrain,
           [&](std::size_t b, std::size_t e) {
             if (stale.load(std::memory_order_relaxed)) return;
             for (std::size_t i = b; i < e; ++i) {
               const auto dr =
                   box.min_image(positions[i] - build_positions_[i]);
               if (length_squared(dr) > limit_sq) {
                 stale.store(true, std::memory_order_relaxed);
                 return;
               }
             }
           });
  return stale.load(std::memory_order_relaxed);
}

template <typename Real>
bool ParallelNeighborListT<Real>::ensure(
    const std::vector<emdpa::Vec3<Real>>& positions,
    const PeriodicBoxT<Real>& box, Real cutoff) {
  const auto t_check = std::chrono::steady_clock::now();
  const bool stale = needs_rebuild(positions, box, cutoff);
  check_seconds_total_ += seconds_since(t_check);
  if (!stale) return false;
  build(positions, box, cutoff);
  return true;
}

template <typename Real>
void ParallelNeighborListT<Real>::set_isa(simd::SimdType isa) {
  fill_ = simd_kernels::list_fill<Real>(simd_kernels::rows(isa));
  isa_ = isa;
}

template <typename Real>
ListMemory ParallelNeighborListT<Real>::memory() const {
  ListMemory memory;
  memory.csr_bytes =
      (row_begin_.capacity() + row_end_.capacity()) * sizeof(std::uint32_t) +
      entries_.bytes();
  memory.hist_bytes = bin_hist_.capacity() * sizeof(std::uint32_t);
  return memory;
}

template <typename Real>
void ParallelNeighborListT<Real>::bin_atoms(std::size_t n, std::size_t cells,
                                            std::size_t n_cells,
                                            double inv_cell) {
  // The histogram and merge-scatter passes live in list_build_util.h.
  listutil::bin_pass_histogram(wrapped_, cells, n_cells, inv_cell, pool_,
                               cell_of_atom_, bin_hist_);
  listutil::bin_merge_scatter(n, n_cells, pool_, cell_of_atom_, bin_hist_,
                              cell_start_, cell_atoms_);

  // Cell-sorted SoA copy of the wrapped coordinates: every stencil cell is
  // now a contiguous stream for the fill's SIMD filter.  One 64-byte block
  // of tail padding covers the widest pack's over-read past the last span
  // (those lanes are masked off).
  const std::size_t padded = n + simd::block_lanes<Real>();
  sorted_x_.resize(padded);
  sorted_y_.resize(padded);
  sorted_z_.resize(padded);
  run_span(pool_, n, kAtomGrain, [&](std::size_t s_begin, std::size_t s_end) {
    for (std::size_t s = s_begin; s < s_end; ++s) {
      const emdpa::Vec3<Real>& p = wrapped_[cell_atoms_[s]];
      sorted_x_[s] = p.x;
      sorted_y_[s] = p.y;
      sorted_z_[s] = p.z;
    }
  });
}

template <typename Real>
typename ParallelNeighborListT<Real>::FillTotals
ParallelNeighborListT<Real>::fill_rows(std::size_t cells, std::size_t range,
                                       Real edge) {
  // Chunk k holds the rows of cells [k, k + 1) * kFillCellGrain in
  // cell-sorted order.  A cell's stencil is the same for all its atoms, so
  // its spans are gathered once per cell: for each stencil (x, y) line the
  // z-window is consecutive cell ids — hence one contiguous range of the
  // sorted arrays — except where it wraps past the box edge, which splits
  // it in two.  Spans are appended in stencil order (x, then y, then z with
  // the wrapped part last, exactly the cells' table order) and any span
  // that starts where the previous one ended is merged into it, so the
  // filter streams a few long runs instead of width^3 cells of ~2 atoms.
  //
  // Rows go straight into pages taken in turn from one shared counter, so
  // the pages in use are always a prefix of the block.  Each row is padded
  // in place and the next starts where it ended; when the room left is
  // below a row's stencil bound the task takes a fresh page, or enough
  // consecutive ones.  Past the block's end a task keeps filtering into a
  // throwaway page of its own, so every count stays exact and the counter
  // ends at about the pages the rows need.  Rows are disjoint, so the
  // order in which tasks claim chunks changes only where a row lands,
  // never its bytes.
  const std::size_t width = 2 * range + 1;
  const std::size_t n_lines = cells * cells;
  const std::size_t n_cells = n_lines * cells;
  const std::size_t n_chunks = (n_cells + kFillCellGrain - 1) / kFillCellGrain;
  const std::size_t n_pages = usable_pages();
  const std::uint32_t* cell_start = cell_start_.data();
  std::uint32_t* const block = entries_.data();
  const auto axis = [&](std::size_t a, std::size_t j) {
    return (a + j + cells - range) % cells;
  };
  std::atomic<std::size_t> next_chunk{0};
  std::atomic<std::size_t> next_page{0};
  std::vector<FillTotals> totals(pool_ != nullptr ? pool_->size() : 1);
  run_span(pool_, totals.size(), 1, [&](std::size_t t_begin,
                                         std::size_t t_end) {
    for (std::size_t t = t_begin; t < t_end; ++t) {
      FillTotals& sum = totals[t];
      std::vector<std::uint32_t> spans;
      listutil::RawArray<std::uint32_t> throwaway;
      std::uint32_t* page = nullptr;  // pages taken: [page, page + room)
      std::size_t offset = 0;         // block offset of *page
      std::size_t room = 0;
      const auto add_span = [&](std::uint32_t b, std::uint32_t e) {
        if (b == e) return;
        if (!spans.empty() && spans.back() == b) {
          spans.back() = e;
        } else {
          spans.push_back(b);
          spans.push_back(e);
        }
      };
      for (std::size_t k = next_chunk.fetch_add(1); k < n_chunks;
           k = next_chunk.fetch_add(1)) {
        const std::size_t c_end = std::min(n_cells, (k + 1) * kFillCellGrain);
        for (std::size_t c = k * kFillCellGrain; c < c_end; ++c) {
          const std::uint32_t pop = cell_start[c + 1] - cell_start[c];
          if (pop == 0) continue;
          const std::size_t cx = c / n_lines;
          const std::size_t cy = (c / cells) % cells;
          const std::size_t z0 = axis(c % cells, 0);
          const std::size_t z_end = std::min(z0 + width, cells);
          const std::size_t z_wrapped = z0 + width - z_end;  // from z = 0
          spans.clear();
          for (std::size_t kx = 0; kx < width; ++kx) {
            const std::size_t px = axis(cx, kx);
            for (std::size_t ky = 0; ky < width; ++ky) {
              const std::size_t line = (px * cells + axis(cy, ky)) * cells;
              add_span(cell_start[line + z0], cell_start[line + z_end]);
              add_span(cell_start[line], cell_start[line + z_wrapped]);
            }
          }
          // Each of the cell's rows tests, and so keeps at most, its
          // stencil minus itself.
          const std::size_t tests = stencil_pop_[c] - 1;
          const std::size_t bound = listutil::padded_row<Real>(tests);
          sum.tests += static_cast<std::uint64_t>(pop) * tests;
          for (std::uint32_t s = cell_start[c]; s < cell_start[c + 1]; ++s) {
            if (room < bound) {
              const std::size_t pages =
                  (bound + kPageEntries - 1) / kPageEntries;
              const std::size_t first = next_page.fetch_add(pages);
              room = pages * kPageEntries;
              if (first + pages <= n_pages) {
                offset = first * kPageEntries;
                page = block + offset;
              } else {
                throwaway.reserve_discard(room);
                page = throwaway.data();
              }
            }
            const std::uint32_t i = cell_atoms_[s];
            std::uint32_t* const kept_end =
                fill_(sorted_x_.data(), sorted_y_.data(), sorted_z_.data(),
                      cell_atoms_.data(), spans.data(), spans.size() / 2, s,
                      edge, list_cutoff_sq_, page);
            const auto kept = static_cast<std::size_t>(kept_end - page);
            const std::size_t padded = listutil::padded_row<Real>(kept);
            std::fill(kept_end, page + padded, i);  // self pad, r2 == 0
            row_begin_[i] = static_cast<std::uint32_t>(offset);
            row_end_[i] = static_cast<std::uint32_t>(offset + padded);
            page += padded;
            offset += padded;
            room -= padded;
            sum.kept += kept;
            sum.padded += padded;
          }
        }
      }
    }
  });
  FillTotals all;
  all.pages = next_page.load();
  for (const FillTotals& sum : totals) {
    all.kept += sum.kept;
    all.padded += sum.padded;
    all.tests += sum.tests;
  }
  return all;
}

template <typename Real>
void ParallelNeighborListT<Real>::build(
    const std::vector<emdpa::Vec3<Real>>& positions,
    const PeriodicBoxT<Real>& box, Real cutoff) {
  if (fault::injected("md.list_build")) {
    // Leave the list invalidated so a degraded-then-retried evaluation (or a
    // later healthy step) starts from a clean rebuild, not a half-built list.
    invalidate();
    throw RuntimeFailure("neighbour list: injected rebuild failure");
  }
  // Same contract for a build that throws part-way (the offset guard): the
  // list only becomes valid once every row is in place.
  invalidate();
  ++rebuilds_;
  build_rows(positions, box, cutoff);
  const auto t_copy = std::chrono::steady_clock::now();
  build_positions_ = positions;
  check_seconds_total_ += seconds_since(t_copy);
  build_cutoff_ = cutoff;
  build_edge_ = box.edge();
}

template <typename Real>
void ParallelNeighborListT<Real>::build_rows(
    const std::vector<emdpa::Vec3<Real>>& positions,
    const PeriodicBoxT<Real>& box, Real cutoff) {
  if (!isa_) set_isa(simd_kernels::resolve_isa());
  const std::size_t n = positions.size();
  const Real list_cutoff = cutoff + skin_;
  list_cutoff_sq_ = list_cutoff * list_cutoff;
  directed_entries_ = 0;
  build_distance_tests_ = 0;
  last_bin_seconds_ = 0;
  last_fill_seconds_ = 0;

  const auto t_start = std::chrono::steady_clock::now();
  wrapped_.resize(n);
  run_span(pool_, n, kAtomGrain, [&](std::size_t i_begin, std::size_t i_end) {
    for (std::size_t i = i_begin; i < i_end; ++i) {
      wrapped_[i] = box.wrap(positions[i]);
    }
  });

  // Cell edge targets HALF the list radius: cutoff-sized cells sweep the
  // classic 27-cell stencil, ~16x the volume of the list sphere, while a
  // radius-2 stencil over half-sized cells sweeps ~6x — far fewer wasted
  // distance tests per build.  `range` is however many cells it takes to
  // cover the list radius at the realised cell edge.  A box too small for
  // that stencil (wrap-around would visit a cell twice and duplicate
  // entries), or an empty one, is binned as ONE cell with range 0: its
  // stencil is itself, so every row tests every other atom in index order
  // (the sort is stable), through the same filter and padding.
  const double edge = static_cast<double>(box.edge());
  auto cells_ll =
      static_cast<long long>(edge / (static_cast<double>(list_cutoff) * 0.5));
  if (cells_ll < 1) cells_ll = 1;
  auto cells = static_cast<std::size_t>(cells_ll);
  const double cell_edge = edge / static_cast<double>(cells);
  auto range = static_cast<std::size_t>(
      std::ceil(static_cast<double>(list_cutoff) / cell_edge));
  if (n == 0 || 2 * range + 1 > cells) {
    cells = 1;
    range = 0;
  }

  // Pool-parallel stable counting sort into cells (per-chunk histograms +
  // prefix-merge + scatter) and the cell-sorted coordinate copy.  Atoms stay
  // in index order within each cell, which makes the sweep order (and so
  // the list) independent of thread count.
  const double inv_cell = static_cast<double>(cells) / edge;
  const std::size_t n_cells = cells * cells * cells;
  bin_atoms(n, cells, n_cells, inv_cell);

  // Stencil population per cell, computed separably (one 1-D wrap-around
  // window pass per axis).  Every atom in a cell tests exactly the atoms of
  // that cell's stencil minus itself, so this bounds each row — and gives
  // the build's exact distance-test count — without touching an atom.
  listutil::populate_stencil(cells, range, pool_, cell_start_, stencil_pop_,
                             stencil_tmp_);

  last_bin_seconds_ = seconds_since(t_start);
  bin_seconds_total_ += last_bin_seconds_;
  const auto t_fill = std::chrono::steady_clock::now();

  // The block: a continuing list takes the pages its last build used, a
  // fresh one the uniform-density estimate n rho (4/3) pi r^3 — 1.5x, with
  // a block of padding per row on top.  Either way a page per fill task
  // covers the partly filled last pages, which move with the order tasks
  // claim chunks in, and reserve_discard adds another 1/8.  Pages no task
  // takes are never touched, so generous headroom costs address space, not
  // RSS.
  const std::size_t tasks = pool_ != nullptr ? pool_->size() : 1;
  const auto reserve_pages = [&](std::size_t pages) {
    entries_.reserve_discard(std::min(pages + tasks, kMaxPages) *
                             kPageEntries);
  };
  if (pages_used_ == 0) {
    // A list sphere wider than the box (a one-cell build) still holds at
    // most every atom.
    const double r = static_cast<double>(list_cutoff);
    const double per_row =
        std::min(static_cast<double>(n) / (edge * edge * edge) * (4.0 / 3.0) *
                     std::numbers::pi * r * r * r,
                 static_cast<double>(n)) +
        static_cast<double>(padded_multiple());
    pages_used_ = static_cast<std::size_t>(
                      1.5 * per_row * static_cast<double>(n) / kPageEntries) +
                  1;
  }
  reserve_pages(pages_used_);
  row_begin_.resize(n);
  row_end_.resize(n);

  // One filter pass writes every row in place.  The filter visits a row's
  // candidates in one fixed order — stencil cells in table order, atoms
  // within a cell in index order — so every row is a pure function of the
  // inputs, whatever the thread count or ISA.  A pass that ran out of block
  // still counted every row exactly: the block grows to the pages it asked
  // for, with the same headroom, and the rows are filtered again.
  FillTotals fill = fill_rows(cells, range, box.edge());
  listutil::check_entry_limit(n, fill.padded, csr_limit_);
  if (fill.pages > usable_pages()) ++refills_;
  while (fill.pages > usable_pages()) {
    // The pages must stay addressable by the uint32 offsets too.
    listutil::check_entry_limit(
        n, static_cast<std::uint64_t>(fill.pages) * kPageEntries,
        listutil::kMaxCsrEntries);
    reserve_pages(fill.pages);
    fill = fill_rows(cells, range, box.edge());
  }
  directed_entries_ = fill.kept;
  build_distance_tests_ = fill.tests;
  pages_used_ = fill.pages;
  entry_count_ = fill.pages * kPageEntries;

  last_fill_seconds_ = seconds_since(t_fill);
  fill_seconds_total_ += last_fill_seconds_;
}

template class ParallelNeighborListT<double>;
template class ParallelNeighborListT<float>;

}  // namespace emdpa::md
