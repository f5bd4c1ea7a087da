#include "md/parallel_neighbor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <string>

#include "core/error.h"
#include "core/fault_injection.h"
#include "md/list_build_util.h"

namespace emdpa::md {

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
                                                   std::size_t grain,
                                                   SkinPolicy policy)
    : skin_(skin), pool_(pool), grain_(grain), policy_(policy) {
  EMDPA_REQUIRE(skin >= Real(0), "skin must be non-negative");
}

template <typename Real>
void ParallelNeighborListT<Real>::run_rows(
    std::size_t n,
    const std::function<void(std::size_t, std::size_t)>& body) const {
  run_span(n, grain_, body);
}

template <typename Real>
void ParallelNeighborListT<Real>::run_span(
    std::size_t n, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& body) const {
  if (pool_ != nullptr) {
    pool_->parallel_for(0, n, grain, body);
  } else {
    body(0, n);
  }
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
  run_span(positions.size(), kStaleGrain, [&](std::size_t b, std::size_t e) {
    if (stale.load(std::memory_order_relaxed)) return;
    for (std::size_t i = b; i < e; ++i) {
      const auto dr = box.min_image(positions[i] - build_positions_[i]);
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
  if (!needs_rebuild(positions, box, cutoff)) return false;
  build(positions, box, cutoff);
  return true;
}

template <typename Real>
void ParallelNeighborListT<Real>::set_isa(simd::SimdType isa) {
  fill_ = simd_kernels::list_fill<Real>(simd_kernels::rows(isa));
  isa_ = isa;
}

template <typename Real>
void ParallelNeighborListT<Real>::build_all_pairs(
    const std::vector<emdpa::Vec3<Real>>& wrapped,
    const PeriodicBoxT<Real>& box) {
  listutil::build_all_pairs_csr<Real>(
      wrapped, box, list_cutoff_sq_,
      [this](std::size_t n,
             const std::function<void(std::size_t, std::size_t)>& body) {
        run_rows(n, body);
      },
      row_begin_, entries_, row_count_, directed_entries_,
      build_distance_tests_);
}

template <typename Real>
void ParallelNeighborListT<Real>::bin_atoms(std::size_t n, std::size_t cells,
                                            std::size_t n_cells,
                                            double inv_cell) {
  // The three passes live in list_build_util.h, SHARED with the sharded
  // build — one copy of the stable counting sort is what makes "sharded CSR
  // == flat CSR" provable rather than merely tested.
  auto run = [this](std::size_t count, std::size_t grain,
                    const std::function<void(std::size_t, std::size_t)>& body) {
    run_span(count, grain, body);
  };
  listutil::bin_pass_histogram(wrapped_, cells, n_cells, inv_cell, run,
                               cell_of_atom_, bin_hist_);
  listutil::bin_merge_scatter(n, n_cells, run, cell_of_atom_, bin_hist_,
                              cell_start_, cell_atoms_);

  // Cell-sorted SoA copy of the wrapped coordinates: every stencil cell is
  // now a contiguous stream for the fill's SIMD filter.  One 64-byte block
  // of tail padding covers the widest pack's over-read past the last span
  // (those lanes are masked off).
  const std::size_t padded = n + simd::block_lanes<Real>();
  sorted_x_.resize(padded);
  sorted_y_.resize(padded);
  sorted_z_.resize(padded);
  run_span(n, 4096, [&](std::size_t s_begin, std::size_t s_end) {
    for (std::size_t s = s_begin; s < s_end; ++s) {
      const emdpa::Vec3<Real>& p = wrapped_[cell_atoms_[s]];
      sorted_x_[s] = p.x;
      sorted_y_[s] = p.y;
      sorted_z_[s] = p.z;
    }
  });
}

template <typename Real>
void ParallelNeighborListT<Real>::populate_stencil(std::size_t cells,
                                                   std::size_t range) {
  auto run = [this](std::size_t count, std::size_t grain,
                    const std::function<void(std::size_t, std::size_t)>& body) {
    run_span(count, grain, body);
  };
  listutil::populate_stencil(cells, range, run, cell_start_, stencil_pop_,
                             stencil_tmp_);
}

template <typename Real>
void ParallelNeighborListT<Real>::filter_cells(std::size_t cells,
                                               std::size_t range, Real edge,
                                               std::uint32_t* entries) {
  // One pool chunk = a run of cells.  A cell's stencil is the same for all
  // its atoms, so its spans are gathered once per cell: for each stencil
  // (x, y) line the z-window is consecutive cell ids — hence one contiguous
  // range of the sorted arrays — except where it wraps past the box edge,
  // which splits it in two.  Spans are appended in stencil order (x, then
  // y, then z with the wrapped part last, exactly the cells' table order)
  // and any span that starts where the previous one ended is merged into
  // it, so the filter streams a few long runs instead of width^3 cells of
  // ~2 atoms each.  Rows are disjoint, so cell order across threads is
  // irrelevant to the result.
  const std::size_t width = 2 * range + 1;
  const std::size_t n_lines = cells * cells;
  const std::uint32_t* cell_start = cell_start_.data();
  const auto axis = [&](std::size_t a, std::size_t k) {
    return (a + k + cells - range) % cells;
  };
  run_span(n_lines * cells, kFillCellGrain,
           [&](std::size_t c_begin, std::size_t c_end) {
    std::vector<std::uint32_t> spans;
    spans.reserve(4 * width * width);
    auto add_span = [&](std::uint32_t b, std::uint32_t e) {
      if (b == e) return;
      if (!spans.empty() && spans.back() == b) {
        spans.back() = e;
      } else {
        spans.push_back(b);
        spans.push_back(e);
      }
    };
    for (std::size_t c = c_begin; c < c_end; ++c) {
      if (cell_start[c] == cell_start[c + 1]) continue;  // empty cell
      const std::size_t cx = c / n_lines;
      const std::size_t cy = (c / cells) % cells;
      const std::size_t z0 = axis(c % cells, 0);
      const std::size_t z_end = std::min(z0 + width, cells);
      const std::size_t z_wrapped = z0 + width - z_end;  // cells from z = 0
      spans.clear();
      for (std::size_t kx = 0; kx < width; ++kx) {
        const std::size_t px = axis(cx, kx);
        for (std::size_t ky = 0; ky < width; ++ky) {
          const std::size_t line = (px * cells + axis(cy, ky)) * cells;
          add_span(cell_start[line + z0], cell_start[line + z_end]);
          add_span(cell_start[line], cell_start[line + z_wrapped]);
        }
      }
      fill_(sorted_x_.data(), sorted_y_.data(), sorted_z_.data(),
            cell_atoms_.data(), spans.data(), spans.size() / 2,
            cell_start[c], cell_start[c + 1], edge, list_cutoff_sq_,
            row_begin_.data(), row_count_.data(), entries);
    }
  });
}

template <typename Real>
void ParallelNeighborListT<Real>::build(
    const std::vector<emdpa::Vec3<Real>>& positions,
    const PeriodicBoxT<Real>& box, Real cutoff) {
  if (fault::injected("md.list_build")) {
    // Leave the list invalidated so a degraded-then-retried evaluation (or a
    // later healthy step) starts from a clean rebuild, not a half-built CSR.
    invalidate();
    throw RuntimeFailure("neighbour list: injected rebuild failure");
  }
  // Same contract for a build that throws part-way (the CSR offset guard):
  // the list only becomes valid once the whole CSR is in place.
  invalidate();
  ++rebuilds_;
  build_csr(positions, box, cutoff);
  build_positions_ = positions;
  build_cutoff_ = cutoff;
  build_edge_ = box.edge();
}

template <typename Real>
void ParallelNeighborListT<Real>::build_csr(
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
  run_rows(n, [&](std::size_t i_begin, std::size_t i_end) {
    for (std::size_t i = i_begin; i < i_end; ++i) {
      wrapped_[i] = box.wrap(positions[i]);
    }
  });

  if (n == 0) {
    row_begin_.assign(1, 0);
    entries_.clear();
    return;
  }

  // Cell edge targets HALF the list radius: cutoff-sized cells sweep the
  // classic 27-cell stencil, ~16x the volume of the list sphere, while a
  // radius-2 stencil over half-sized cells sweeps ~6x — far fewer wasted
  // distance tests per build.  `range` is however many cells it takes to
  // cover the list radius at the realised cell edge.
  const double edge = static_cast<double>(box.edge());
  auto cells_ll =
      static_cast<long long>(edge / (static_cast<double>(list_cutoff) * 0.5));
  if (cells_ll < 1) cells_ll = 1;
  const auto cells = static_cast<std::size_t>(cells_ll);
  const double cell_edge = edge / static_cast<double>(cells);
  const auto range = static_cast<std::size_t>(
      std::ceil(static_cast<double>(list_cutoff) / cell_edge));
  if (2 * range + 1 > cells) {
    // Box too small for a proper stencil (wrap-around would visit a cell
    // twice and duplicate entries): O(N^2) build instead.  All of it counts
    // as fill — there is no binning phase to speak of.
    last_bin_seconds_ = seconds_since(t_start);
    bin_seconds_total_ += last_bin_seconds_;
    const auto t_fill = std::chrono::steady_clock::now();
    build_all_pairs(wrapped_, box);
    last_fill_seconds_ = seconds_since(t_fill);
    fill_seconds_total_ += last_fill_seconds_;
    return;
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
  // that cell's stencil minus itself, so this gives the build's exact
  // distance-test count without touching an atom.
  populate_stencil(cells, range);
  for (std::size_t c = 0; c < n_cells; ++c) {
    const std::uint64_t pop = cell_start_[c + 1] - cell_start_[c];
    if (pop != 0) build_distance_tests_ += pop * (stencil_pop_[c] - 1);
  }

  last_bin_seconds_ = seconds_since(t_start);
  bin_seconds_total_ += last_bin_seconds_;
  const auto t_fill = std::chrono::steady_clock::now();

  // Count-then-fill: pass 1 counts each row's kept entries, a checked
  // prefix turns the counts into padded offsets, pass 2 repeats the same
  // filter writing straight into the final CSR.  Both passes visit a row's
  // candidates in one fixed order — stencil cells in table order, atoms
  // within a cell in index order — so the list is a pure function of the
  // inputs, whatever the thread count or ISA.
  row_count_.resize(n);
  filter_cells(cells, range, box.edge(), nullptr);
  directed_entries_ =
      listutil::padded_row_offsets<Real>(row_count_, row_begin_);
  entries_.resize(row_begin_[n]);
  filter_cells(cells, range, box.edge(), entries_.data());

  last_fill_seconds_ = seconds_since(t_fill);
  fill_seconds_total_ += last_fill_seconds_;
}

template class ParallelNeighborListT<double>;
template class ParallelNeighborListT<float>;

}  // namespace emdpa::md
