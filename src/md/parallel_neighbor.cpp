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
  entry_count_ = listutil::build_all_pairs_csr<Real>(
      wrapped, box, list_cutoff_sq_,
      [this](std::size_t n,
             const std::function<void(std::size_t, std::size_t)>& body) {
        run_rows(n, body);
      },
      row_begin_, entries_, row_count_, directed_entries_,
      build_distance_tests_, csr_limit_);
}

template <typename Real>
ListMemory ParallelNeighborListT<Real>::memory() const {
  ListMemory memory;
  memory.csr_bytes =
      row_begin_.capacity() * sizeof(std::uint32_t) + entries_.bytes();
  memory.scratch_bytes = scratch_.bytes();
  memory.hist_bytes = bin_hist_.capacity() * sizeof(std::uint32_t);
  return memory;
}

template <typename Real>
void ParallelNeighborListT<Real>::bin_atoms(std::size_t n, std::size_t cells,
                                            std::size_t n_cells,
                                            double inv_cell) {
  // The histogram and merge-scatter passes live in list_build_util.h.
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
template <typename Visit>
std::uint64_t ParallelNeighborListT<Real>::filter_chunk(
    std::size_t k, std::size_t cells, std::size_t range, Real edge,
    std::vector<std::uint32_t>& spans, Visit&& visit) {
  // A cell's stencil is the same for all its atoms, so its spans are
  // gathered once per cell: for each stencil (x, y) line the z-window is
  // consecutive cell ids — hence one contiguous range of the sorted arrays
  // — except where it wraps past the box edge, which splits it in two.
  // Spans are appended in stencil order (x, then y, then z with the wrapped
  // part last, exactly the cells' table order) and any span that starts
  // where the previous one ended is merged into it, so the filter streams a
  // few long runs instead of width^3 cells of ~2 atoms each.
  const std::size_t width = 2 * range + 1;
  const std::size_t n_lines = cells * cells;
  const std::size_t n_cells = n_lines * cells;
  const std::uint32_t* cell_start = cell_start_.data();
  const auto axis = [&](std::size_t a, std::size_t j) {
    return (a + j + cells - range) % cells;
  };
  const auto add_span = [&](std::uint32_t b, std::uint32_t e) {
    if (b == e) return;
    if (!spans.empty() && spans.back() == b) {
      spans.back() = e;
    } else {
      spans.push_back(b);
      spans.push_back(e);
    }
  };
  std::uint64_t chunk_tests = 0;
  const std::size_t c_end = std::min(n_cells, (k + 1) * kFillCellGrain);
  for (std::size_t c = k * kFillCellGrain; c < c_end; ++c) {
    const std::uint32_t pop = cell_start[c + 1] - cell_start[c];
    if (pop == 0) continue;
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
    // Each of the cell's rows keeps at most its stencil minus itself.
    const std::uint64_t tests =
        static_cast<std::uint64_t>(pop) * (stencil_pop_[c] - 1);
    chunk_tests += tests;
    visit(c, tests,
          [&](std::uint32_t s_begin, std::uint32_t s_end, std::uint32_t* out) {
            return static_cast<std::size_t>(
                fill_(sorted_x_.data(), sorted_y_.data(), sorted_z_.data(),
                      cell_atoms_.data(), spans.data(), spans.size() / 2,
                      s_begin, s_end, edge, list_cutoff_sq_,
                      row_count_.data(), out) -
                out);
          });
  }
  return chunk_tests;
}

template <typename Real>
bool ParallelNeighborListT<Real>::store_chunks(std::size_t cells,
                                               std::size_t range, Real edge) {
  // Each cell's rows are appended to the chunk's pages, taken in turn from
  // one shared counter — so the pages in use are always a prefix of
  // scratch_, and a chunk wastes at most part of its last page.  Once the
  // pages run out a chunk stops storing but keeps counting.  Rows are
  // disjoint, so chunk order across threads is irrelevant to the result.
  const std::size_t n_pages = scratch_.capacity() / kPageEntries;
  std::atomic<std::size_t> next_page{0};
  std::atomic<bool> complete{true};
  run_span(chunks_.size(), 1, [&](std::size_t k_begin, std::size_t k_end) {
    std::vector<std::uint32_t> spans;
    listutil::RawArray<std::uint32_t> staging;  // one cell's rows
    for (std::size_t k = k_begin; k < k_end; ++k) {
      FillChunk& chunk = chunks_[k];
      chunk.pages.clear();
      chunk.count = 0;
      bool stored = true;
      chunk.tests = filter_chunk(
          k, cells, range, edge, spans,
          [&](std::size_t c, std::uint64_t tests, const auto& filter) {
            staging.reserve_discard(tests);
            const std::size_t kept =
                filter(cell_start_[c], cell_start_[c + 1], staging.data());
            for (std::size_t done = 0; stored && done < kept;) {
              const std::size_t at = (chunk.count + done) % kPageEntries;
              if (at == 0) {  // current page full, or none yet
                const std::size_t page = next_page.fetch_add(1);
                if (page >= n_pages) {
                  stored = false;
                  break;
                }
                chunk.pages.push_back(static_cast<std::uint32_t>(page));
              }
              const std::size_t take =
                  std::min(kept - done, kPageEntries - at);
              std::copy_n(staging.data() + done, take,
                          scratch_.data() + chunk.pages.back() * kPageEntries +
                              at);
              done += take;
            }
            chunk.count += kept;
          });
      if (!stored) complete.store(false, std::memory_order_relaxed);
    }
  });
  return complete.load(std::memory_order_relaxed);
}

template <typename Real>
void ParallelNeighborListT<Real>::place_chunks(std::size_t cells,
                                               std::size_t range, Real edge) {
  // Row by row: with row_begin_ known, each row is filtered straight into
  // its CSR slots, then self-padded.
  const std::uint32_t* row_begin = row_begin_.data();
  std::uint32_t* const entries = entries_.data();
  run_span(chunks_.size(), 1, [&](std::size_t k_begin, std::size_t k_end) {
    std::vector<std::uint32_t> spans;
    for (std::size_t k = k_begin; k < k_end; ++k) {
      filter_chunk(k, cells, range, edge, spans,
                   [&](std::size_t c, std::uint64_t, const auto& filter) {
        for (std::uint32_t s = cell_start_[c]; s < cell_start_[c + 1]; ++s) {
          const std::uint32_t i = cell_atoms_[s];
          std::uint32_t* const row = entries + row_begin[i];
          std::fill(row + filter(s, s + 1, row), entries + row_begin[i + 1],
                    i);  // self pad, r2 == 0
        }
      });
    }
  });
}

template <typename Real>
void ParallelNeighborListT<Real>::copy_rows(std::size_t n_cells) {
  // Chunk k's pages hold the rows of sorted atoms
  // [cell_start[first cell], cell_start[last cell + 1]) back to back.
  const std::uint32_t* row_begin = row_begin_.data();
  std::uint32_t* const entries = entries_.data();
  const std::uint32_t* const scratch = scratch_.data();
  run_span(chunks_.size(), 1, [&](std::size_t k_begin, std::size_t k_end) {
    for (std::size_t k = k_begin; k < k_end; ++k) {
      const std::uint32_t* page = chunks_[k].pages.data();
      std::size_t at = 0;  // read position in *page
      const std::uint32_t s_end =
          cell_start_[std::min(n_cells, (k + 1) * kFillCellGrain)];
      for (std::uint32_t s = cell_start_[k * kFillCellGrain]; s < s_end; ++s) {
        const std::uint32_t i = cell_atoms_[s];
        std::uint32_t* row = entries + row_begin[i];
        for (std::size_t left = row_count_[i]; left > 0;) {
          if (at == kPageEntries) {
            ++page;
            at = 0;
          }
          const std::size_t take = std::min(left, kPageEntries - at);
          row = std::copy_n(scratch + *page * kPageEntries + at, take, row);
          at += take;
          left -= take;
        }
        std::fill(row, entries + row_begin[i + 1], i);  // self pad, r2 == 0
      }
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
    entry_count_ = 0;
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
  // that cell's stencil minus itself, so this bounds each row — and gives
  // the build's exact distance-test count — without touching an atom.
  populate_stencil(cells, range);

  last_bin_seconds_ = seconds_since(t_start);
  bin_seconds_total_ += last_bin_seconds_;
  const auto t_fill = std::chrono::steady_clock::now();

  // One filter pass into per-chunk scratch, then the checked prefix turns
  // the row counts into padded offsets, then the copy pass places each row.
  // The filter visits a row's candidates in one fixed order — stencil cells
  // in table order, atoms within a cell in index order — so the list is a
  // pure function of the inputs, whatever the thread count or ISA.
  row_count_.resize(n);
  chunks_.resize((n_cells + kFillCellGrain - 1) / kFillCellGrain);
  scratch_.reserve_discard(scratch_need_);  // none before a first build
  const bool stored = store_chunks(cells, range, box.edge());
  if (!stored) {
    // The scratch ran out — the first build, or a list that outgrew the
    // scratch's 1/8 headroom.  The counts are exact anyway: they size the
    // scratch the next build takes, and this once the filter runs again
    // straight into the CSR.  Every other build tests each candidate once.
    scratch_need_ = 0;
    for (const FillChunk& chunk : chunks_) {
      scratch_need_ += (chunk.count + kPageEntries - 1) / kPageEntries;
    }
    scratch_need_ *= kPageEntries;
  }
  for (const FillChunk& chunk : chunks_) build_distance_tests_ += chunk.tests;
  directed_entries_ =
      listutil::padded_row_offsets<Real>(row_count_, row_begin_, csr_limit_);
  entries_.reserve_discard(row_begin_[n]);
  entry_count_ = row_begin_[n];
  if (stored) {
    copy_rows(n_cells);
  } else {
    place_chunks(cells, range, box.edge());
  }

  last_fill_seconds_ = seconds_since(t_fill);
  fill_seconds_total_ += last_fill_seconds_;
}

template class ParallelNeighborListT<double>;
template class ParallelNeighborListT<float>;

}  // namespace emdpa::md
