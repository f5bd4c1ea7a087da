#include "md/sharded_domain.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "core/error.h"
#include "core/fault_injection.h"
#include "md/list_build_util.h"

namespace emdpa::md {

using listutil::seconds_since;

// ---------------------------------------------------------------------------
// ShardedDomain
// ---------------------------------------------------------------------------

ShardedDomain::ShardedDomain(std::size_t cells, std::size_t range,
                             std::size_t requested)
    : cells_(cells), range_(range), requested_(requested == 0 ? 1 : requested) {
  EMDPA_REQUIRE(cells >= 1, "sharded domain needs at least one cell");
  EMDPA_REQUIRE(2 * range + 1 <= cells,
                "stencil wider than the axis — the all-pairs fallback should "
                "have caught this box");
  // Widen (reduce the count) until every slab spans at least `range` cells
  // >= the list cutoff.  With the quotient/remainder deal below the minimum
  // slab width is cells / count, so the bound is count <= cells / range.
  const std::size_t max_by_cutoff =
      range == 0 ? cells_ : std::max<std::size_t>(1, cells_ / range);
  count_ = std::min(requested_, max_by_cutoff);
}

std::size_t ShardedDomain::slab_begin(std::size_t s) const {
  const std::size_t q = cells_ / count_;
  const std::size_t r = cells_ % count_;
  return s * q + std::min(s, r);
}

std::size_t ShardedDomain::shard_of_slab(std::size_t x) const {
  // Inverse of slab_begin: the first r shards hold q+1 slabs, the rest q.
  const std::size_t q = cells_ / count_;
  const std::size_t r = cells_ % count_;
  const std::size_t big = r * (q + 1);
  return x < big ? x / (q + 1) : r + (x - big) / q;
}

std::size_t ShardedDomain::halo_begin(std::size_t s) const {
  return (slab_begin(s) + cells_ - range_) % cells_;
}

std::size_t ShardedDomain::halo_width(std::size_t s) const {
  return std::min(cells_, slab_end(s) - slab_begin(s) + 2 * range_);
}

// ---------------------------------------------------------------------------
// ShardedNeighborListT
// ---------------------------------------------------------------------------

template <typename Real>
ShardedNeighborListT<Real>::ShardedNeighborListT(Real skin, ThreadPool* pool,
                                                 std::size_t shards,
                                                 SkinPolicy policy)
    : skin_(skin),
      pool_(pool),
      policy_(policy),
      requested_shards_(shards == 0 ? 1 : shards) {
  EMDPA_REQUIRE(skin >= Real(0), "skin must be non-negative");
}

template <typename Real>
void ShardedNeighborListT<Real>::run_span(
    std::size_t n, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& body) const {
  if (pool_ != nullptr) {
    pool_->parallel_for(0, n, grain, body);
  } else {
    body(0, n);
  }
}

template <typename Real>
typename ShardedNeighborListT<Real>::Geometry
ShardedNeighborListT<Real>::geometry(Real edge_r, Real list_cutoff) const {
  // EXACTLY the flat build's cell sizing (parallel_neighbor.cpp): cells at
  // half the list radius, range = however many cells cover the radius.
  // Any divergence here would change which atoms share a cell and sink the
  // bitwise contract.
  Geometry g;
  const double edge = static_cast<double>(edge_r);
  auto cells_ll =
      static_cast<long long>(edge / (static_cast<double>(list_cutoff) * 0.5));
  if (cells_ll < 1) cells_ll = 1;
  g.cells = static_cast<std::size_t>(cells_ll);
  const double cell_edge = edge / static_cast<double>(g.cells);
  const auto range = static_cast<long long>(
      std::ceil(static_cast<double>(list_cutoff) / cell_edge));
  g.range = static_cast<std::size_t>(range);
  g.width = static_cast<std::size_t>(2 * range + 1);
  g.n_cells = g.cells * g.cells * g.cells;
  g.inv_cell = static_cast<double>(g.cells) / edge;
  g.degenerate = g.width > g.cells;
  return g;
}

template <typename Real>
bool ShardedNeighborListT<Real>::needs_rebuild(
    const std::vector<emdpa::Vec3<Real>>& positions,
    const PeriodicBoxT<Real>& box, Real cutoff) const {
  if (build_positions_.size() != positions.size()) return true;
  if (cutoff != build_cutoff_ || box.edge() != build_edge_) return true;
  if (policy_ == SkinPolicy::kNeverRebuild) return false;
  const Real limit_sq = (skin_ / Real(2)) * (skin_ / Real(2));
  for (std::size_t i = 0; i < positions.size(); ++i) {
    const auto dr = box.min_image(positions[i] - build_positions_[i]);
    if (length_squared(dr) > limit_sq) return true;
  }
  return false;
}

template <typename Real>
void ShardedNeighborListT<Real>::build(
    const std::vector<emdpa::Vec3<Real>>& positions,
    const PeriodicBoxT<Real>& box, Real cutoff) {
  build_impl(positions, box, cutoff, /*prebinned=*/false,
             /*fused_seconds=*/0.0);
}

template <typename Real>
bool ShardedNeighborListT<Real>::ensure(
    const std::vector<emdpa::Vec3<Real>>& positions,
    const PeriodicBoxT<Real>& box, Real cutoff) {
  const std::size_t n = positions.size();
  const bool structural = build_positions_.size() != n ||
                          cutoff != build_cutoff_ || box.edge() != build_edge_;
  if (structural) {
    build_impl(positions, box, cutoff, false, 0.0);
    return true;
  }
  if (policy_ == SkinPolicy::kNeverRebuild || n == 0) return false;

  const auto t0 = std::chrono::steady_clock::now();
  const Real list_cutoff = cutoff + skin_;
  const Geometry g = geometry(box.edge(), list_cutoff);
  const Real limit_sq = (skin_ / Real(2)) * (skin_ / Real(2));
  const std::size_t chunk = listutil::bin_chunk_size(n);
  const std::size_t n_chunks = (n + chunk - 1) / chunk;

  if (g.degenerate) {
    // All-pairs regime: no bins to fuse with, just a chunked displacement
    // verdict (single logical shard).
    chunk_shard_stale_.assign(n_chunks, 0);
    run_span(n_chunks, 1, [&](std::size_t k_begin, std::size_t k_end) {
      for (std::size_t k = k_begin; k < k_end; ++k) {
        const std::size_t i_end = std::min(n, (k + 1) * chunk);
        for (std::size_t i = k * chunk; i < i_end; ++i) {
          const auto dr = box.min_image(positions[i] - build_positions_[i]);
          if (length_squared(dr) > limit_sq) {
            chunk_shard_stale_[k] = 1;
            break;
          }
        }
      }
    });
    bool any = false;
    for (std::size_t k = 0; k < n_chunks; ++k) {
      if (chunk_shard_stale_[k] != 0) any = true;
    }
    shard_stale_.assign(1, any ? 1 : 0);
    if (!any) return false;
    build_impl(positions, box, cutoff, false, seconds_since(t0));
    return true;
  }

  // The fused pass (carried micro-item): ONE sweep over the positions wraps
  // each atom, scatters it into the pass-1 bin histogram AND measures its
  // displacement against the build reference, attributing the verdict to
  // the shard its new cell falls in.  Per-chunk verdict rows keep the pass
  // race-free; the serial merge below is order-independent (pure OR).
  const ShardedDomain domain(g.cells, g.range, requested_shards_);
  const std::size_t shard_count = domain.shard_count();
  const std::size_t n_lines = g.cells * g.cells;
  wrapped_.resize(n);
  cell_of_atom_.resize(n);
  bin_hist_.assign(n_chunks * g.n_cells, 0);
  chunk_shard_stale_.assign(n_chunks * shard_count, 0);
  run_span(n_chunks, 1, [&](std::size_t k_begin, std::size_t k_end) {
    for (std::size_t k = k_begin; k < k_end; ++k) {
      std::uint32_t* hist = bin_hist_.data() + k * g.n_cells;
      std::uint8_t* stale = chunk_shard_stale_.data() + k * shard_count;
      const std::size_t i_end = std::min(n, (k + 1) * chunk);
      for (std::size_t i = k * chunk; i < i_end; ++i) {
        wrapped_[i] = box.wrap(positions[i]);
        const std::size_t c =
            listutil::cell_index(wrapped_[i], g.inv_cell, g.cells);
        cell_of_atom_[i] = static_cast<std::uint32_t>(c);
        ++hist[c];
        const auto dr = box.min_image(positions[i] - build_positions_[i]);
        if (length_squared(dr) > limit_sq) {
          stale[domain.shard_of_slab(c / n_lines)] = 1;
        }
      }
    }
  });

  shard_stale_.assign(shard_count, 0);
  bool any = false;
  for (std::size_t k = 0; k < n_chunks; ++k) {
    for (std::size_t s = 0; s < shard_count; ++s) {
      if (chunk_shard_stale_[k * shard_count + s] != 0) {
        shard_stale_[s] = 1;
        any = true;
      }
    }
  }
  if (!any) return false;

  // Any stale shard rebuilds ALL shards (the bitwise contract forbids
  // partial rebuilds — see the header).  Pass 1 of the counting sort is
  // already in bin_hist_/cell_of_atom_/wrapped_; keep the per-shard
  // verdicts the fused pass produced across the rebuild.
  std::vector<std::uint8_t> verdicts = shard_stale_;
  build_impl(positions, box, cutoff, /*prebinned=*/true, seconds_since(t0));
  if (sharded_build_ && verdicts.size() == shard_stale_.size()) {
    shard_stale_ = verdicts;
  }
  return true;
}

template <typename Real>
void ShardedNeighborListT<Real>::build_impl(
    const std::vector<emdpa::Vec3<Real>>& positions,
    const PeriodicBoxT<Real>& box, Real cutoff, bool prebinned,
    double fused_seconds) {
  if (fault::injected("md.list_build")) {
    // Same contract as the flat list: leave the list invalidated so a
    // degraded-then-retried evaluation starts from a clean rebuild.
    invalidate();
    throw RuntimeFailure("neighbour list: injected rebuild failure");
  }
  const std::size_t n = positions.size();
  const Real list_cutoff = cutoff + skin_;
  list_cutoff_sq_ = list_cutoff * list_cutoff;
  build_cutoff_ = cutoff;
  build_edge_ = box.edge();
  build_positions_ = positions;
  directed_entries_ = 0;
  build_distance_tests_ = 0;
  last_bin_seconds_ = fused_seconds;
  last_halo_seconds_ = 0;
  last_fill_seconds_ = 0;
  ++rebuilds_;

  const auto t_bin = std::chrono::steady_clock::now();
  if (!prebinned) {
    wrapped_.resize(n);
    run_span(n, 512, [&](std::size_t i_begin, std::size_t i_end) {
      for (std::size_t i = i_begin; i < i_end; ++i) {
        wrapped_[i] = box.wrap(positions[i]);
      }
    });
  }

  if (n == 0) {
    row_begin_.assign(1, 0);
    entries_.clear();
    sharded_build_ = false;
    domain_ = ShardedDomain();
    shard_stale_.assign(1, 1);
    last_bin_seconds_ += seconds_since(t_bin);
    bin_seconds_total_ += last_bin_seconds_;
    return;
  }

  const Geometry g = geometry(build_edge_, list_cutoff);
  auto run = [this](std::size_t count, std::size_t grain,
                    const std::function<void(std::size_t, std::size_t)>& body) {
    run_span(count, grain, body);
  };

  if (g.degenerate) {
    // Box too small for a proper stencil: the shared O(N^2) fallback, one
    // logical shard.  All pre-sweep work counts as bin, like the flat list.
    sharded_build_ = false;
    domain_ = ShardedDomain();
    shard_stale_.assign(1, 1);
    last_bin_seconds_ += seconds_since(t_bin);
    bin_seconds_total_ += last_bin_seconds_;
    const auto t_fill = std::chrono::steady_clock::now();
    listutil::build_all_pairs_csr<Real>(
        wrapped_, box, list_cutoff_sq_,
        [&](std::size_t count,
            const std::function<void(std::size_t, std::size_t)>& body) {
          run_span(count, 64, body);
        },
        row_begin_, entries_, row_count_, directed_entries_,
        build_distance_tests_);
    last_fill_seconds_ = seconds_since(t_fill);
    fill_seconds_total_ += last_fill_seconds_;
    return;
  }

  sharded_build_ = true;
  domain_ = ShardedDomain(g.cells, g.range, requested_shards_);
  shard_stale_.assign(domain_.shard_count(), 1);

  // The stable counting sort — pass 1 may already be paid for by ensure()'s
  // fused pass; passes 2 and 3 and the stencil tables are the SAME code the
  // flat build runs (list_build_util.h), so cell_atoms_/cell_start_/
  // stencil_pop_ are bitwise the flat build's.
  if (!prebinned) {
    listutil::bin_pass_histogram(wrapped_, g.cells, g.n_cells, g.inv_cell, run,
                                 cell_of_atom_, bin_hist_);
  }
  listutil::bin_merge_scatter(n, g.n_cells, run, cell_of_atom_, bin_hist_,
                              cell_start_, cell_atoms_);
  listutil::fill_stencil_axis(g.cells, g.range, stencil_axis_);
  listutil::populate_stencil(g.cells, g.range, run, cell_start_, stencil_pop_,
                             stencil_tmp_);

  // Exact scratch CSR offsets (serial prefix over each row's stencil
  // population; the flat build counts its rows instead).
  scratch_begin_.assign(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    scratch_begin_[i + 1] =
        scratch_begin_[i] + stencil_pop_[cell_of_atom_[i]] - 1;  // minus self
  }
  build_distance_tests_ = scratch_begin_[n];
  scratch_entries_.resize(scratch_begin_[n]);

  last_bin_seconds_ += seconds_since(t_bin);
  bin_seconds_total_ += last_bin_seconds_;

  // Halo phase: shard-local coordinate copies, packed by the worker that
  // will sweep the shard (pool chunks of one shard — first-touch places
  // fresh pages on that worker's NUMA node; nested pools run inline so the
  // packing loop itself never migrates).
  const auto t_halo = std::chrono::steady_clock::now();
  pack_halos(g);
  last_halo_seconds_ = seconds_since(t_halo);
  halo_seconds_total_ += last_halo_seconds_;

  // Fill phase: per-shard sweep over shard-local memory, then the flat
  // build's checked padded prefix and a copy-only compaction.
  const auto t_fill = std::chrono::steady_clock::now();
  sweep_shards(box, g);

  directed_entries_ =
      listutil::padded_row_offsets<Real>(row_count_, row_begin_);

  entries_.resize(row_begin_[n]);
  run_span(n, 64, [&](std::size_t i_begin, std::size_t i_end) {
    for (std::size_t i = i_begin; i < i_end; ++i) {
      const std::uint32_t* src = scratch_entries_.data() + scratch_begin_[i];
      std::uint32_t slot = row_begin_[i];
      for (std::uint32_t k = 0; k < row_count_[i]; ++k) {
        entries_[slot++] = src[k];
      }
      for (; slot < row_begin_[i + 1]; ++slot) {
        entries_[slot] = static_cast<std::uint32_t>(i);  // self pad, r2 == 0
      }
    }
  });

  last_fill_seconds_ = seconds_since(t_fill);
  fill_seconds_total_ += last_fill_seconds_;
}

template <typename Real>
void ShardedNeighborListT<Real>::pack_halos(const Geometry& g) {
  const std::size_t shard_count = domain_.shard_count();
  const std::size_t n_lines = g.cells * g.cells;
  views_.resize(shard_count);
  run_span(shard_count, 1, [&](std::size_t s_begin, std::size_t s_end) {
    for (std::size_t s = s_begin; s < s_end; ++s) {
      ShardView& v = views_[s];
      const std::size_t w = domain_.halo_width(s);
      const std::size_t hx0 = domain_.halo_begin(s);
      v.slab_base.resize(w);
      v.slab_offset.resize(w);
      std::uint32_t off = 0;
      for (std::size_t lx = 0; lx < w; ++lx) {
        const std::size_t gx = (hx0 + lx) % g.cells;
        const std::uint32_t base = cell_start_[gx * n_lines];
        v.slab_base[lx] = base;
        v.slab_offset[lx] = off;
        off += cell_start_[(gx + 1) * n_lines] - base;
      }
      v.gid.resize(off);
      v.xs.resize(off);
      v.ys.resize(off);
      v.zs.resize(off);
      for (std::size_t lx = 0; lx < w; ++lx) {
        const std::size_t gx = (hx0 + lx) % g.cells;
        const std::uint32_t base = v.slab_base[lx];
        const std::uint32_t count = cell_start_[(gx + 1) * n_lines] - base;
        std::uint32_t* gid = v.gid.data() + v.slab_offset[lx];
        Real* xs = v.xs.data() + v.slab_offset[lx];
        Real* ys = v.ys.data() + v.slab_offset[lx];
        Real* zs = v.zs.data() + v.slab_offset[lx];
        for (std::uint32_t k = 0; k < count; ++k) {
          const std::uint32_t j = cell_atoms_[base + k];
          gid[k] = j;
          // Exact copies of the globally wrapped coordinates — the sweep's
          // distance tests see the same bits the flat build would.
          xs[k] = wrapped_[j].x;
          ys[k] = wrapped_[j].y;
          zs[k] = wrapped_[j].z;
        }
      }
    }
  });
}

template <typename Real>
void ShardedNeighborListT<Real>::sweep_shards(const PeriodicBoxT<Real>& box,
                                              const Geometry& g) {
  const std::size_t n = build_positions_.size();
  const std::size_t shard_count = domain_.shard_count();
  const std::size_t n_lines = g.cells * g.cells;
  row_count_.assign(n, 0);
  // One pool chunk per shard; every atom is owned by exactly one shard and
  // writes only its own scratch range and row count, so shard execution
  // order is irrelevant.  Entry ORDER within a row (stencil cells in table
  // order, atoms within a cell in index order) and accept/reject decisions
  // (same minimum-image arithmetic on copies of the same wrapped values)
  // are exactly the flat sweep's — the CSR comes out byte-identical.
  run_span(shard_count, 1, [&](std::size_t s_begin, std::size_t s_end) {
    for (std::size_t s = s_begin; s < s_end; ++s) {
      const ShardView& v = views_[s];
      const std::size_t hx0 = domain_.halo_begin(s);
      for (std::size_t gx = domain_.slab_begin(s); gx < domain_.slab_end(s);
           ++gx) {
        for (std::uint32_t t = cell_start_[gx * n_lines];
             t < cell_start_[(gx + 1) * n_lines]; ++t) {
          const std::uint32_t i = cell_atoms_[t];
          const std::size_t c_i = cell_of_atom_[i];
          const std::size_t cx = gx;
          const std::size_t cy = (c_i / g.cells) % g.cells;
          const std::size_t cz = c_i % g.cells;
          std::uint64_t slot = scratch_begin_[i];
          for (std::size_t kx = 0; kx < g.width; ++kx) {
            const std::size_t px = stencil_axis_[cx * g.width + kx];
            const std::size_t lx = (px + g.cells - hx0) % g.cells;
            // Local address base of x-slab px inside this shard's view.
            const std::uint32_t rebase = v.slab_offset[lx] - v.slab_base[lx];
            for (std::size_t ky = 0; ky < g.width; ++ky) {
              const std::size_t py = stencil_axis_[cy * g.width + ky];
              const std::size_t row = (px * g.cells + py) * g.cells;
              for (std::size_t kz = 0; kz < g.width; ++kz) {
                const std::size_t c = row + stencil_axis_[cz * g.width + kz];
                const std::uint32_t a = cell_start_[c] + rebase;
                const std::uint32_t b = cell_start_[c + 1] + rebase;
                for (std::uint32_t u = a; u < b; ++u) {
                  const std::uint32_t j = v.gid[u];
                  if (j == i) continue;
                  const emdpa::Vec3<Real> pj{v.xs[u], v.ys[u], v.zs[u]};
                  const auto dr = box.min_image(wrapped_[i] - pj);
                  if (length_squared(dr) < list_cutoff_sq_) {
                    scratch_entries_[slot++] = j;
                  }
                }
              }
            }
          }
          row_count_[i] = static_cast<std::uint32_t>(slot - scratch_begin_[i]);
        }
      }
    }
  });
}

template class ShardedNeighborListT<double>;
template class ShardedNeighborListT<float>;

}  // namespace emdpa::md
