// Internal helpers of the neighbour-list build (ParallelNeighborListT).
// Everything here is part of the determinism contract: the padding unit, the
// chunk decomposition of the counting sort and the stencil's candidate order
// fix the rows' bytes, which must not depend on thread count or ISA.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/error.h"
#include "core/simd.h"
#include "core/thread_pool.h"
#include "core/vec3.h"

namespace emdpa::md::listutil {

/// Heap array of a trivially copyable T whose slots are never
/// value-initialised: the builds write every slot they later read, so a
/// zero-fill would only be a serial pass over memory the parallel passes
/// are about to touch anyway (and first touch belongs in those passes).
/// Capacity is kept across builds.
template <typename T>
class RawArray {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  T* data() { return data_.get(); }
  const T* data() const { return data_.get(); }
  std::size_t capacity() const { return capacity_; }
  std::size_t bytes() const { return capacity_ * sizeof(T); }

  /// Room for at least n slots, contents discarded.  On growth the old
  /// block is released BEFORE the new one is taken and nothing is copied,
  /// so a growing list never holds two blocks and never pays a copy.  The
  /// new block carries 1/8 headroom, so a slowly growing list (a melting
  /// lattice) does not reallocate at every build; headroom nobody writes
  /// is never touched.
  void reserve_discard(std::size_t n) {
    if (n <= capacity_) return;
    data_.reset();
    capacity_ = 0;
    n += n / 8;
    data_ = std::make_unique_for_overwrite<T[]>(n);
    capacity_ = n;
  }

 private:
  std::unique_ptr<T[]> data_;
  std::size_t capacity_ = 0;
};

/// Largest entry offset a list can address: row_begin and row_end index
/// with uint32.
inline constexpr std::uint64_t kMaxCsrEntries = UINT32_MAX;

/// The offset guard: throws RuntimeFailure, carrying the atom count and the
/// entry total in its ErrorContext, when `entries` exceeds `limit`, instead
/// of letting the uint32 offsets wrap into out-of-bounds loads.  The limit
/// is a parameter only so a test can trip the guard at a small size.
inline void check_entry_limit(std::size_t atoms, std::uint64_t entries,
                              std::uint64_t limit) {
  if (entries <= limit) return;
  ErrorContext context;
  context.atoms = static_cast<long long>(atoms);
  context.detail = "padded entries " + std::to_string(entries) + " > limit " +
                   std::to_string(limit);
  throw RuntimeFailure(
      "neighbour list: padded CSR exceeds its 32-bit offsets (" +
          std::to_string(entries) + " entries for " + std::to_string(atoms) +
          " atoms); lower the cutoff or the atom count",
      std::move(context));
}

/// Row i's kept count rounded up to a whole number of 64-byte accumulation
/// blocks — the ISA-independent padding unit (see parallel_neighbor.h).
template <typename Real>
constexpr std::size_t padded_row(std::size_t count) {
  constexpr std::size_t w = simd::block_lanes<Real>();
  return (count + w - 1) / w * w;
}

/// Atoms per histogram chunk in the parallel counting sort.  The chunk
/// decomposition is a function of N ONLY — never the thread count — because
/// the scatter pass routes each chunk's atoms through per-chunk cursors and
/// the resulting stable order must not depend on how many workers ran (the
/// sort is stable, so the order does not depend on the chunking either).
/// The cap bounds the histogram at kMaxBinChunks * cells counters: at 1M
/// atoms ~27 MB instead of the ~413 MB a 256-chunk cap allowed, and a
/// 16-row merge stays cache-friendly.  16 chunks still keep a few-core
/// pool busy; the histogram passes are a small share of a build.
constexpr std::size_t kBinChunkAtoms = 2048;
constexpr std::size_t kMaxBinChunks = 16;

inline std::size_t bin_chunk_size(std::size_t n) {
  std::size_t chunk = kBinChunkAtoms;
  while ((n + chunk - 1) / chunk > kMaxBinChunks) chunk *= 2;
  return chunk;
}

inline double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Split [0, n) into chunks of `grain` over `pool`, or run it whole on the
/// caller when there is no pool.
inline void run_span(
    ThreadPool* pool, std::size_t n, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (pool != nullptr) {
    pool->parallel_for(0, n, grain, body);
  } else {
    body(0, n);
  }
}

/// Clamp one wrapped coordinate to its axis cell.  The clamp guards the
/// exact-edge case (coord * inv_cell landing on `cells` after rounding).
inline std::size_t axis_cell(double coord, double inv_cell,
                             std::size_t cells) {
  auto c = static_cast<long long>(coord * inv_cell);
  if (c < 0) c = 0;
  if (c >= static_cast<long long>(cells)) {
    c = static_cast<long long>(cells) - 1;
  }
  return static_cast<std::size_t>(c);
}

/// Cell id of a wrapped position.
template <typename Real>
std::size_t cell_index(const emdpa::Vec3<Real>& p, double inv_cell,
                       std::size_t cells) {
  return (axis_cell(static_cast<double>(p.x), inv_cell, cells) * cells +
          axis_cell(static_cast<double>(p.y), inv_cell, cells)) *
             cells +
         axis_cell(static_cast<double>(p.z), inv_cell, cells);
}

/// Pass 1 of the stable counting sort — per-chunk cell histograms.  Each
/// chunk owns a disjoint row of bin_hist (which it zeroes itself, so the
/// reset is parallel too) and a disjoint range of cell_of_atom, so chunks
/// are embarrassingly parallel.
template <typename Real>
void bin_pass_histogram(const std::vector<emdpa::Vec3<Real>>& wrapped,
                        std::size_t cells, std::size_t n_cells,
                        double inv_cell, ThreadPool* pool,
                        std::vector<std::uint32_t>& cell_of_atom,
                        std::vector<std::uint32_t>& bin_hist) {
  const std::size_t n = wrapped.size();
  const std::size_t chunk = bin_chunk_size(n);
  const std::size_t n_chunks = (n + chunk - 1) / chunk;
  cell_of_atom.resize(n);
  bin_hist.resize(n_chunks * n_cells);
  run_span(pool, n_chunks, 1, [&](std::size_t k_begin, std::size_t k_end) {
    for (std::size_t k = k_begin; k < k_end; ++k) {
      std::uint32_t* hist = bin_hist.data() + k * n_cells;
      std::fill_n(hist, n_cells, 0u);
      const std::size_t i_end = std::min(n, (k + 1) * chunk);
      for (std::size_t i = k * chunk; i < i_end; ++i) {
        const std::size_t c = cell_index(wrapped[i], inv_cell, cells);
        cell_of_atom[i] = static_cast<std::uint32_t>(c);
        ++hist[c];
      }
    }
  });
}

/// Cells per block of the parallel prefix in bin_merge_scatter.
constexpr std::size_t kMergeCells = 4096;

/// Passes 2 and 3 of the stable counting sort: prefix-merge the per-chunk
/// histograms into write cursors, then scatter.  Within a chunk atoms are
/// visited in index order and chunk cursors are ordered by chunk id, so
/// cell_atoms is the stable counting sort by cell — the unique order a
/// serial sort would produce, independent of thread count and chunk
/// execution order.  The prefix over cells is parallel too: fixed blocks
/// of kMergeCells cells sum their totals, the block sums are folded in
/// block order (integers, so exact), and each block then writes its own
/// cell_start entries and cursors from its base.  Every pass walks the
/// histogram row by row within a block.  Requires bin_hist/cell_of_atom
/// exactly as bin_pass_histogram leaves them.
inline void bin_merge_scatter(std::size_t n, std::size_t n_cells,
                              ThreadPool* pool,
                              const std::vector<std::uint32_t>& cell_of_atom,
                              std::vector<std::uint32_t>& bin_hist,
                              std::vector<std::uint32_t>& cell_start,
                              std::vector<std::uint32_t>& cell_atoms) {
  const std::size_t chunk = bin_chunk_size(n);
  const std::size_t n_chunks = (n + chunk - 1) / chunk;
  const std::size_t n_blocks = (n_cells + kMergeCells - 1) / kMergeCells;
  const auto block_end = [&](std::size_t b) {
    return std::min(n_cells, (b + 1) * kMergeCells);
  };

  // Per-cell totals land in cell_start[c + 1] — entries (c0, c1] belong to
  // block [c0, c1) — and each block's sum in base[b].
  cell_start.resize(n_cells + 1);
  cell_start[0] = 0;
  std::vector<std::uint32_t> base(n_blocks);
  run_span(pool, n_blocks, 1, [&](std::size_t b_begin, std::size_t b_end) {
    for (std::size_t b = b_begin; b < b_end; ++b) {
      const std::size_t c0 = b * kMergeCells;
      const std::size_t c1 = block_end(b);
      std::uint32_t* total = cell_start.data() + 1;
      std::fill(total + c0, total + c1, 0u);
      for (std::size_t k = 0; k < n_chunks; ++k) {
        const std::uint32_t* hist = bin_hist.data() + k * n_cells;
        for (std::size_t c = c0; c < c1; ++c) total[c] += hist[c];
      }
      std::uint32_t sum = 0;
      for (std::size_t c = c0; c < c1; ++c) sum += total[c];
      base[b] = sum;
    }
  });
  std::uint32_t running = 0;
  for (std::uint32_t& b : base) {
    const std::uint32_t sum = b;
    b = running;
    running += sum;
  }
  run_span(pool, n_blocks, 1, [&](std::size_t b_begin, std::size_t b_end) {
    std::vector<std::uint32_t> cursor;
    for (std::size_t b = b_begin; b < b_end; ++b) {
      const std::size_t c0 = b * kMergeCells;
      const std::size_t c1 = block_end(b);
      // Totals -> inclusive prefix in place, cell starts into cursor.
      cursor.resize(c1 - c0);
      std::uint32_t start = base[b];
      for (std::size_t c = c0; c < c1; ++c) {
        cursor[c - c0] = start;
        start += cell_start[c + 1];
        cell_start[c + 1] = start;
      }
      for (std::size_t k = 0; k < n_chunks; ++k) {
        std::uint32_t* hist = bin_hist.data() + k * n_cells;
        for (std::size_t c = c0; c < c1; ++c) {
          const std::uint32_t count = hist[c];
          hist[c] = cursor[c - c0];
          cursor[c - c0] += count;
        }
      }
    }
  });

  cell_atoms.resize(n);
  run_span(pool, n_chunks, 1, [&](std::size_t k_begin, std::size_t k_end) {
    for (std::size_t k = k_begin; k < k_end; ++k) {
      std::uint32_t* cursor = bin_hist.data() + k * n_cells;
      const std::size_t i_end = std::min(n, (k + 1) * chunk);
      for (std::size_t i = k * chunk; i < i_end; ++i) {
        cell_atoms[cursor[cell_of_atom[i]]++] = static_cast<std::uint32_t>(i);
      }
    }
  });
}

/// Stencil population per cell, computed separably: one 1-D wrap-around
/// sliding-window pass per axis (add the entering cell, drop the leaving
/// one) — O(cells) per line instead of O(cells * width).  Valid because
/// width <= cells (a box too small for that is binned as one cell with
/// range 0), so the window never visits a cell twice.  Three passes flip between the two
/// buffers and land in stencil_pop:
///   populations (tmp) --z--> pop --y--> tmp --x--> pop.
inline void populate_stencil(std::size_t cells, std::size_t range,
                             ThreadPool* pool,
                             const std::vector<std::uint32_t>& cell_start,
                             std::vector<std::uint32_t>& stencil_pop,
                             std::vector<std::uint32_t>& stencil_tmp) {
  const std::size_t n_cells = cells * cells * cells;
  const std::size_t n_lines = cells * cells;
  const std::size_t width = 2 * range + 1;
  stencil_pop.resize(n_cells);
  stencil_tmp.resize(n_cells);

  auto window_pass = [&](const std::uint32_t* in, std::uint32_t* out,
                         std::size_t stride,
                         const std::function<std::size_t(std::size_t)>& base) {
    run_span(pool, n_lines, 16, [&](std::size_t l_begin, std::size_t l_end) {
      for (std::size_t l = l_begin; l < l_end; ++l) {
        const std::size_t b = base(l);
        std::uint32_t window = 0;
        for (std::size_t k = 0; k < width; ++k) {
          window += in[b + ((k + cells - range) % cells) * stride];
        }
        out[b] = window;
        for (std::size_t a = 1; a < cells; ++a) {
          window += in[b + ((a + range) % cells) * stride];
          window -= in[b + ((a + cells - range - 1) % cells) * stride];
          out[b + a * stride] = window;
        }
      }
    });
  };

  run_span(pool, n_cells, 4096, [&](std::size_t c_begin, std::size_t c_end) {
    for (std::size_t c = c_begin; c < c_end; ++c) {
      stencil_tmp[c] = cell_start[c + 1] - cell_start[c];
    }
  });
  window_pass(stencil_tmp.data(), stencil_pop.data(), 1,
              [&](std::size_t l) { return l * cells; });  // lines over (x, y)
  window_pass(stencil_pop.data(), stencil_tmp.data(), cells,
              [&](std::size_t l) {  // lines over (x, z)
                return (l / cells) * n_lines + (l % cells);
              });
  window_pass(stencil_tmp.data(), stencil_pop.data(), n_lines,
              [&](std::size_t l) { return l; });  // lines over (y, z)
}

}  // namespace emdpa::md::listutil
