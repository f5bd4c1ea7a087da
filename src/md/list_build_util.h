// Internal helpers shared by the flat (ParallelNeighborListT) and sharded
// (ShardedNeighborListT) neighbour-list builds.  Everything here is part of
// the determinism contract: the padding unit, the chunk decomposition of the
// counting sort and the all-pairs fallback must be IDENTICAL in both builds,
// because the sharded CSR is proven bitwise equal to the flat one.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/error.h"
#include "core/simd.h"
#include "core/vec3.h"
#include "md/box.h"

namespace emdpa::md::listutil {

/// Largest padded entry count a CSR can hold: row_begin and entries index
/// with uint32.
inline constexpr std::uint64_t kMaxCsrEntries = UINT32_MAX;

/// The padded CSR offsets of per-row kept counts: row i spans
/// [row_begin[i], row_begin[i + 1]), its count rounded up to a whole number
/// of 64-byte accumulation blocks — the ISA-independent padding unit (see
/// parallel_neighbor.h).  Returns the unpadded total (directed entries).
/// Sums in uint64 and throws RuntimeFailure, carrying the atom count and the
/// padded total in its ErrorContext, when the total exceeds `limit`, instead
/// of wrapping the uint32 offsets into out-of-bounds gathers.  The limit is
/// a parameter only so a test can trip the guard at a small size.
template <typename Real>
std::uint64_t padded_row_offsets(const std::vector<std::uint32_t>& row_count,
                                 std::vector<std::uint32_t>& row_begin,
                                 std::uint64_t limit = kMaxCsrEntries) {
  constexpr std::uint64_t w = simd::block_lanes<Real>();
  const std::size_t n = row_count.size();
  row_begin.resize(n + 1);
  row_begin[0] = 0;
  std::uint64_t padded = 0;
  std::uint64_t directed = 0;
  for (std::size_t i = 0; i < n; ++i) {
    padded += (row_count[i] + w - 1) / w * w;
    directed += row_count[i];
    row_begin[i + 1] = static_cast<std::uint32_t>(padded);
  }
  if (padded > limit) {
    ErrorContext context;
    context.atoms = static_cast<long long>(n);
    context.detail = "padded entries " + std::to_string(padded) +
                     " > limit " + std::to_string(limit);
    throw RuntimeFailure(
        "neighbour list: padded CSR exceeds its 32-bit offsets (" +
            std::to_string(padded) + " entries for " + std::to_string(n) +
            " atoms); lower the cutoff or the atom count",
        std::move(context));
  }
  return directed;
}

/// Atoms per histogram chunk in the parallel counting sort.  The chunk
/// decomposition is a function of N ONLY — never the thread count — because
/// the scatter pass routes each chunk's atoms through per-chunk cursors and
/// the resulting stable order must not depend on how many workers ran.  The
/// cap bounds the bin_hist_ footprint (chunks * cells) for huge systems.
constexpr std::size_t kBinChunkAtoms = 2048;
constexpr std::size_t kMaxBinChunks = 256;

inline std::size_t bin_chunk_size(std::size_t n) {
  std::size_t chunk = kBinChunkAtoms;
  while ((n + chunk - 1) / chunk > kMaxBinChunks) chunk *= 2;
  return chunk;
}

inline double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Degenerate-box fallback (fewer than 3 cells per axis): O(N^2) build,
/// count-then-fill into the same padded CSR layout, still row-parallel.
/// `run_rows` splits [0, n) over whatever pool the caller owns.
template <typename Real>
void build_all_pairs_csr(
    const std::vector<emdpa::Vec3<Real>>& wrapped,
    const PeriodicBoxT<Real>& box, Real list_cutoff_sq,
    const std::function<void(std::size_t,
                             const std::function<void(std::size_t,
                                                      std::size_t)>&)>&
        run_rows,
    std::vector<std::uint32_t>& row_begin, std::vector<std::uint32_t>& entries,
    std::vector<std::uint32_t>& row_count, std::uint64_t& directed_entries,
    std::uint64_t& build_distance_tests) {
  const std::size_t n = wrapped.size();
  row_count.assign(n, 0);
  run_rows(n, [&](std::size_t i_begin, std::size_t i_end) {
    for (std::size_t i = i_begin; i < i_end; ++i) {
      std::uint32_t count = 0;
      for (std::size_t j = 0; j < n; ++j) {
        if (j == i) continue;
        const auto dr = box.min_image(wrapped[i] - wrapped[j]);
        if (length_squared(dr) < list_cutoff_sq) ++count;
      }
      row_count[i] = count;
    }
  });

  directed_entries = padded_row_offsets<Real>(row_count, row_begin);
  build_distance_tests = n == 0 ? 0 : static_cast<std::uint64_t>(n) * (n - 1);

  entries.assign(row_begin[n], 0);
  run_rows(n, [&](std::size_t i_begin, std::size_t i_end) {
    for (std::size_t i = i_begin; i < i_end; ++i) {
      std::uint32_t slot = row_begin[i];
      for (std::size_t j = 0; j < n; ++j) {
        if (j == i) continue;
        const auto dr = box.min_image(wrapped[i] - wrapped[j]);
        if (length_squared(dr) < list_cutoff_sq) {
          entries[slot++] = static_cast<std::uint32_t>(j);
        }
      }
      for (; slot < row_begin[i + 1]; ++slot) {
        entries[slot] = static_cast<std::uint32_t>(i);  // self pad, r2 == 0
      }
    }
  });
}

/// How the builds split an index range over their pool: (n, grain, body).
using RunSpanFn = std::function<void(
    std::size_t, std::size_t,
    const std::function<void(std::size_t, std::size_t)>&)>;

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
/// chunk owns a disjoint row of bin_hist and a disjoint range of
/// cell_of_atom, so chunks are embarrassingly parallel.
template <typename Real>
void bin_pass_histogram(const std::vector<emdpa::Vec3<Real>>& wrapped,
                        std::size_t cells, std::size_t n_cells,
                        double inv_cell, const RunSpanFn& run_span,
                        std::vector<std::uint32_t>& cell_of_atom,
                        std::vector<std::uint32_t>& bin_hist) {
  const std::size_t n = wrapped.size();
  const std::size_t chunk = bin_chunk_size(n);
  const std::size_t n_chunks = (n + chunk - 1) / chunk;
  cell_of_atom.resize(n);
  bin_hist.assign(n_chunks * n_cells, 0);
  run_span(n_chunks, 1, [&](std::size_t k_begin, std::size_t k_end) {
    for (std::size_t k = k_begin; k < k_end; ++k) {
      std::uint32_t* hist = bin_hist.data() + k * n_cells;
      const std::size_t i_end = std::min(n, (k + 1) * chunk);
      for (std::size_t i = k * chunk; i < i_end; ++i) {
        const std::size_t c = cell_index(wrapped[i], inv_cell, cells);
        cell_of_atom[i] = static_cast<std::uint32_t>(c);
        ++hist[c];
      }
    }
  });
}

/// Passes 2 and 3 of the stable counting sort: prefix-merge the per-chunk
/// histograms into write cursors, then scatter.  Within a chunk atoms are
/// visited in index order and chunk cursors are ordered by chunk id, so
/// cell_atoms is the stable counting sort by cell — the unique order a
/// serial sort would produce, independent of thread count and chunk
/// execution order.  Requires bin_hist/cell_of_atom exactly as
/// bin_pass_histogram leaves them.
inline void bin_merge_scatter(std::size_t n, std::size_t n_cells,
                              const RunSpanFn& run_span,
                              const std::vector<std::uint32_t>& cell_of_atom,
                              std::vector<std::uint32_t>& bin_hist,
                              std::vector<std::uint32_t>& cell_start,
                              std::vector<std::uint32_t>& cell_atoms) {
  const std::size_t chunk = bin_chunk_size(n);
  const std::size_t n_chunks = (n + chunk - 1) / chunk;

  cell_start.assign(n_cells + 1, 0);
  run_span(n_cells, 4096, [&](std::size_t c_begin, std::size_t c_end) {
    for (std::size_t c = c_begin; c < c_end; ++c) {
      std::uint32_t total = 0;
      for (std::size_t k = 0; k < n_chunks; ++k) {
        total += bin_hist[k * n_cells + c];
      }
      cell_start[c + 1] = total;
    }
  });
  for (std::size_t c = 0; c < n_cells; ++c) {
    cell_start[c + 1] += cell_start[c];
  }
  run_span(n_cells, 4096, [&](std::size_t c_begin, std::size_t c_end) {
    for (std::size_t c = c_begin; c < c_end; ++c) {
      std::uint32_t cursor = cell_start[c];
      for (std::size_t k = 0; k < n_chunks; ++k) {
        std::uint32_t& h = bin_hist[k * n_cells + c];
        const std::uint32_t count = h;
        h = cursor;
        cursor += count;
      }
    }
  });

  cell_atoms.resize(n);
  run_span(n_chunks, 1, [&](std::size_t k_begin, std::size_t k_end) {
    for (std::size_t k = k_begin; k < k_end; ++k) {
      std::uint32_t* cursor = bin_hist.data() + k * n_cells;
      const std::size_t i_end = std::min(n, (k + 1) * chunk);
      for (std::size_t i = k * chunk; i < i_end; ++i) {
        cell_atoms[cursor[cell_of_atom[i]]++] = static_cast<std::uint32_t>(i);
      }
    }
  });
}

/// Per-axis wrapped stencil indices: row a lists the `width` cell indices
/// covering [a-range, a+range] on one axis.  Precomputing them keeps the
/// modulo arithmetic out of the sweep's inner loops.
inline void fill_stencil_axis(std::size_t cells, std::size_t range,
                              std::vector<std::uint32_t>& stencil_axis) {
  const std::size_t width = 2 * range + 1;
  stencil_axis.resize(cells * width);
  for (std::size_t a = 0; a < cells; ++a) {
    for (std::size_t k = 0; k < width; ++k) {
      stencil_axis[a * width + k] =
          static_cast<std::uint32_t>((a + k + cells - range) % cells);
    }
  }
}

/// Stencil population per cell, computed separably: one 1-D wrap-around
/// sliding-window pass per axis (add the entering cell, drop the leaving
/// one) — O(cells) per line instead of O(cells * width).  Valid because
/// width <= cells (the all-pairs fallback catches smaller boxes), so the
/// window never visits a cell twice.  Three passes flip between the two
/// buffers and land in stencil_pop:
///   populations (tmp) --z--> pop --y--> tmp --x--> pop.
inline void populate_stencil(std::size_t cells, std::size_t range,
                             const RunSpanFn& run_span,
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
    run_span(n_lines, 16, [&](std::size_t l_begin, std::size_t l_end) {
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

  run_span(n_cells, 4096, [&](std::size_t c_begin, std::size_t c_end) {
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
