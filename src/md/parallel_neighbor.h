// Parallel O(N) neighbour-list execution path — the standard MD optimisation
// the paper's section 3.4 notes its streaming ports had to forgo ("the
// neighboring atom pairlist construction, which is updated every few
// simulation time steps"), rebuilt here on top of the host thread-pool/SIMD
// layer so the host fast path stops paying N^2 at large atom counts.
//
// Two cooperating pieces:
//
//  * ParallelNeighborListT — a SIMD-padded neighbour list built with a
//    cell-grid bin-and-filter.  Binning is a pool-parallel stable counting
//    sort: fixed atom chunks (at most listutil::kMaxBinChunks of them) build
//    per-chunk cell histograms, a block-parallel prefix-merge pass turns the
//    per-chunk columns into write cursors, and a second chunk-parallel pass
//    scatters atoms into their cells.  The output is the unique stable sort
//    by cell — atoms stay in index order within each cell — so the list is
//    a pure function of the inputs at any thread count (the chunk
//    decomposition depends only on N).  The wrapped coordinates are then
//    gathered into cell-sorted SoA arrays (atoms keep their numbering; only
//    this copy is sorted), so each stencil cell is a contiguous stream.
//    Cells are sized to about HALF the list radius with a correspondingly
//    wider stencil — much tighter around the list sphere than a cutoff-sized
//    27-cell grid — and per stencil (x, y) line the z-window is consecutive
//    cell ids, so a cell's whole stencil is a few merged spans of the sorted
//    arrays (two per line at most, where the window wraps).  The fill runs
//    every distance test once and writes every row once, straight into the
//    storage the force sweep reads: the runtime-dispatched per-ISA distance
//    filter (kernel_rows.h ListFill — the force sweep's copysign reflection
//    across SIMD lanes, kept indices written with vpcompressd or a mask-bit
//    scan) writes each row into pages taken from one shared block — one
//    fill task per pool thread claims chunks of cells in turn and keeps its
//    page across them — and the row is self-padded in place.  A row never
//    straddles a page: a task takes a fresh page, or enough consecutive
//    ones, whenever the room left is below the row's stencil bound, so the
//    pages in use exceed the rows by ~2% plus a page per task (a sparser
//    page set would cost RSS anyway: which page tails stay untouched moves
//    from build to build with the claim order).  The list records row
//    i as entries[row_begin[i], row_end[i]).  A row's entries, their order
//    and its padding are a pure function of the inputs, independent of
//    thread count and ISA; WHERE a row sits in the block is not — it
//    depends on which thread took which page, so offsets are no contract.
//    Each row is padded to the 64-byte ACCUMULATION BLOCK
//    (simd::block_lanes<Real>() — 8 doubles / 16 floats), not the hardware
//    pack width, so the padded rows are identical on every
//    runtime-dispatched ISA; padding slots hold the atom's own index, whose
//    r2 == 0 the shared lane mask (lj_simd.h) already rejects.  The block
//    is never value-initialised and keeps its capacity across builds: a
//    continuing list sizes it from the pages its last build took, a fresh
//    one from the uniform-density estimate n rho (4/3) pi r^3 plus padding
//    and generous headroom (pages nobody takes are never touched, so they
//    cost no RSS).  Only a build that still runs out grows the block and
//    filters again — a "refill"; its first pass counted every row exactly.
//    A growing block is released before its replacement is taken and
//    nothing is copied, so first touch happens in the parallel fill.  The
//    build reports two phase timings — "bin" (wrap + counting sort +
//    stencil tables + sorted SoA gather) and "fill" (filter + in-place
//    padding) — which the host-parallel backend surfaces as
//    RunResult::metadata keys list_build_bin_ms / list_build_fill_ms, and
//    its memory (block plus row offsets, histogram) as list_csr_bytes /
//    list_hist_bytes.
//
//  * NeighborListKernelT — a ForceKernelT that walks each atom's neighbour
//    lanes one block at a time.  Positions are packed as {x, y, z, 0}
//    records, and Pack::load_xyz loads each neighbour's record (one 32-byte
//    dp / 16-byte sp load, one cache line) straight from the row's
//    entries and transposes the records into x/y/z lanes;
//    then comes the same fused min-image + masked LJ accumulation as the
//    N^2 SoA kernel, through the same runtime-dispatched per-ISA row loops
//    (see soa_kernel.h for the dispatch and <Real, Acc> precision seams).  Atom
//    rows spread over the pool in the order the build wrote them, so the
//    sweep streams through the block; each row's partials land at its own
//    atom index and reduce in index order, so forces, PE and virial are
//    bitwise identical run to run at ANY thread count, and bitwise
//    identical across dispatched ISAs.
//
// The list is rebuilt when an atom has moved more than half the skin since
// the build, and on any change of cutoff, box edge or atom count: a list
// indexed for another configuration is never reused.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/aligned_buffer.h"
#include "core/simd.h"
#include "core/thread_pool.h"
#include "md/force_kernel.h"
#include "md/list_build_util.h"
#include "md/precision.h"
#include "md/simd_kernels.h"

namespace emdpa::md {

/// When a built list considers itself stale.  Structural invalidation
/// (atom-count, cutoff or box-edge change) is always on — a list indexed for
/// a different configuration is memory-unsafe, not merely inaccurate — the
/// policy only governs the displacement check between structurally valid
/// configurations.
enum class SkinPolicy {
  /// Rebuild once any atom has moved more than skin/2 since the last build
  /// (two atoms approaching head-on close the gap by at most `skin`).  The
  /// correct MD policy; the default everywhere.
  kHalfSkinDisplacement,
  /// Never rebuild on displacement.  Deliberately broken: exists so the
  /// trajectory tests can prove the displacement check is load-bearing (a
  /// fast atom silently leaves its stale neighbourhood and the physics
  /// drifts).  Not exposed through any CLI.
  kNeverRebuild,
};

const char* to_string(SkinPolicy policy);

/// Bytes a neighbour list holds between builds (allocated, not merely
/// touched): the row block plus the row_begin / row_end offsets, and the
/// binning histogram.
struct ListMemory {
  std::uint64_t csr_bytes = 0;
  std::uint64_t hist_bytes = 0;
};

/// A list kernel's counters for the run report: builds and their phases,
/// the most recent build's size, and the memory it holds.
struct ListStats {
  std::uint64_t rebuilds = 0;
  /// Builds that ran out of block, grew it and filtered again.
  std::uint64_t refills = 0;
  /// Directed entries and distance tests of the most recent build.
  std::uint64_t directed_entries = 0;
  std::uint64_t distance_tests = 0;
  /// Cumulative wall-clock seconds: build binning and fill, the staleness
  /// checks plus the reference-position copies, and the force sweeps
  /// (packing the positions, the row loop and the ordered fold of its
  /// partials; the staleness check and any list build not included).
  double bin_seconds = 0;
  double fill_seconds = 0;
  double check_seconds = 0;
  double sweep_seconds = 0;
  ListMemory memory;
};

/// What the simulation seam needs from any neighbour-list kernel regardless
/// of its numeric types: statistics for the run report, the
/// checkpoint-time invalidation that keeps a continuing run and a future
/// resume bitwise identical, and the reference-position capture/reseed pair
/// the trajectory store's pure-observer snapshots rest on.  Every
/// NeighborListKernelT instantiation (dp, sp, mixed) implements it.
class NeighborListControl {
 public:
  virtual ~NeighborListControl() = default;
  virtual ListStats list_stats() const = 0;
  virtual void invalidate_list() = 0;

  /// True when a built list is live (a build happened and nothing
  /// invalidated it since).
  virtual bool has_list() const = 0;
  /// The positions the live list was built from, widened to double (exact
  /// for the float lists: every float is a double).  Empty when !has_list().
  virtual std::vector<emdpa::Vec3d> list_reference_positions() const = 0;
  /// The lj cutoff the live list was built for (widened; the skin is the
  /// kernel's own configuration).  Meaningless when !has_list().
  virtual double list_build_cutoff() const = 0;
  /// Rebuild the list from `reference` (narrowed back to the kernel's Real —
  /// the exact inverse of list_reference_positions' widening).  The build is
  /// a pure function of (positions, box, cutoff), so seeding with a captured
  /// reference reproduces the captured list's rows bit-for-bit — what lets a
  /// trajectory-store restore continue a run whose snapshot did NOT
  /// invalidate the list.
  virtual void seed_list(const std::vector<emdpa::Vec3d>& reference,
                         double box_edge, double cutoff) = 0;
};

/// SIMD-padded neighbour list with a deterministic pool-parallel build.
template <typename Real>
class ParallelNeighborListT {
 public:
  /// `skin`: extra shell radius beyond the cutoff; `pool`: nullptr builds
  /// serially on the caller.
  explicit ParallelNeighborListT(
      Real skin, ThreadPool* pool = nullptr, std::size_t grain = 64,
      SkinPolicy policy = SkinPolicy::kHalfSkinDisplacement);

  Real skin() const { return skin_; }
  SkinPolicy policy() const { return policy_; }
  std::uint64_t rebuilds() const { return rebuilds_; }
  /// Builds that ran out of block, grew it and filtered again.
  std::uint64_t refills() const { return refills_; }

  /// True when the list no longer covers `positions` at `cutoff`: atom count
  /// / cutoff / box edge changed, or some atom moved more than skin/2 since
  /// the last build.
  bool needs_rebuild(const std::vector<emdpa::Vec3<Real>>& positions,
                     const PeriodicBoxT<Real>& box, Real cutoff) const;

  /// Pin the instruction set of the build's distance filter.  Kernels pass
  /// the ISA they resolved for the force sweep, so --simd / EMDPA_SIMD pin
  /// both; a list left unpinned resolves it on its first build the way the
  /// kernels do (EMDPA_SIMD, else the fastest available).  The rows are the
  /// same on every ISA.
  void set_isa(simd::SimdType isa);

  /// The filter's instruction set; empty until pinned or first built.
  std::optional<simd::SimdType> isa() const { return isa_; }

  /// Rebuild the list for `positions` at `cutoff` (list radius cutoff+skin).
  /// Throws RuntimeFailure, leaving the list invalid, when the padded rows
  /// would overflow the 32-bit offsets.
  void build(const std::vector<emdpa::Vec3<Real>>& positions,
             const PeriodicBoxT<Real>& box, Real cutoff);

  /// Lower the padded-entry limit of that offset guard (default: the uint32
  /// offset range), so a test can trip it at a small size.
  void set_csr_limit(std::uint64_t limit) { csr_limit_ = limit; }

  /// Call build() iff needs_rebuild(); returns true when a build happened.
  bool ensure(const std::vector<emdpa::Vec3<Real>>& positions,
              const PeriodicBoxT<Real>& box, Real cutoff);

  /// Drop the current list so the next ensure() rebuilds unconditionally.
  void invalidate() { build_positions_.clear(); build_cutoff_ = Real(-1); }

  /// True when a build is live (built and not invalidated since).
  bool valid() const {
    return build_cutoff_ >= Real(0) && !build_positions_.empty();
  }

  /// The raw input positions of the most recent build — what needs_rebuild
  /// measures displacement against, and what seed-based restores replay.
  const std::vector<emdpa::Vec3<Real>>& reference_positions() const {
    return build_positions_;
  }

  /// The lj cutoff of the most recent build (list radius is cutoff+skin);
  /// Real(-1) when invalid.
  Real build_cutoff() const { return build_cutoff_; }

  std::size_t size() const { return build_positions_.size(); }

  /// Lanes every row's entry range is padded to — the ISA-independent
  /// accumulation block, so one built list serves any dispatched ISA.
  static constexpr std::size_t padded_multiple() {
    return simd::block_lanes<Real>();
  }

  /// Row i is entries()[row_begin()[i], row_end()[i]): its kept neighbours
  /// in stencil order, then copies of i up to a multiple of
  /// padded_multiple().  The rows' contents are the contract; their
  /// offsets are not (they depend on which thread took which page).
  const std::vector<std::uint32_t>& row_begin() const { return row_begin_; }
  const std::vector<std::uint32_t>& row_end() const { return row_end_; }
  /// Every atom once, in the order the build wrote the rows (cell-sorted;
  /// index order after the all-pairs fallback): a sweep visiting rows in
  /// this order streams through the block.
  const std::vector<std::uint32_t>& row_order() const { return cell_atoms_; }
  /// The pages of the block the most recent build took.  Slots between
  /// rows (a page's unused tail) are never written; every row slot is
  /// written by each build.
  std::span<const std::uint32_t> entries() const {
    return {entries_.data(), entry_count_};
  }

  /// Directed (i,j) entries excluding padding, i.e. 2x the unordered pair
  /// count within cutoff+skin.
  std::uint64_t directed_entries() const { return directed_entries_; }

  /// Directed candidate pairs of the most recent build: the sum over atoms
  /// of their cell's stencil population minus the atom itself — what the
  /// device cost models price, one test per candidate.  The host fill runs
  /// each test once too (twice only in a build that refilled).
  std::uint64_t build_distance_tests() const { return build_distance_tests_; }

  /// Bytes held between builds (allocated, not merely used): the row block
  /// and offsets, the bin histogram.
  ListMemory memory() const;

  /// Wall-clock seconds the most recent build spent in the binning phase
  /// (wrap + parallel counting sort + stencil tables + cell-sorted SoA
  /// gather) and in the fill phase (filter + in-place padding, twice in a
  /// refill).  The *_seconds_total accessors accumulate across every build
  /// since construction — what the backend metadata and benchmarks report;
  /// check_seconds_total() covers the staleness checks of ensure() and the
  /// reference-position copies of build().
  double last_bin_seconds() const { return last_bin_seconds_; }
  double last_fill_seconds() const { return last_fill_seconds_; }
  double bin_seconds_total() const { return bin_seconds_total_; }
  double fill_seconds_total() const { return fill_seconds_total_; }
  double check_seconds_total() const { return check_seconds_total_; }

 private:
  void run_rows(std::size_t n,
                const std::function<void(std::size_t, std::size_t)>& body) const;
  void run_span(std::size_t n, std::size_t grain,
                const std::function<void(std::size_t, std::size_t)>& body) const;
  void bin_atoms(std::size_t n, std::size_t cells, std::size_t n_cells,
                 double inv_cell);
  void populate_stencil(std::size_t cells, std::size_t range);
  void build_rows(const std::vector<emdpa::Vec3<Real>>& positions,
                  const PeriodicBoxT<Real>& box, Real cutoff);
  /// What one fill pass wrote: pages taken (more than usable_pages() means
  /// the block ran out, and the rows past its end went to throwaway pages),
  /// directed and padded entries, and distance tests.
  struct FillTotals {
    std::size_t pages = 0;
    std::uint64_t kept = 0;
    std::uint64_t padded = 0;
    std::uint64_t tests = 0;
  };
  /// Filter every row into the block: one task per pool thread claims fill
  /// chunks of kFillCellGrain cells in turn and writes their rows into the
  /// pages it takes.  How many pages that is depends a little on the claim
  /// order (each task's last page is partly filled).
  FillTotals fill_rows(std::size_t cells, std::size_t range, Real edge);
  /// Pages of the block the fill may write: its capacity, capped at what
  /// the uint32 offsets address.
  std::size_t usable_pages() const {
    return std::min(entries_.capacity() / kPageEntries, kMaxPages);
  }

  /// Atoms per chunk of the pool-parallel staleness check.
  static constexpr std::size_t kStaleGrain = 4096;
  /// Cells per fill chunk (~2 atoms each at MD densities).
  static constexpr std::size_t kFillCellGrain = 64;
  /// Entries per page of the row block.  A fill task keeps its page across
  /// the chunks it claims and starts a fresh one when the room left is
  /// below a row's stencil bound (a few hundred entries at MD densities),
  /// so the pages in use exceed the rows by ~2% plus a page per task.
  static constexpr std::size_t kPageEntries = 16384;
  /// Pages the uint32 row offsets can address.
  static constexpr std::size_t kMaxPages =
      listutil::kMaxCsrEntries / kPageEntries;

  Real skin_;
  ThreadPool* pool_;
  std::size_t grain_;
  SkinPolicy policy_;

  Real build_cutoff_ = Real(-1);   ///< lj cutoff the list was built for
  Real build_edge_ = Real(-1);     ///< box edge the list was built for
  Real list_cutoff_sq_ = Real(0);
  std::vector<emdpa::Vec3<Real>> build_positions_;
  std::vector<std::uint32_t> row_begin_, row_end_;  ///< row i's slots
  listutil::RawArray<std::uint32_t> entries_;  ///< the row block
  std::size_t entry_count_ = 0;  ///< slots of entries_ in use
  std::size_t pages_used_ = 0;   ///< pages the last grid build took
  std::uint64_t csr_limit_ = listutil::kMaxCsrEntries;
  std::uint64_t directed_entries_ = 0;
  std::uint64_t build_distance_tests_ = 0;
  std::uint64_t rebuilds_ = 0;
  std::uint64_t refills_ = 0;

  double last_bin_seconds_ = 0;
  double last_fill_seconds_ = 0;
  double bin_seconds_total_ = 0;
  double fill_seconds_total_ = 0;
  double check_seconds_total_ = 0;

  // Cell-grid scratch reused across builds.
  std::vector<emdpa::Vec3<Real>> wrapped_;
  std::vector<std::uint32_t> cell_of_atom_;
  std::vector<std::uint32_t> cell_start_;
  std::vector<std::uint32_t> cell_atoms_;
  std::vector<std::uint32_t> bin_hist_;      ///< per-chunk cell histograms
  std::vector<std::uint32_t> stencil_pop_;   ///< atoms per cell stencil
  std::vector<std::uint32_t> stencil_tmp_;   ///< separable-pass intermediate
  /// wrapped_ in cell_atoms_ order, padded for the filter's tail pack.
  std::vector<Real> sorted_x_, sorted_y_, sorted_z_;

  std::optional<simd::SimdType> isa_;
  simd_kernels::ListFillFn<Real> fill_ = nullptr;
};

/// Neighbour-list force kernel: the host fast path at large N.  Walks the
/// list's rows with the dispatched per-ISA row loop and implements the
/// complete NeighborListControl seam.
///
/// Same physics, ISA dispatch, determinism guarantees and coincident-atom
/// caveat as SoaKernelT (see soa_kernel.h); PairStats count unordered pairs,
/// with candidates bounded by the list size rather than N^2.  For
/// Real != Acc the interface positions are narrowed once per evaluation and
/// BOTH the list build and the lane math run on the same narrowed
/// coordinates, so sp and mixed traverse identical lists.
template <typename Real, typename Acc = Real>
class NeighborListKernelT final : public ForceKernelT<Acc>,
                                  public NeighborListControl {
 public:
  struct Options {
    double skin = 0.3;
    /// Pool to split the list build and atom rows over; nullptr runs serial.
    ThreadPool* pool = nullptr;
    /// Atom rows per parallel chunk.
    std::size_t grain = 16;
    /// Displacement-staleness policy (kNeverRebuild is for tests only).
    SkinPolicy skin_policy = SkinPolicy::kHalfSkinDisplacement;
    /// Force this instruction set; empty resolves EMDPA_SIMD, then the
    /// fastest available (same seam as SoaKernelT::Options::isa).
    std::optional<simd::SimdType> isa;
  };

  explicit NeighborListKernelT(Options options = {})
      : list_(static_cast<Real>(options.skin), options.pool,
              options.grain < 64 ? 64 : options.grain, options.skin_policy),
        pool_(options.pool),
        grain_(options.grain),
        isa_(simd_kernels::resolve_isa(options.isa)) {
    const simd_kernels::KernelRows& table = simd_kernels::rows(isa_);
    width_ = simd_kernels::width<Real>(table);
    rows_fn_ = simd_kernels::list_rows<Real, Acc>(table);
    // One ISA for the sweep and the list's fill.
    list_.set_isa(isa_);
  }

  std::string name() const override {
    std::string name = std::string("neighbor-list-soa[") +
                       simd::to_string(isa_) + ",w" + std::to_string(width_) +
                       "," + precision_tag<Real, Acc>() + "]";
    if (pool_ != nullptr) {
      name += "[threads=" + std::to_string(pool_->size()) + "]";
    }
    return name;
  }

  Real skin() const { return list_.skin(); }
  std::uint64_t rebuilds() const { return list_.rebuilds(); }
  std::uint64_t evaluations() const { return evaluations_; }

  /// The underlying list, for inspection (rebuild counters, entry counts —
  /// the pairlist device cost models read their workload from here).
  const ParallelNeighborListT<Real>& list() const { return list_; }

  /// Force the next compute() to rebuild the list (benchmarks use this to
  /// price the build; steady-state evaluation reuses the list).
  void invalidate() { list_.invalidate(); }

  /// The instruction set the dispatcher selected for this instance, and the
  /// lane count it executes per pack (runtime properties; see soa_kernel.h).
  simd::SimdType isa() const { return isa_; }
  std::size_t simd_width() const { return width_; }
  static constexpr std::size_t block_width() {
    return simd::block_lanes<Real>();
  }

  // NeighborListControl — the type-erased seam md::Simulation drives.
  ListStats list_stats() const override {
    ListStats stats;
    stats.rebuilds = list_.rebuilds();
    stats.refills = list_.refills();
    stats.directed_entries = list_.directed_entries();
    stats.distance_tests = list_.build_distance_tests();
    stats.bin_seconds = list_.bin_seconds_total();
    stats.fill_seconds = list_.fill_seconds_total();
    stats.check_seconds = list_.check_seconds_total();
    stats.sweep_seconds = sweep_seconds_;
    stats.memory = list_.memory();
    return stats;
  }
  void invalidate_list() override { list_.invalidate(); }
  bool has_list() const override { return list_.valid(); }
  std::vector<emdpa::Vec3d> list_reference_positions() const override {
    std::vector<emdpa::Vec3d> out;
    out.reserve(list_.reference_positions().size());
    for (const auto& p : list_.reference_positions()) {
      out.push_back({static_cast<double>(p.x), static_cast<double>(p.y),
                     static_cast<double>(p.z)});
    }
    return out;
  }
  double list_build_cutoff() const override {
    return static_cast<double>(list_.build_cutoff());
  }
  void seed_list(const std::vector<emdpa::Vec3d>& reference, double box_edge,
                 double cutoff) override {
    // Narrowing double -> Real here is the exact inverse of the widening in
    // list_reference_positions (for Real == float the stored doubles are
    // exactly representable floats), so the rebuilt list is bit-identical to
    // the one captured.
    std::vector<emdpa::Vec3<Real>> narrowed;
    narrowed.reserve(reference.size());
    for (const auto& p : reference) {
      narrowed.push_back({static_cast<Real>(p.x), static_cast<Real>(p.y),
                          static_cast<Real>(p.z)});
    }
    list_.build(narrowed, PeriodicBoxT<Real>(static_cast<Real>(box_edge)),
                static_cast<Real>(cutoff));
  }

  ForceResultT<Acc> compute(const std::vector<emdpa::Vec3<Acc>>& positions,
                            const PeriodicBoxT<Acc>& box,
                            const LjParamsT<Acc>& lj, Acc mass) override {
    const std::size_t n = positions.size();
    ForceResultT<Acc> result;
    // The row loop writes every row, so a recycled array needs no zero-fill.
    result.accelerations = std::exchange(spare_accelerations_, {});
    result.accelerations.resize(n);
    if (n == 0) return result;

    // The list build and the lane math both run in Real: narrow the box, LJ
    // parameters and (when Real != Acc) the positions once, so sp and mixed
    // traverse exactly the list their lane coordinates were tested against.
    const PeriodicBoxT<Real> rbox(static_cast<Real>(box.edge()));
    const LjParamsT<Real> ljr = lj.template cast<Real>();
    const std::vector<emdpa::Vec3<Real>>* real_positions;
    if constexpr (std::is_same_v<Real, Acc>) {
      real_positions = &positions;
    } else {
      cast_positions_.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        cast_positions_[i] =
            emdpa::Vec3<Real>{static_cast<Real>(positions[i].x),
                              static_cast<Real>(positions[i].y),
                              static_cast<Real>(positions[i].z)};
      }
      real_positions = &cast_positions_;
    }

    list_.ensure(*real_positions, rbox, ljr.cutoff);
    ++evaluations_;
    const auto sweep_start = std::chrono::steady_clock::now();

    if (!records_ || records_->size() < simd::kRecordReals * n) {
      records_.emplace(simd::kRecordReals * n);
    }
    row_pe_.resize(n);
    row_virial_.resize(n);
    row_hits_.resize(n);

    // Pack current positions into {x, y, z, 0} records, wrapping once so
    // the fused reflection in the lane kernel is exact.  The pad stays the
    // zero the buffer was built with.
    Real* records = records_->data();
    auto pack = [&](std::size_t i_begin, std::size_t i_end) {
      for (std::size_t i = i_begin; i < i_end; ++i) {
        const emdpa::Vec3<Real> p = rbox.wrap((*real_positions)[i]);
        Real* r = records + simd::kRecordReals * i;
        r[0] = p.x;
        r[1] = p.y;
        r[2] = p.z;
      }
    };

    const Acc inv_mass = Acc(1) / mass;
    const std::uint32_t* order = list_.row_order().data();
    const std::uint32_t* row_begin = list_.row_begin().data();
    const std::uint32_t* row_end = list_.row_end().data();
    const std::uint32_t* entries = list_.entries().data();

    // The dispatched per-ISA row loop (kernel_rows.h): load each padded
    // row sub-pack's records, masked LJ accumulate, lane-order reduce.
    // Rows are visited in the list's write order; each lands at its own
    // atom index, so the fold below sees the same partials either way.
    auto rows = [&](std::size_t s_begin, std::size_t s_end) {
      rows_fn_(records, order, row_begin, row_end, entries, rbox.edge(),
               ljr.cutoff_squared(), ljr, inv_mass, s_begin, s_end,
               result.accelerations.data(), row_pe_.data(), row_virial_.data(),
               row_hits_.data());
    };

    if (pool_ != nullptr) {
      pool_->parallel_for(0, n, 512, pack);
      pool_->parallel_for(0, n, grain_, rows);
    } else {
      pack(0, n);
      rows(0, n);
    }

    // Ordered reduction over the per-row partials: totals are independent of
    // thread count and chunking, bit-identical run to run.
    Acc total_pe{}, total_virial{};
    std::uint64_t hits = 0;
    for (std::size_t i = 0; i < n; ++i) {
      total_pe += row_pe_[i];
      total_virial += row_virial_[i];
      hits += row_hits_[i];
    }
    result.potential_energy = total_pe;
    result.virial = total_virial;
    result.stats.candidates = list_.directed_entries() / 2;  // unordered
    result.stats.interacting = hits / 2;
    sweep_seconds_ += std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - sweep_start)
                          .count();
    return result;
  }

  void recycle(std::vector<emdpa::Vec3<Acc>>&& spare) override {
    spare_accelerations_ = std::move(spare);
  }

 private:
  ParallelNeighborListT<Real> list_;
  ThreadPool* pool_;
  std::size_t grain_;
  simd::SimdType isa_;
  std::size_t width_;
  simd_kernels::ListRowsFn<Real, Acc> rows_fn_;
  std::uint64_t evaluations_ = 0;
  double sweep_seconds_ = 0;
  // Scratch reused across steps.  records_ holds kRecordReals per atom; a
  // pad slot is zeroed once, by the buffer, and never written.
  std::optional<AlignedBuffer<Real, 64>> records_;
  std::vector<emdpa::Vec3<Real>> cast_positions_;  ///< Real != Acc only
  std::vector<emdpa::Vec3<Acc>> spare_accelerations_;  ///< from recycle()
  std::vector<Acc> row_pe_, row_virial_;
  std::vector<std::uint64_t> row_hits_;
};

using NeighborListKernel = NeighborListKernelT<double>;
using NeighborListKernelF = NeighborListKernelT<float>;
using NeighborListKernelMixed = NeighborListKernelT<float, double>;

}  // namespace emdpa::md
