// Structure-of-arrays N^2 force kernel with SIMD lanes and optional
// thread-pool row parallelism — the host-side analogue of the paper's device
// ports, running as fast as the build machine allows.
//
// Differences from ReferenceKernelT, in the order they matter:
//  * SoA layout: positions live in separate 64-byte-aligned x/y/z arrays, so
//    a SIMD lane load touches contiguous memory (no AoS gather).
//  * Batch inner loop: each atom row tests j-atoms one 64-byte block at a
//    time (simd::block_lanes lanes, a whole number of packs on every ISA);
//    the cutoff test and the force/energy accumulation are fused behind one
//    lane mask (a blend), with an any-lane early-out per pack.
//  * j-block cull: at pack time every 64-byte block gets the bounding box of
//    its atoms, and each i-block skips the j-blocks whose min-image gap
//    bound (lj_simd.h) already puts every pair beyond the cutoff — on a
//    near-lattice run all but a few percent of them.  A culled block would
//    have added exactly +0.0, so forces, energies, virials and PairStats
//    are bit for bit what the full sweep gives (kernel_rows.h); the live
//    share of the last evaluation is live_block_pairs() / block_pairs().
//  * Runtime ISA dispatch: the row loop is compiled once per instruction
//    set (md/simd_rows_*.cpp) and the constructor resolves which table to
//    run — Options::isa, else EMDPA_SIMD, else the fastest this CPU
//    supports.  Because rows accumulate in fixed blocks reduced in lane
//    order, every ISA produces BITWISE IDENTICAL results (kernel_rows.h).
//  * Precision seam: `Real` is the packed coordinate / lane-math type and
//    `Acc` the reduction type (md/precision.h) — <double,double> is dp,
//    <float,float> sp, <float,double> mixed.  Every instantiation is a
//    double-facing ForceKernel: positions, box, LJ parameters and mass are
//    narrowed to Real / Acc once per evaluation, and each row's Acc results
//    are widened back to double where they are stored.
//  * Min-image hoisted and fused: positions are wrapped into the box once at
//    pack time, after which all four MinImageStrategy variants agree exactly
//    (the property the reference-kernel tests assert), so one branch-free
//    single-reflection inner loop serves them all.
//  * Self-pair exclusion by distance, not index: the lane mask requires
//    r2 > 0, which drops the i==j pair but ALSO any distinct pair of atoms
//    at exactly coincident positions.  ReferenceKernelT only skips j==i and
//    would return inf/NaN forces for such a pair, so on degenerate inputs
//    forces and stats.interacting intentionally diverge; the bitwise-parity
//    claim below is scoped to configurations with no coincident atoms.
//  * Determinism: forces, PE and virial are accumulated per atom row and
//    reduced in row order, so results are bit-identical run to run at ANY
//    thread count (stronger than the per-chunk guarantee parallel_reduce
//    gives).
#pragma once

#include <cstdint>
#include <optional>

#include "core/aligned_buffer.h"
#include "core/simd.h"
#include "core/thread_pool.h"
#include "md/force_kernel.h"
#include "md/precision.h"
#include "md/simd_kernels.h"

namespace emdpa::md {

/// The block-cull counters of the last N^2 evaluation, independent of the
/// kernel's precision — md::Simulation's view of whichever instance it
/// drives.
class BlockCullStats {
 public:
  virtual ~BlockCullStats() = default;
  /// (i-block, j-block) pairs the last compute() swept after the cull.
  virtual std::uint64_t live_block_pairs() const = 0;
  /// All (i-block, j-block) pairs of the last compute(): blocks squared.
  virtual std::uint64_t block_pairs() const = 0;
};

template <typename Real, typename Acc = Real>
class SoaKernelT final : public ForceKernel, public BlockCullStats {
 public:
  struct Options {
    /// Pool to split atom rows over; nullptr runs serial on the caller.
    ThreadPool* pool = nullptr;
    /// Atom rows per parallel chunk.
    std::size_t grain = 16;
    /// Force this instruction set (throws at construction when it cannot
    /// run here); empty resolves EMDPA_SIMD, then the fastest available.
    std::optional<simd::SimdType> isa;
  };

  explicit SoaKernelT(Options options = {});

  std::string name() const override;

  /// The instruction set the dispatcher selected for this instance.
  simd::SimdType isa() const { return isa_; }
  const char* simd_name() const { return simd::to_string(isa_); }

  /// SIMD lane count the dispatched kernel executes per pack — a runtime
  /// property of the selected ISA, NOT the compile-time native width.
  std::size_t simd_width() const { return width_; }

  /// Lanes per accumulation block; rows are padded to this on every ISA.
  static constexpr std::size_t block_width() {
    return simd::block_lanes<Real>();
  }

  ForceResult compute(const std::vector<emdpa::Vec3d>& positions,
                      const PeriodicBox& box, const LjParams& lj,
                      double mass) override;
  void recycle(std::vector<emdpa::Vec3d>&& spare) override {
    spare_accelerations_ = std::move(spare);
  }

  std::uint64_t live_block_pairs() const override { return live_block_pairs_; }
  std::uint64_t block_pairs() const override { return block_pairs_; }

 private:
  /// Entries per box array: the block count rounded up to a whole 64-byte
  /// block, so every array starts aligned and whole packs can be loaded.
  static constexpr std::size_t box_stride(std::size_t n_blocks) {
    return (n_blocks + block_width() - 1) / block_width() * block_width();
  }
  void ensure_capacity(std::size_t padded, std::size_t n);

  Options options_;
  simd::SimdType isa_;
  std::size_t width_;
  simd_kernels::SoaRowsFn<Real, Acc> rows_fn_;
  // Scratch reused across steps (one kernel instance drives a whole run).
  std::optional<AlignedBuffer<Real, 64>> xs_, ys_, zs_;
  std::vector<emdpa::Vec3d> spare_accelerations_;  ///< from recycle()
  std::vector<Acc> row_pe_, row_virial_;
  std::vector<std::uint64_t> row_hits_;
  // Block boxes: lo x, hi x, lo y, hi y, lo z, hi z, box_stride() apart.
  std::optional<AlignedBuffer<Real, 64>> boxes_;
  std::vector<std::uint32_t> block_live_;  ///< live j-blocks per i-block
  std::uint64_t live_block_pairs_ = 0;
  std::uint64_t block_pairs_ = 0;
};

using SoaKernel = SoaKernelT<double>;
using SoaKernelF = SoaKernelT<float>;
using SoaKernelMixed = SoaKernelT<float, double>;

}  // namespace emdpa::md
