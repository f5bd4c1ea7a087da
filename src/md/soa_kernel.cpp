#include "md/soa_kernel.h"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

namespace emdpa::md {

template <typename Real, typename Acc>
SoaKernelT<Real, Acc>::SoaKernelT(Options options)
    : options_(options), isa_(simd_kernels::resolve_isa(options.isa)) {
  const simd_kernels::KernelRows& table = simd_kernels::rows(isa_);
  width_ = simd_kernels::width<Real>(table);
  rows_fn_ = simd_kernels::soa_rows<Real, Acc>(table);
}

template <typename Real, typename Acc>
std::string SoaKernelT<Real, Acc>::name() const {
  std::string name = std::string("soa-simd[") + simd_name() + ",w" +
                     std::to_string(simd_width()) + "," +
                     precision_tag<Real, Acc>() + "]";
  if (options_.pool != nullptr) {
    name += "[threads=" + std::to_string(options_.pool->size()) + "]";
  }
  return name;
}

template <typename Real, typename Acc>
void SoaKernelT<Real, Acc>::ensure_capacity(std::size_t padded,
                                            std::size_t n) {
  if (!xs_ || xs_->size() < padded) {
    xs_.emplace(padded);
    ys_.emplace(padded);
    zs_.emplace(padded);
  }
  row_pe_.resize(n);
  row_virial_.resize(n);
  row_hits_.resize(n);
  const std::size_t n_blocks = padded / block_width();
  const std::size_t stride = box_stride(n_blocks);
  if (!boxes_ || boxes_->size() < 6 * stride) boxes_.emplace(6 * stride);
  block_live_.resize(n_blocks);
}

template <typename Real, typename Acc>
ForceResult SoaKernelT<Real, Acc>::compute(
    const std::vector<emdpa::Vec3d>& positions, const PeriodicBox& box,
    const LjParams& lj, double mass) {
  const std::size_t n = positions.size();
  ForceResult result;
  // The row loop writes every row, so a recycled array needs no zero-fill.
  result.accelerations = std::exchange(spare_accelerations_, {});
  result.accelerations.resize(n);
  live_block_pairs_ = block_pairs_ = 0;
  if (n == 0) return result;

  // Pad to whole accumulation blocks (not packs): the padded layout, and so
  // the accumulation order, is identical on every dispatched ISA.
  constexpr std::size_t kBlock = block_width();
  const std::size_t padded = (n + kBlock - 1) / kBlock * kBlock;
  ensure_capacity(padded, n);

  // The lane math runs in Real: narrow the box and LJ parameters once (a
  // no-op in dp) so sp and mixed share one code path bit for bit.
  const PeriodicBoxT<Real> rbox(static_cast<Real>(box.edge()));
  const LjParamsT<Real> ljr = lj.cast<Real>();

  // Pack into SoA lanes, narrowing then wrapping once so the fused
  // reflection in the inner loop is exact (the hoisted part of every
  // min-image strategy) on exactly the coordinates the lanes will see.
  Real* xs = xs_->data();
  Real* ys = ys_->data();
  Real* zs = zs_->data();
  for (std::size_t i = 0; i < n; ++i) {
    const emdpa::Vec3<Real> p = rbox.wrap(
        emdpa::Vec3<Real>{static_cast<Real>(positions[i].x),
                          static_cast<Real>(positions[i].y),
                          static_cast<Real>(positions[i].z)});
    xs[i] = p.x;
    ys[i] = p.y;
    zs[i] = p.z;
  }
  // Padding columns: far enough out that one reflection still leaves them
  // beyond the cutoff, so their lanes never pass the range mask.
  const Real sentinel = Real(4) * (rbox.edge() + ljr.cutoff);
  for (std::size_t j = n; j < xs_->size(); ++j) {
    xs[j] = ys[j] = zs[j] = sentinel;
  }

  // Block boxes for the j-block cull (kernel_rows.h), over real atoms only:
  // the sentinel columns never pass the range mask, so leaving them out
  // just tightens the last box.  An axis whose coordinates are not all in
  // [0, edge] (a NaN, or a rare wrap rounding) gets the whole line, the
  // cull bound's precondition (min_image_gap, lj_simd.h).
  const std::size_t n_blocks = padded / kBlock;
  const std::size_t stride = box_stride(n_blocks);
  simd_kernels::SoaBlocks<Real> blocks{};
  blocks.count = n_blocks;
  blocks.live = block_live_.data();
  const Real* coords[3] = {xs, ys, zs};
  const Real edge = rbox.edge();
  constexpr Real kInf = std::numeric_limits<Real>::infinity();
  for (int k = 0; k < 3; ++k) {
    Real* lo = boxes_->data() + (2 * k) * stride;
    Real* hi = boxes_->data() + (2 * k + 1) * stride;
    for (std::size_t b = 0; b < n_blocks; ++b) {
      const Real* c = coords[k] + b * kBlock;
      const std::size_t count = std::min(kBlock, n - b * kBlock);
      Real l = c[0], h = c[0];
      bool inside = true;
      for (std::size_t j = 0; j < count; ++j) {
        inside = inside && c[j] >= Real(0) && c[j] <= edge;
        l = std::min(l, c[j]);
        h = std::max(h, c[j]);
      }
      lo[b] = inside ? l : -kInf;
      hi[b] = inside ? h : kInf;
    }
    std::fill(lo + n_blocks, lo + stride, Real(0));
    std::fill(hi + n_blocks, hi + stride, Real(0));
    blocks.lo[k] = lo;
    blocks.hi[k] = hi;
  }

  const Acc inv_mass = Acc(1) / static_cast<Acc>(mass);
  auto rows = [&](std::size_t row_begin, std::size_t row_end) {
    rows_fn_(xs, ys, zs, blocks, edge, ljr.cutoff_squared(), ljr,
             inv_mass, row_begin, row_end, result.accelerations.data(),
             row_pe_.data(), row_virial_.data(), row_hits_.data());
  };
  if (options_.pool != nullptr) {
    options_.pool->parallel_for(0, n, options_.grain, rows);
  } else {
    rows(0, n);
  }

  // Ordered reduction over the per-row partials: totals are independent of
  // thread count and chunking, bit-identical run to run.
  Acc pe{}, virial{};
  std::uint64_t interacting = 0;
  for (std::size_t i = 0; i < n; ++i) {
    pe += row_pe_[i];
    virial += row_virial_[i];
    interacting += row_hits_[i];
  }
  for (const std::uint32_t live : block_live_) live_block_pairs_ += live;
  block_pairs_ = static_cast<std::uint64_t>(n_blocks) * n_blocks;
  result.potential_energy = pe;
  result.virial = virial;
  // The row sweep visits every pair from both ends; report unordered pairs.
  result.stats.candidates =
      static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(n - 1) / 2;
  result.stats.interacting = interacting / 2;
  return result;
}

template class SoaKernelT<double>;
template class SoaKernelT<float>;
template class SoaKernelT<float, double>;

}  // namespace emdpa::md
