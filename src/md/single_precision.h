// Double-facing adapters over the fp32 kernels — the `--precision sp` path.
//
// md::Simulation (and everything above it: backends, reports, checkpoints)
// speaks double.  The sp kernels (SoaKernelT<float>, NeighborListKernelT
// <float>) speak float end to end — that is the point, ALL their math
// including the accumulation runs at single precision, reproducing the
// trade the paper's Cell port makes when it keeps the SPE pipelines in
// fp32.  These adapters sit on the seam: narrow the double interface once
// per evaluation, run the float kernel, widen the results back.  The
// rounding happens exactly where the narrowing casts are written and
// nowhere else.
//
// Contrast with the mixed kernels (<float, double>): those are natively
// double-facing (ForceKernelT<double>), narrow only the lane inputs and
// accumulate in double, so they need no adapter.
#pragma once

#include "md/force_kernel.h"
#include "md/parallel_neighbor.h"
#include "md/soa_kernel.h"

namespace emdpa::md {

namespace detail {

/// Narrow the double interface to the float one the sp kernels speak, run,
/// widen the results back.  Shared by every sp adapter.
template <typename Kernel>
ForceResult run_single(Kernel& inner,
                       std::vector<emdpa::Vec3<float>>& positions_f,
                       const std::vector<emdpa::Vec3<double>>& positions,
                       const PeriodicBox& box, const LjParams& lj,
                       double mass) {
  positions_f.resize(positions.size());
  for (std::size_t i = 0; i < positions.size(); ++i) {
    positions_f[i] = emdpa::Vec3<float>{static_cast<float>(positions[i].x),
                                        static_cast<float>(positions[i].y),
                                        static_cast<float>(positions[i].z)};
  }
  const PeriodicBoxF box_f(static_cast<float>(box.edge()));
  const LjParamsF lj_f = lj.cast<float>();

  const ForceResultF inner_result =
      inner.compute(positions_f, box_f, lj_f, static_cast<float>(mass));

  ForceResult result;
  result.accelerations.resize(inner_result.accelerations.size());
  for (std::size_t i = 0; i < inner_result.accelerations.size(); ++i) {
    const auto& a = inner_result.accelerations[i];
    result.accelerations[i] = emdpa::Vec3<double>{a.x, a.y, a.z};
  }
  result.potential_energy = inner_result.potential_energy;
  result.virial = inner_result.virial;
  result.stats = inner_result.stats;
  return result;
}

}  // namespace detail

/// SoaKernelT<float> behind the double ForceKernel interface; forwards the
/// BlockCullStats counters of the inner kernel.
class SingleSoaKernel final : public ForceKernel, public BlockCullStats {
 public:
  using Options = SoaKernelF::Options;

  explicit SingleSoaKernel(Options options = {})
      : inner_(options) {}

  std::string name() const override { return inner_.name(); }
  simd::SimdType isa() const { return inner_.isa(); }
  std::size_t simd_width() const { return inner_.simd_width(); }

  std::uint64_t live_block_pairs() const override {
    return inner_.live_block_pairs();
  }
  std::uint64_t block_pairs() const override { return inner_.block_pairs(); }

  ForceResult compute(const std::vector<emdpa::Vec3<double>>& positions,
                      const PeriodicBox& box, const LjParams& lj,
                      double mass) override;

 private:
  SoaKernelF inner_;
  std::vector<emdpa::Vec3<float>> positions_f_;
};

/// NeighborListKernelF behind the double ForceKernel interface; forwards the
/// NeighborListControl seam to the inner kernel so md::Simulation can
/// checkpoint-invalidate and report rebuilds as usual.
class SingleNeighborListKernel final : public ForceKernel,
                                       public NeighborListControl {
 public:
  using Options = NeighborListKernelF::Options;

  explicit SingleNeighborListKernel(Options options = {})
      : inner_(options) {}

  std::string name() const override { return inner_.name(); }
  simd::SimdType isa() const { return inner_.isa(); }
  std::size_t simd_width() const { return inner_.simd_width(); }

  ListStats list_stats() const override { return inner_.list_stats(); }
  void invalidate_list() override { inner_.invalidate_list(); }
  bool has_list() const override { return inner_.has_list(); }
  std::vector<emdpa::Vec3d> list_reference_positions() const override {
    return inner_.list_reference_positions();
  }
  double list_build_cutoff() const override {
    return inner_.list_build_cutoff();
  }
  void seed_list(const std::vector<emdpa::Vec3d>& reference, double box_edge,
                 double cutoff) override {
    inner_.seed_list(reference, box_edge, cutoff);
  }

  ForceResult compute(const std::vector<emdpa::Vec3<double>>& positions,
                      const PeriodicBox& box, const LjParams& lj,
                      double mass) override;

 private:
  NeighborListKernelF inner_;
  std::vector<emdpa::Vec3<float>> positions_f_;
};

}  // namespace emdpa::md
