// The j-block cull of the SoA N^2 sweep (kernel_rows.h).
//
// Three layers:
//  * the bound min_image_gap (lj_simd.h), checked on the scalar Pack
//    against the lane arithmetic it stands for: for random boxes and points
//    inside them — ends included, |d| at exactly half the edge, cutoffs a
//    few ulps either side, pairs across the periodic boundary — the bound
//    never exceeds the lane-computed r2, so every block pair it culls has
//    r2 >= cutoff_sq on every lane, in double and in float;
//  * the kernel on a melted 4,096-atom lattice, where most blocks do cull:
//    forces, PE and virial are bit-identical across every available ISA and
//    across 1, 2 and 4 threads, and match fingerprints of the full,
//    unculled sweep, in dp, sp and mixed;
//  * the live-block counters Simulation and the host-parallel backend
//    report.
//
// This file builds with -ffp-contract=off (tests/CMakeLists.txt), like the
// per-ISA row TUs, so the scalar lane arithmetic here rounds exactly as
// theirs does.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <random>
#include <string>

#include "core/simd.h"
#include "core/thread_pool.h"
#include "md/backend.h"
#include "md/lj_simd.h"
#include "md/simd_kernels.h"
#include "md/simulation.h"
#include "md/soa_kernel.h"
#include "md/workload.h"

namespace emdpa::md {
namespace {

// ---------------------------------------------------------------------------
// The bound against the lane arithmetic.

template <typename Real>
using Scalar = simd::Pack<Real, simd::SimdType::kScalar>;

template <typename Real>
struct Box3 {
  Real lo[3];
  Real hi[3];
};

template <typename Real>
struct Point3 {
  Real c[3];
};

/// The r2 the force lanes compute for one pair of wrapped coordinates.
template <typename Real>
Real lane_r2(const Point3<Real>& i, const Point3<Real>& j, Real edge) {
  using P = Scalar<Real>;
  Real d[3];
  for (int k = 0; k < 3; ++k) {
    d[k] = reflect_min_image(P{i.c[k]} - P{j.c[k]}, P{edge},
                             P{edge / Real(2)}, P::zero())
               .v;
  }
  return d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
}

/// The cull's bound on the lane r2 of every pair in the two boxes, composed
/// from the per-axis gaps exactly as RowKernels::live_spans composes it.
template <typename Real>
Real bound_r2(const Box3<Real>& a, const Box3<Real>& b, Real edge) {
  using P = Scalar<Real>;
  Real g[3];
  for (int k = 0; k < 3; ++k) {
    g[k] = min_image_gap(P{a.lo[k]}, P{a.hi[k]}, P{b.lo[k]}, P{b.hi[k]},
                         P{edge}, P::zero())
               .v;
  }
  return g[0] * g[0] + g[1] * g[1] + g[2] * g[2];
}

/// The cull decision exactly as live_spans makes it.
template <typename Real>
bool culls(Real bound, Real cutoff_sq) {
  return bound >= cutoff_sq;
}

template <typename Real>
Real ulps_from(Real x, int n) {
  const Real dir = n >= 0 ? std::numeric_limits<Real>::infinity() : Real(0);
  for (int s = 0; s < std::abs(n); ++s) x = std::nextafter(x, dir);
  return x;
}

/// Coordinates a random box and its sampled points may take: every point
/// stays inside [0, edge], the bound's precondition.
template <typename Real>
Real clamp_edge(Real x, Real edge) {
  return std::min(std::max(x, Real(0)), edge);
}

template <typename Real>
class Sampler {
 public:
  explicit Sampler(std::uint64_t seed) : rng_(seed) {}

  Real uniform(Real lo, Real hi) {
    return clamp_edge<Real>(
        static_cast<Real>(std::uniform_real_distribution<double>(lo, hi)(rng_)),
        hi);
  }
  int pick(int n) { return std::uniform_int_distribution<int>(0, n - 1)(rng_); }

  /// A random interval in [0, edge]: sometimes a point, sometimes hugging
  /// 0 or the edge (so pairs meet across the periodic boundary), sometimes
  /// wide.
  void interval(Real edge, Real& lo, Real& hi) {
    switch (pick(5)) {
      case 0: lo = hi = uniform(Real(0), edge); return;
      case 1: lo = Real(0); hi = uniform(Real(0), edge / Real(4)); return;
      case 2: hi = edge; lo = uniform(edge * Real(0.75), edge); return;
      case 3: {
        const Real w = uniform(Real(0), edge / Real(8));
        lo = uniform(Real(0), edge - w);
        hi = clamp_edge<Real>(lo + w, edge);
        return;
      }
      default: {
        const Real a = uniform(Real(0), edge), b = uniform(Real(0), edge);
        lo = std::min(a, b);
        hi = std::max(a, b);
      }
    }
  }

  /// A point inside [lo, hi]: an end, an end nudged one ulp inward, or
  /// anywhere between.
  Real inside(Real lo, Real hi) {
    switch (pick(4)) {
      case 0: return lo;
      case 1: return hi;
      case 2: return std::min(hi, std::nextafter(lo, hi));
      default: return std::min(hi, std::max(lo, uniform(lo, hi)));
    }
  }

 private:
  std::mt19937_64 rng_;
};

template <typename Real>
void check_random_boxes(std::uint64_t seed) {
  Sampler<Real> s(seed);
  int culled_pairs = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    const Real edge = s.uniform(Real(1), Real(40));
    Box3<Real> a, b;
    for (int k = 0; k < 3; ++k) {
      s.interval(edge, a.lo[k], a.hi[k]);
      s.interval(edge, b.lo[k], b.hi[k]);
    }
    const Real bound = bound_r2(a, b, edge);
    ASSERT_GE(bound, Real(0));
    // Cutoffs at the bound and a few ulps either side of it: the bound
    // itself is the tightest cutoff that still culls.
    for (int nudge = -3; nudge <= 3; ++nudge) {
      const Real cutoff_sq = ulps_from(bound, nudge);
      if (!culls(bound, cutoff_sq)) continue;
      ++culled_pairs;
      for (int p = 0; p < 16; ++p) {
        Point3<Real> pi, pj;
        for (int k = 0; k < 3; ++k) {
          pi.c[k] = s.inside(a.lo[k], a.hi[k]);
          pj.c[k] = s.inside(b.lo[k], b.hi[k]);
        }
        const Real r2 = lane_r2(pi, pj, edge);
        ASSERT_GE(r2, cutoff_sq)
            << "culled pair with an in-range lane: trial " << trial
            << " nudge " << nudge << " edge " << edge << " r2 " << r2
            << " bound " << bound;
      }
    }
  }
  EXPECT_GT(culled_pairs, 4000);
}

TEST(SoaBlockCullBound, NeverExceedsLaneR2OnRandomBoxesDouble) {
  check_random_boxes<double>(20070326);
}

TEST(SoaBlockCullBound, NeverExceedsLaneR2OnRandomBoxesFloat) {
  check_random_boxes<float>(8675309);
}

template <typename Real>
void check_point_boxes_are_exact(std::uint64_t seed) {
  // For point boxes the bound replays the lane arithmetic operation for
  // operation: it IS the lane r2, so a cutoff one ulp above culls nothing
  // and the cutoff at r2 culls exactly the pairs the lanes reject.
  Sampler<Real> s(seed);
  for (int trial = 0; trial < 20000; ++trial) {
    const Real edge = s.uniform(Real(1), Real(40));
    Box3<Real> a, b;
    Point3<Real> pi, pj;
    for (int k = 0; k < 3; ++k) {
      a.lo[k] = a.hi[k] = pi.c[k] = s.uniform(Real(0), edge);
      b.lo[k] = b.hi[k] = pj.c[k] = s.uniform(Real(0), edge);
    }
    const Real r2 = lane_r2(pi, pj, edge);
    ASSERT_EQ(bound_r2(a, b, edge), r2) << "trial " << trial;
    EXPECT_FALSE(culls(bound_r2(a, b, edge), ulps_from(r2, 1)));
  }
}

TEST(SoaBlockCullBound, PointBoxesReproduceTheLaneR2Exactly) {
  check_point_boxes_are_exact<double>(1);
  check_point_boxes_are_exact<float>(2);
}

template <typename Real>
void check_half_edge() {
  // |d| exactly edge/2: the lanes reflect (>=), giving |dx| = edge/2 either
  // way; the bound must land on it, and stay below it when the half-edge
  // point sits inside a wider interval.
  for (const Real edge : {Real(4), Real(10.5), Real(33.25)}) {
    const Real half = edge / Real(2);
    const Point3<Real> i{{half, Real(0), Real(0)}};
    const Point3<Real> j{{Real(0), Real(0), Real(0)}};
    const Real r2 = lane_r2(i, j, edge);
    EXPECT_EQ(r2, half * half);
    const Box3<Real> a{{half, Real(0), Real(0)}, {half, Real(0), Real(0)}};
    const Box3<Real> b{{Real(0), Real(0), Real(0)},
                       {Real(0), Real(0), Real(0)}};
    EXPECT_EQ(bound_r2(a, b, edge), r2);
    // Around the half edge: [half - 1, half + 1] against 0 still has every
    // |d| within 1 of half, so the bound is (half - 1)^2.
    const Box3<Real> wide{{half - Real(1), Real(0), Real(0)},
                          {half + Real(1), Real(0), Real(0)}};
    EXPECT_EQ(bound_r2(wide, b, edge), (half - Real(1)) * (half - Real(1)));
    for (const Real x : {half - Real(1), half, half + Real(1),
                         std::nextafter(half, edge),
                         std::nextafter(half, Real(0))}) {
      EXPECT_LE(bound_r2(wide, b, edge),
                lane_r2({{x, Real(0), Real(0)}}, j, edge));
    }
  }
}

TEST(SoaBlockCullBound, HalfEdgeSeparationIsBoundedExactly) {
  check_half_edge<double>();
  check_half_edge<float>();
}

template <typename Real>
void check_periodic_boundary() {
  // Blocks at opposite faces are neighbours through the boundary: the
  // bound must be the short, wrapped gap, never the long direct one.
  const Real edge = Real(20);
  const Box3<Real> low{{Real(0), Real(5), Real(5)},
                       {Real(0.25), Real(6), Real(6)}};
  const Box3<Real> high{{Real(19.5), Real(5), Real(5)},
                        {edge, Real(6), Real(6)}};
  // x = 0 and x = edge are the same plane: the boxes touch through the
  // boundary, so the bound is 0 however far apart they are directly.
  const Real bound = bound_r2(low, high, edge);
  EXPECT_EQ(bound, Real(0));
  EXPECT_FALSE(culls(bound, Real(2.5) * Real(2.5)));
  const Real touching = lane_r2<Real>({{Real(0), Real(5), Real(5)}},
                                      {{edge, Real(5), Real(5)}}, edge);
  EXPECT_EQ(touching, Real(0));
  EXPECT_LE(bound, touching);
  // Moved so the gap through the boundary is exactly 2.5 on x
  // (20 - 17.5 + 0), the pair culls at a 2.5 cutoff, not one ulp above it,
  // and every lane agrees.
  const Box3<Real> far{{Real(17), Real(5), Real(5)},
                       {Real(17.5), Real(6), Real(6)}};
  const Real far_bound = bound_r2(low, far, edge);
  EXPECT_EQ(far_bound, Real(2.5) * Real(2.5));
  EXPECT_TRUE(culls(far_bound, Real(2.5) * Real(2.5)));
  EXPECT_FALSE(culls(far_bound, ulps_from(Real(2.5) * Real(2.5), 1)));
  for (const Real xi : {Real(0), Real(0.25)}) {
    for (const Real xj : {Real(17), Real(17.5)}) {
      EXPECT_GE(lane_r2<Real>({{xi, Real(5), Real(6)}},
                              {{xj, Real(6), Real(5)}}, edge),
                Real(2.5) * Real(2.5));
    }
  }
}

TEST(SoaBlockCullBound, PairsAcrossThePeriodicBoundary) {
  check_periodic_boundary<double>();
  check_periodic_boundary<float>();
}

TEST(SoaBlockCullBound, UnboundedAxisContributesNothing) {
  // The kernel gives an axis it cannot vouch for (a NaN, or a coordinate
  // outside [0, edge]) the whole line; that axis then adds 0 and the other
  // two still bound.
  const double inf = std::numeric_limits<double>::infinity();
  const Box3<double> a{{-inf, 0.0, 0.0}, {inf, 0.0, 0.0}};
  const Box3<double> b{{3.0, 4.0, 0.0}, {3.0, 4.0, 0.0}};
  EXPECT_EQ(bound_r2(a, b, 20.0), 16.0);
  EXPECT_EQ(bound_r2(b, a, 20.0), 16.0);
  const Box3<double> all{{-inf, -inf, -inf}, {inf, inf, inf}};
  EXPECT_EQ(bound_r2(all, all, 20.0), 0.0);
}

// ---------------------------------------------------------------------------
// The kernel where culling fires.

struct Melt {
  std::vector<Vec3d> positions;
  double edge = 0.0;
};

/// A 4,096-atom lattice a few steps into its melt.  The list kernel moves
/// it, so the positions do not depend on the kernel under test.  They are
/// then snapped to a 2^-14 grid (a power-of-two scaling, one rounding and
/// the inverse scaling, all exact but the rounding): the melt's last bits
/// depend on whether a build contracts the integrator into FMAs
/// (-march=native), the snapped coordinates do not, and they stay exact
/// when narrowed to float.
const Melt& melted_lattice() {
  static const Melt melt = [] {
    Simulation::Options options;
    options.workload.n_atoms = 4096;
    options.kernel = SimKernel::kNeighborList;
    Simulation sim(options);
    sim.run(5);
    std::vector<Vec3d> positions = sim.system().positions();
    const auto snap = [](double x) {
      return std::round(x * 16384.0) / 16384.0;
    };
    for (Vec3d& p : positions) p = Vec3d{snap(p.x), snap(p.y), snap(p.z)};
    return Melt{positions, sim.box().edge()};
  }();
  return melt;
}

/// FNV-1a over the bits of every force component, the PE, the virial and
/// both PairStats counters, each value narrowed back to the kernel's Acc
/// (exact, and checked so: the kernel widened it from Acc).
template <typename Acc>
std::uint64_t fingerprint(const ForceResult& r) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](const void* p, std::size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(p);
    for (std::size_t k = 0; k < n; ++k) {
      h ^= bytes[k];
      h *= 1099511628211ull;
    }
  };
  const auto mix_acc = [&mix](double v) {
    const Acc narrowed = static_cast<Acc>(v);
    EXPECT_EQ(static_cast<double>(narrowed), v);
    mix(&narrowed, sizeof narrowed);
  };
  for (const auto& a : r.accelerations) {
    mix_acc(a.x);
    mix_acc(a.y);
    mix_acc(a.z);
  }
  mix_acc(r.potential_energy);
  mix_acc(r.virial);
  mix(&r.stats.candidates, sizeof(r.stats.candidates));
  mix(&r.stats.interacting, sizeof(r.stats.interacting));
  return h;
}

// The full, unculled sweep's results on melted_lattice(), hashed as above:
// pinned from the N^2 kernel as it was before the block cull existed (the
// same on every ISA and thread count there too).
constexpr std::uint64_t kUnculledDp = 0x3e301ce15dde4578ull;
constexpr std::uint64_t kUnculledSp = 0x2abb5d1b97ab45e7ull;
constexpr std::uint64_t kUnculledMixed = 0xd0a96db9f34ddb37ull;

template <typename Real, typename Acc>
void check_culled_sweep(std::uint64_t unculled, double max_live_frac) {
  const Melt& melt = melted_lattice();
  const PeriodicBox box(melt.edge);
  const LjParams lj;

  ThreadPool pool1(1), pool2(2), pool4(4);
  struct Config {
    ThreadPool* pool;
    std::size_t grain;
  };
  // Grain 5 splits i-blocks across chunks: each piece culls on its own.
  const Config configs[] = {{nullptr, 16}, {&pool1, 16}, {&pool2, 16},
                            {&pool4, 16}, {&pool4, 5}};
  std::optional<std::uint64_t> live;  // the cull's decisions are ISA-free too
  for (const simd::SimdType isa : simd_kernels::available_isas()) {
    for (const Config& c : configs) {
      typename SoaKernelT<Real, Acc>::Options options;
      options.isa = isa;
      options.pool = c.pool;
      options.grain = c.grain;
      SoaKernelT<Real, Acc> kernel(options);
      const ForceResult r = kernel.compute(melt.positions, box, lj, 1.0);
      const std::string where =
          std::string(simd::to_string(isa)) + " threads " +
          std::to_string(c.pool ? c.pool->size() : 0) + " grain " +
          std::to_string(c.grain);
      EXPECT_EQ(fingerprint<Acc>(r), unculled) << where;
      EXPECT_EQ(r.stats.candidates, 4096ull * 4095ull / 2) << where;
      const std::uint64_t blocks =
          (4096 + simd::block_lanes<Real>() - 1) / simd::block_lanes<Real>();
      EXPECT_EQ(kernel.block_pairs(), blocks * blocks) << where;
      EXPECT_LT(static_cast<double>(kernel.live_block_pairs()),
                max_live_frac * static_cast<double>(kernel.block_pairs()))
          << where;
      EXPECT_GE(kernel.live_block_pairs(), blocks) << where;  // self blocks
      if (!live) live = kernel.live_block_pairs();
      EXPECT_EQ(kernel.live_block_pairs(), *live) << where;
    }
  }
}

TEST(SoaBlockCull, MeltedLatticeBitwiseAcrossIsasAndThreadsDp) {
  check_culled_sweep<double, double>(kUnculledDp, 0.2);
}

TEST(SoaBlockCull, MeltedLatticeBitwiseAcrossIsasAndThreadsSp) {
  check_culled_sweep<float, float>(kUnculledSp, 0.2);
}

TEST(SoaBlockCull, MeltedLatticeBitwiseAcrossIsasAndThreadsMixed) {
  check_culled_sweep<float, double>(kUnculledMixed, 0.2);
}

// ---------------------------------------------------------------------------
// Observability.

TEST(SoaBlockCull, SimulationReportsLiveBlocksForN2Only) {
  Simulation::Options options;
  options.workload.n_atoms = 1000;
  options.kernel = SimKernel::kSoaN2;
  Simulation n2(options);
  EXPECT_EQ(n2.n2_block_pairs(), 125u * 125u);  // 1000 atoms / 8 per block
  EXPECT_GT(n2.n2_live_block_pairs(), 0u);
  EXPECT_LT(n2.n2_live_block_pairs(), n2.n2_block_pairs());

  options.kernel = SimKernel::kNeighborList;
  Simulation list(options);
  EXPECT_EQ(list.n2_block_pairs(), 0u);
  EXPECT_EQ(list.n2_live_block_pairs(), 0u);
}

TEST(SoaBlockCull, BackendReportsLiveBlockFractionForN2Only) {
  RunConfig cfg;
  cfg.workload.n_atoms = 8000;
  cfg.steps = 1;
  cfg.host_kernel = HostKernel::kN2;
  const RunResult n2 = HostParallelBackend().run(cfg);
  ASSERT_EQ(n2.metadata.count("n2_live_block_frac"), 1u);
  EXPECT_GT(n2.metadata.at("n2_live_block_frac"), 0.0);
  EXPECT_LT(n2.metadata.at("n2_live_block_frac"), 1.0);

  cfg.host_kernel = HostKernel::kList;
  const RunResult list = HostParallelBackend().run(cfg);
  EXPECT_EQ(list.metadata.count("n2_live_block_frac"), 0u);
}

}  // namespace
}  // namespace emdpa::md
