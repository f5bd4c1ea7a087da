// Trajectory-level guarantees of the runtime SIMD dispatch and the
// precision seam:
//
//  * dp trajectories are BITWISE identical across every dispatched ISA —
//    the fixed 64-byte accumulation block (md/kernel_rows.h) makes
//    scalar/SSE2/AVX2/AVX-512 interchangeable at runtime, and this test is
//    the end-to-end proof on the canonical argon melt;
//  * sp and mixed runs start from the same golden energy (to float
//    rounding), conserve energy inside the committed dp envelope, and are
//    themselves exactly reproducible;
//  * sp/mixed force error on a real (step-100) melt configuration is
//    bounded — the same chaos-free harness the skin-policy suite uses,
//    with the measured single-precision drift bound asserted.
#include <gtest/gtest.h>

#include <cmath>

#include "md/reference_kernel.h"
#include "md/simd_kernels.h"
#include "md/parallel_neighbor.h"
#include "md/workload.h"
#include "trajectory_fixture.h"

namespace emdpa::md::testing {
namespace {

// Committed reference values from trajectory_golden_test.cpp (256 atoms).
constexpr double kGolden256E0 = 499.16696695200750;
constexpr double kGolden256Envelope = 0.052;

void expect_bitwise_identical(const Trajectory& a, const Trajectory& b,
                              const std::string& what) {
  ASSERT_EQ(a.energies.size(), b.energies.size()) << what;
  for (std::size_t s = 0; s < a.energies.size(); ++s) {
    EXPECT_EQ(a.energies[s].kinetic, b.energies[s].kinetic)
        << what << " step " << s;
    EXPECT_EQ(a.energies[s].potential, b.energies[s].potential)
        << what << " step " << s;
  }
  ASSERT_EQ(a.positions.size(), b.positions.size()) << what;
  for (std::size_t i = 0; i < a.positions.size(); ++i) {
    EXPECT_EQ(a.positions[i].x, b.positions[i].x) << what << " atom " << i;
    EXPECT_EQ(a.positions[i].y, b.positions[i].y) << what << " atom " << i;
    EXPECT_EQ(a.positions[i].z, b.positions[i].z) << what << " atom " << i;
  }
}

// The tentpole acceptance test: one binary, every compiled+supported ISA
// forced in turn, bitwise-identical dp melts — for both SIMD kernel paths.
TEST(CrossIsaTrajectory, DpMeltIsBitwiseIdenticalAcrossDispatchedIsas) {
  for (const SimKernel kernel :
       {SimKernel::kSoaN2, SimKernel::kNeighborList}) {
    MeltSpec spec;
    spec.n_atoms = 256;
    spec.steps = 60;
    spec.kernel = kernel;
    const auto available = simd_kernels::available_isas();
    ASSERT_FALSE(available.empty());
    spec.isa = available.front();
    const Trajectory reference = run_melt(spec);
    for (const simd::SimdType isa : available) {
      spec.isa = isa;
      const Trajectory t = run_melt(spec);
      expect_bitwise_identical(reference, t,
                               std::string(to_string(kernel)) + "/" +
                                   simd::to_string(isa));
    }
  }
}

class PrecisionTrajectory : public ::testing::TestWithParam<PrecisionMode> {};

TEST_P(PrecisionTrajectory, StartsOnTheGoldenEnergyToFloatRounding) {
  for (const SimKernel kernel :
       {SimKernel::kSoaN2, SimKernel::kNeighborList}) {
    MeltSpec spec;
    spec.n_atoms = 256;
    spec.steps = 1;
    spec.kernel = kernel;
    spec.precision = GetParam();
    const Trajectory t = run_melt(spec);
    // Float lane math rounds the initial PE at ~1e-7 relative; 1e-5 leaves
    // headroom without admitting a physics bug.
    EXPECT_LT(std::abs(t.energies.front().total() - kGolden256E0) /
                  std::abs(kGolden256E0),
              1e-5)
        << to_string(kernel);
  }
}

TEST_P(PrecisionTrajectory, ConservesEnergyInsideTheDpEnvelope) {
  // Energy conservation is the chaos-proof long-horizon observable: the dp
  // melt's committed drift envelope (dominated by the melt transient, not
  // by arithmetic precision) must hold for sp and mixed too.
  for (const SimKernel kernel :
       {SimKernel::kSoaN2, SimKernel::kNeighborList}) {
    MeltSpec spec;
    spec.n_atoms = 256;
    spec.steps = 200;
    spec.kernel = kernel;
    spec.precision = GetParam();
    const Trajectory t = run_melt(spec);
    const double e0 = t.energies.front().total();
    for (const StepEnergies& e : t.energies) {
      EXPECT_LT(std::abs(e.total() - e0) / std::abs(e0),
                2.0 * kGolden256Envelope)
          << to_string(kernel);
    }
  }
}

TEST_P(PrecisionTrajectory, RerunIsBitwiseIdentical) {
  // Lower precision must not mean lower determinism: the same sp/mixed run
  // twice is exactly the same trajectory.
  MeltSpec spec;
  spec.n_atoms = 256;
  spec.steps = 60;
  spec.kernel = SimKernel::kNeighborList;
  spec.precision = GetParam();
  const Trajectory a = run_melt(spec);
  const Trajectory b = run_melt(spec);
  expect_bitwise_identical(a, b, to_string(spec.precision));
}

TEST_P(PrecisionTrajectory, ThreadCountDoesNotChangeTheTrajectory) {
  // The fixed-chunk accumulation contract holds in float exactly as in
  // double: serial and pooled sp/mixed melts are the same bits.
  for (const SimKernel kernel :
       {SimKernel::kSoaN2, SimKernel::kNeighborList}) {
    MeltSpec spec;
    spec.n_atoms = 256;
    spec.steps = 60;
    spec.kernel = kernel;
    spec.precision = GetParam();
    const Trajectory serial = run_melt(spec);
    ThreadPool pool(3);
    spec.pool = &pool;
    const Trajectory pooled = run_melt(spec);
    expect_bitwise_identical(serial, pooled,
                             std::string(to_string(kernel)) + "/" +
                                 to_string(GetParam()) + " threads");
  }
}

TEST_P(PrecisionTrajectory, BitwiseIdenticalAcrossDispatchedIsas) {
  // The dp cross-ISA guarantee extends to the float kernels: the fp32
  // accumulation block is the same fixed 64-byte tile under every ISA.
  for (const SimKernel kernel :
       {SimKernel::kSoaN2, SimKernel::kNeighborList}) {
    MeltSpec spec;
    spec.n_atoms = 256;
    spec.steps = 60;
    spec.kernel = kernel;
    spec.precision = GetParam();
    const auto available = simd_kernels::available_isas();
    ASSERT_FALSE(available.empty());
    spec.isa = available.front();
    const Trajectory reference = run_melt(spec);
    for (const simd::SimdType isa : available) {
      spec.isa = isa;
      const Trajectory t = run_melt(spec);
      expect_bitwise_identical(reference, t,
                               std::string(to_string(kernel)) + "/" +
                                   to_string(GetParam()) + "/" +
                                   simd::to_string(isa));
    }
  }
}

// Committed golden final energies for the sp and mixed melts (256 atoms,
// 60 steps, dt 0.005, seed 20070326) — exact values, valid on every ISA and
// thread count because of the two invariance tests above.  A change here is
// a deliberate arithmetic change to the precision seam, never noise.
struct PrecisionGolden {
  double neighbor_list_final_e;
  double soa_n2_final_e;
};

PrecisionGolden golden_for(PrecisionMode precision) {
  if (precision == PrecisionMode::kSingle) {
    return {524.30243047806675, 524.30212923647127};
  }
  return {524.30143251058371, 524.30176219487134};
}

TEST_P(PrecisionTrajectory, FinalEnergyMatchesTheCommittedGolden) {
  const PrecisionGolden golden = golden_for(GetParam());
  for (const SimKernel kernel :
       {SimKernel::kNeighborList, SimKernel::kSoaN2}) {
    MeltSpec spec;
    spec.n_atoms = 256;
    spec.steps = 60;
    spec.kernel = kernel;
    spec.precision = GetParam();
    const Trajectory t = run_melt(spec);
    const double expected = kernel == SimKernel::kNeighborList
                                ? golden.neighbor_list_final_e
                                : golden.soa_n2_final_e;
    EXPECT_EQ(t.energies.back().total(), expected) << to_string(kernel);
  }
}

INSTANTIATE_TEST_SUITE_P(SpAndMixed, PrecisionTrajectory,
                         ::testing::Values(PrecisionMode::kSingle,
                                           PrecisionMode::kMixed),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

// The skin-policy force-error harness, turned on the precision seam: walk
// 100 correct dp steps, then evaluate the sp/mixed kernels on that moved
// configuration against the double N^2 truth.  Both see the SAME positions,
// so chaos plays no role — what remains is exactly the single-precision
// arithmetic error, and it must stay inside the measured bound.
TEST(PrecisionTrajectory, ForceErrorOnMovedConfigurationStaysInMeasuredBound) {
  const LjParams lj;
  MeltSpec spec;
  spec.n_atoms = 256;
  spec.steps = 100;
  spec.kernel = SimKernel::kReference;
  const Trajectory moved = run_melt(spec);

  WorkloadSpec wspec;
  wspec.n_atoms = 256;
  Workload w = make_lattice_workload(wspec);
  ReferenceKernel reference;
  const double true_pe =
      reference.compute(moved.positions, w.box, lj, 1.0).potential_energy;

  NeighborListKernelF sp;
  const double sp_pe =
      sp.compute(moved.positions, w.box, lj, 1.0).potential_energy;
  NeighborListKernelMixed mixed;
  const double mixed_pe =
      mixed.compute(moved.positions, w.box, lj, 1.0).potential_energy;

  // Measured: ~1e-7..1e-6 relative PE error for float lanes on this
  // configuration; 1e-5 is the asserted drift bound (and would catch any
  // use of a stale or mis-traversed list outright, like the skin-policy
  // test's 1e-3 discriminator does).
  EXPECT_LT(std::abs(sp_pe - true_pe) / std::abs(true_pe), 1e-5);
  EXPECT_LT(std::abs(mixed_pe - true_pe) / std::abs(true_pe), 1e-5);
}

}  // namespace
}  // namespace emdpa::md::testing
