// Cross-backend integration: every device model must compute the same
// physics as the double-precision host reference, differing only by its
// arithmetic precision, while reporting device-specific timing.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "cellsim/cell_md_app.h"
#include "core/thread_pool.h"
#include "cpu/opteron_backend.h"
#include "gpusim/gpu_backend.h"
#include "md/backend.h"
#include "md/reference_kernel.h"
#include "md/soa_kernel.h"
#include "md/workload.h"
#include "mtasim/mta_backend.h"

namespace emdpa {
namespace {

std::vector<std::unique_ptr<md::MdBackend>> all_backends() {
  std::vector<std::unique_ptr<md::MdBackend>> backends;
  backends.push_back(std::make_unique<md::HostReferenceBackend>());
  backends.push_back(std::make_unique<opteron::OpteronBackend>());
  backends.push_back(std::make_unique<cell::CellBackend>());
  backends.push_back(std::make_unique<gpu::GpuBackend>());
  backends.push_back(std::make_unique<mta::MtaBackend>());
  return backends;
}

md::RunConfig config_for(std::size_t n, int steps) {
  md::RunConfig cfg;
  cfg.workload.n_atoms = n;
  cfg.steps = steps;
  return cfg;
}

TEST(CrossBackend, AllBackendsAgreeOnEnergies) {
  const auto cfg = config_for(128, 4);
  const auto reference = md::HostReferenceBackend().run(cfg);

  for (const auto& backend : all_backends()) {
    const auto r = backend->run(cfg);
    ASSERT_EQ(r.energies.size(), reference.energies.size()) << backend->name();
    // Single-precision devices get a looser envelope.
    const double tol = backend->precision() == "single" ? 2e-3 : 1e-9;
    for (std::size_t s = 0; s < r.energies.size(); ++s) {
      const double scale = std::fabs(reference.energies[s].potential) + 1.0;
      EXPECT_NEAR(r.energies[s].potential, reference.energies[s].potential,
                  tol * scale)
          << backend->name() << " step " << s;
    }
  }
}

TEST(CrossBackend, AllBackendsAgreeOnTrajectories) {
  const auto cfg = config_for(128, 4);
  const auto reference = md::HostReferenceBackend().run(cfg);

  for (const auto& backend : all_backends()) {
    const auto r = backend->run(cfg);
    ASSERT_EQ(r.final_state.size(), reference.final_state.size());
    const double tol = backend->precision() == "single" ? 5e-3 : 1e-9;
    for (std::size_t i = 0; i < r.final_state.size(); ++i) {
      const Vec3d d = r.final_state.positions()[i] -
                      reference.final_state.positions()[i];
      EXPECT_LT(length(d), tol) << backend->name() << " atom " << i;
    }
  }
}

TEST(CrossBackend, SinglePrecisionDevicesAgreeBitwise) {
  // Cell and GPU implement identical single-precision arithmetic.
  const auto cfg = config_for(128, 4);
  const auto cell = cell::CellBackend().run(cfg);
  const auto gpu = gpu::GpuBackend().run(cfg);
  for (std::size_t i = 0; i < cell.final_state.size(); ++i) {
    EXPECT_EQ(cell.final_state.positions()[i], gpu.final_state.positions()[i])
        << "atom " << i;
  }
  for (std::size_t s = 0; s < cell.energies.size(); ++s) {
    EXPECT_DOUBLE_EQ(cell.energies[s].kinetic, gpu.energies[s].kinetic);
  }
}

TEST(CrossBackend, DoublePrecisionDevicesAgreeBitwise) {
  const auto cfg = config_for(128, 4);
  const auto opteron = opteron::OpteronBackend().run(cfg);
  const auto mta = mta::MtaBackend().run(cfg);
  for (std::size_t i = 0; i < opteron.final_state.size(); ++i) {
    EXPECT_EQ(opteron.final_state.positions()[i],
              mta.final_state.positions()[i]);
  }
}

TEST(CrossBackend, PrecisionsDeclaredCorrectly) {
  EXPECT_EQ(opteron::OpteronBackend().precision(), "double");
  EXPECT_EQ(mta::MtaBackend().precision(), "double");
  EXPECT_EQ(cell::CellBackend().precision(), "single");
  EXPECT_EQ(gpu::GpuBackend().precision(), "single");
}

TEST(CrossBackend, DeviceTimesAreDeviceSpecific) {
  const auto cfg = config_for(256, 2);
  const auto opteron = opteron::OpteronBackend().run(cfg).device_time;
  const auto cell8 = cell::CellBackend().run(cfg).device_time;
  const auto gpu = gpu::GpuBackend().run(cfg).device_time;
  const auto mta = mta::MtaBackend().run(cfg).device_time;
  // At 256 atoms: every model produces nonzero, distinct times, and the MTA
  // (200 MHz, saturated) is the slowest device.
  EXPECT_GT(opteron.to_seconds(), 0.0);
  EXPECT_GT(cell8.to_seconds(), 0.0);
  EXPECT_GT(gpu.to_seconds(), 0.0);
  EXPECT_GT(mta.to_seconds(), opteron.to_seconds());
}

TEST(CrossBackend, SoaKernelMatchesReferenceForEveryStrategy) {
  // The SIMD batch kernel must reproduce the scalar reference under all four
  // minimum-image strategies — they are the same physics on wrapped
  // coordinates, which is exactly what the one SoA kernel computes.
  md::WorkloadSpec spec;
  spec.n_atoms = 200;
  md::Workload w = md::make_lattice_workload(spec);
  const md::LjParams lj;

  for (const auto strategy :
       {md::MinImageStrategy::kSearch27, md::MinImageStrategy::kBranchy,
        md::MinImageStrategy::kCopysign, md::MinImageStrategy::kRound}) {
    md::ReferenceKernel reference(strategy);
    md::SoaKernel soa;
    const auto want = reference.compute(w.system.positions(), w.box, lj, 1.0);
    const auto got = soa.compute(w.system.positions(), w.box, lj, 1.0);

    const double scale = std::fabs(want.potential_energy) + 1.0;
    EXPECT_NEAR(got.potential_energy, want.potential_energy, 1e-10 * scale)
        << md::to_string(strategy);
    EXPECT_NEAR(got.virial, want.virial, 1e-10 * scale)
        << md::to_string(strategy);
    EXPECT_EQ(got.stats.candidates, want.stats.candidates);
    EXPECT_EQ(got.stats.interacting, want.stats.interacting);
    ASSERT_EQ(got.accelerations.size(), want.accelerations.size());
    for (std::size_t i = 0; i < want.accelerations.size(); ++i) {
      const double fscale = length(want.accelerations[i]) + 1.0;
      EXPECT_LT(length(got.accelerations[i] - want.accelerations[i]),
                1e-10 * fscale)
          << md::to_string(strategy) << " atom " << i;
    }
  }
}

TEST(CrossBackend, SoaKernelSinglePrecisionMatchesReference) {
  md::WorkloadSpec spec;
  spec.n_atoms = 200;
  md::Workload w = md::make_lattice_workload(spec);
  std::vector<Vec3f> pos;
  for (const auto& p : w.system.positions()) pos.push_back(vec_cast<float>(p));
  const md::PeriodicBoxF box(static_cast<float>(w.box.edge()));
  const auto lj = md::LjParams{}.cast<float>();

  md::ReferenceKernelF reference;
  md::SoaKernelF soa;
  const auto want = reference.compute(pos, box, lj, 1.0f);
  // The sp kernel takes the doubles `pos`, `box` and `lj` were narrowed from.
  const auto got = soa.compute(w.system.positions(), w.box, md::LjParams{}, 1.0);

  const float scale = std::fabs(want.potential_energy) + 1.0f;
  EXPECT_NEAR(got.potential_energy, want.potential_energy, 1e-4f * scale);
  EXPECT_EQ(got.stats.interacting, want.stats.interacting);
}

TEST(CrossBackend, SoaKernelParallelIsBitIdenticalToSerial) {
  // Chunk boundaries are thread-count independent and the row reduction is
  // ordered, so a pooled run must match the serial run bitwise.
  md::WorkloadSpec spec;
  spec.n_atoms = 171;  // deliberately not a multiple of any SIMD width
  md::Workload w = md::make_lattice_workload(spec);
  const md::LjParams lj;

  ThreadPool pool(4);
  md::SoaKernel::Options options;
  options.pool = &pool;
  options.grain = 8;
  md::SoaKernel parallel(options);
  md::SoaKernel serial;

  const auto want = serial.compute(w.system.positions(), w.box, lj, 1.0);
  const auto got = parallel.compute(w.system.positions(), w.box, lj, 1.0);
  EXPECT_EQ(got.potential_energy, want.potential_energy);
  EXPECT_EQ(got.virial, want.virial);
  for (std::size_t i = 0; i < want.accelerations.size(); ++i) {
    EXPECT_EQ(got.accelerations[i], want.accelerations[i]) << "atom " << i;
  }
}

TEST(CrossBackend, HostParallelBackendMatchesHostReference) {
  const auto cfg = config_for(128, 4);
  const auto reference = md::HostReferenceBackend().run(cfg);
  const auto parallel = md::HostParallelBackend().run(cfg);

  ASSERT_EQ(parallel.energies.size(), reference.energies.size());
  for (std::size_t s = 0; s < parallel.energies.size(); ++s) {
    const double scale = std::fabs(reference.energies[s].potential) + 1.0;
    EXPECT_NEAR(parallel.energies[s].potential,
                reference.energies[s].potential, 1e-10 * scale)
        << "step " << s;
    EXPECT_NEAR(parallel.energies[s].kinetic, reference.energies[s].kinetic,
                1e-10 * scale)
        << "step " << s;
  }
  // The backend reports its real execution configuration through the
  // dimensionless metadata channel, not the timing breakdown.
  EXPECT_GE(parallel.metadata.at("threads"), 1.0);
  EXPECT_GE(parallel.metadata.at("simd_width"), 1.0);
  EXPECT_EQ(parallel.metadata.at("kernel_list"), 0.0);  // 128 < crossover
  EXPECT_EQ(parallel.breakdown.count("threads"), 0u);
  EXPECT_GT(parallel.breakdown.at("host_wall").to_seconds(), 0.0);
}

TEST(CrossBackend, HostParallelListKernelMatchesHostReference) {
  auto cfg = config_for(128, 4);
  cfg.host_kernel = md::HostKernel::kList;
  const auto reference = md::HostReferenceBackend().run(cfg);
  const auto parallel = md::HostParallelBackend().run(cfg);

  ASSERT_EQ(parallel.energies.size(), reference.energies.size());
  for (std::size_t s = 0; s < parallel.energies.size(); ++s) {
    const double scale = std::fabs(reference.energies[s].potential) + 1.0;
    EXPECT_NEAR(parallel.energies[s].potential,
                reference.energies[s].potential, 1e-10 * scale)
        << "step " << s;
  }
  EXPECT_EQ(parallel.metadata.at("kernel_list"), 1.0);
  EXPECT_GE(parallel.metadata.at("list_rebuilds"), 1.0);
}

TEST(CrossBackend, HostParallelAutoSelectsListAboveCrossover) {
  auto cfg = config_for(md::HostParallelBackend::kListCrossoverAtoms, 1);
  const auto r = md::HostParallelBackend().run(cfg);
  EXPECT_EQ(r.metadata.at("kernel_list"), 1.0);

  auto small = config_for(128, 1);
  small.host_kernel = md::HostKernel::kN2;
  const auto s = md::HostParallelBackend().run(small);
  EXPECT_EQ(s.metadata.at("kernel_list"), 0.0);
  EXPECT_EQ(s.metadata.count("list_rebuilds"), 0u);
}

class CrossBackendSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, int>> {};

TEST_P(CrossBackendSweep, EnergiesTrackReferenceAcrossConfigs) {
  const auto [n, steps] = GetParam();
  const auto cfg = config_for(n, steps);
  const auto reference = md::HostReferenceBackend().run(cfg);
  const auto cell = cell::CellBackend().run(cfg);
  const auto mta = mta::MtaBackend().run(cfg);
  const double scale = std::fabs(reference.energies.back().potential) + 1.0;
  EXPECT_NEAR(cell.energies.back().potential,
              reference.energies.back().potential, 2e-3 * scale);
  EXPECT_DOUBLE_EQ(mta.energies.back().potential,
                   reference.energies.back().potential);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, CrossBackendSweep,
    ::testing::Combine(::testing::Values(std::size_t{125}, std::size_t{200},
                                         std::size_t{256}),
                       ::testing::Values(1, 5)));

}  // namespace
}  // namespace emdpa
