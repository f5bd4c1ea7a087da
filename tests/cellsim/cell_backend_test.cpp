#include <gtest/gtest.h>

#include <cmath>

#include "cellsim/cell_md_app.h"
#include "core/error.h"
#include "core/vec4.h"
#include "md/backend.h"

namespace emdpa::cell {
namespace {

md::RunConfig small_config(std::size_t n = 128, int steps = 3) {
  md::RunConfig cfg;
  cfg.workload.n_atoms = n;
  cfg.steps = steps;
  return cfg;
}

TEST(CellBackend, Names) {
  CellRunOptions ppe;
  ppe.n_spes = 0;
  EXPECT_EQ(CellBackend(ppe).name(), "cell-ppe-only");

  CellRunOptions eight;
  eight.n_spes = 8;
  EXPECT_EQ(CellBackend(eight).name(), "cell-8spe[persistent-mailbox]");

  CellRunOptions respawn;
  respawn.n_spes = 1;
  respawn.launch_mode = LaunchMode::kRespawnEveryStep;
  EXPECT_EQ(CellBackend(respawn).name(), "cell-1spe[respawn-every-step]");
}

TEST(CellBackend, SinglePrecision) {
  EXPECT_EQ(CellBackend().precision(), "single");
}

TEST(CellBackend, RejectsTooManySpes) {
  CellRunOptions opt;
  opt.n_spes = 9;
  CellBackend backend(opt);
  EXPECT_THROW(backend.run(small_config()), ContractViolation);
}

TEST(CellBackend, RejectsShiftedPotential) {
  auto cfg = small_config();
  cfg.lj.shifted = true;
  CellBackend backend;
  EXPECT_THROW(backend.run(cfg), ContractViolation);
}

TEST(CellBackend, EnergiesAndStepTimesShapedCorrectly) {
  CellBackend backend;
  const auto r = backend.run(small_config(128, 4));
  EXPECT_EQ(r.energies.size(), 5u);  // prime + 4 steps
  EXPECT_EQ(r.step_times.size(), 4u);
  EXPECT_GT(r.device_time.to_seconds(), 0.0);
}

TEST(CellBackend, PhysicsTracksHostReference) {
  CellBackend backend;
  md::HostReferenceBackend host;
  const auto cfg = small_config(128, 4);
  const auto a = backend.run(cfg);
  const auto b = host.run(cfg);
  for (std::size_t s = 0; s < a.energies.size(); ++s) {
    const double scale = std::fabs(b.energies[s].potential) + 1.0;
    EXPECT_NEAR(a.energies[s].potential, b.energies[s].potential, 1e-3 * scale);
    EXPECT_NEAR(a.energies[s].kinetic, b.energies[s].kinetic,
                1e-3 * (b.energies[s].kinetic + 1.0));
  }
}

TEST(CellBackend, SpeCountsAgreeWithPpeOnlyPhysics) {
  // The SPE kernels and the PPE kernel implement identical arithmetic.
  const auto cfg = small_config(64, 3);
  CellRunOptions one;
  one.n_spes = 1;
  CellRunOptions ppe;
  ppe.n_spes = 0;
  const auto a = CellBackend(one).run(cfg);
  const auto b = CellBackend(ppe).run(cfg);
  for (std::size_t s = 0; s < a.energies.size(); ++s) {
    EXPECT_DOUBLE_EQ(a.energies[s].potential, b.energies[s].potential);
    EXPECT_DOUBLE_EQ(a.energies[s].kinetic, b.energies[s].kinetic);
  }
  for (std::size_t i = 0; i < a.final_state.size(); ++i) {
    EXPECT_EQ(a.final_state.positions()[i], b.final_state.positions()[i]);
  }
}

TEST(CellBackend, SpePartitioningDoesNotChangePhysics) {
  const auto cfg = small_config(64, 3);
  CellRunOptions one, eight;
  one.n_spes = 1;
  eight.n_spes = 8;
  const auto a = CellBackend(one).run(cfg);
  const auto b = CellBackend(eight).run(cfg);
  for (std::size_t i = 0; i < a.final_state.size(); ++i) {
    EXPECT_EQ(a.final_state.positions()[i], b.final_state.positions()[i]);
  }
}

TEST(CellBackend, EightSpesFasterThanOne) {
  // Needs enough work to amortise the 8 thread launches — at tiny atom
  // counts one SPE genuinely wins (launch overhead dominates), which is
  // exactly the Fig-6 lesson.
  const auto cfg = small_config(1024, 5);
  CellRunOptions one, eight;
  one.n_spes = 1;
  eight.n_spes = 8;
  const auto a = CellBackend(one).run(cfg);
  const auto b = CellBackend(eight).run(cfg);
  EXPECT_LT(b.device_time.to_seconds(), a.device_time.to_seconds());
}

TEST(CellBackend, RespawnModePaysLaunchEveryStep) {
  const auto cfg = small_config(128, 5);
  CellRunOptions respawn, persistent;
  respawn.n_spes = 4;
  respawn.launch_mode = LaunchMode::kRespawnEveryStep;
  persistent.n_spes = 4;
  persistent.launch_mode = LaunchMode::kPersistent;

  const auto r = CellBackend(respawn).run(cfg);
  const auto p = CellBackend(persistent).run(cfg);

  // Respawn: 5 steps x 4 SPEs; persistent: 4 launches total.
  const double launch_r = r.breakdown_component("spe_launch").to_seconds();
  const double launch_p = p.breakdown_component("spe_launch").to_seconds();
  EXPECT_NEAR(launch_r / launch_p, 5.0, 1e-9);
  EXPECT_GT(r.device_time.to_seconds(), p.device_time.to_seconds());
}

TEST(CellBackend, PersistentModeUsesMailboxes) {
  const auto cfg = small_config(128, 3);
  CellRunOptions opt;
  opt.n_spes = 2;
  const auto r = CellBackend(opt).run(cfg);
  // Prime launches; 3 timed steps signal 2 SPEs each.
  EXPECT_EQ(r.ops.get("cell.mailbox_signals"), 6u);
  EXPECT_EQ(r.ops.get("cell.spe_launches"), 2u);
}

TEST(CellBackend, RespawnModeNeverSignals) {
  const auto cfg = small_config(128, 3);
  CellRunOptions opt;
  opt.n_spes = 2;
  opt.launch_mode = LaunchMode::kRespawnEveryStep;
  const auto r = CellBackend(opt).run(cfg);
  EXPECT_EQ(r.ops.get("cell.mailbox_signals"), 0u);
  EXPECT_EQ(r.ops.get("cell.spe_launches"), 8u);  // prime + 3 steps, 2 SPEs
}

TEST(CellBackend, DmaBytesCountEachEvaluationOnce) {
  // Every evaluation (prime + 3 steps) DMAs the whole position array into
  // each SPE and its owned acceleration slice back out; the slices cover
  // the n atoms once.
  const std::size_t n = 128;
  const auto cfg = small_config(n, 3);
  for (const int n_spes : {1, 8}) {
    SCOPED_TRACE(n_spes);
    CellRunOptions opt;
    opt.n_spes = n_spes;
    const auto r = CellBackend(opt).run(cfg);
    const std::uint64_t per_evaluation =
        (static_cast<std::uint64_t>(n_spes) * n + n) * sizeof(emdpa::Vec4f);
    EXPECT_EQ(r.ops.get("cell.dma_bytes"), 4 * per_evaluation);
  }
}

TEST(CellBackend, BreakdownHasAllComponents) {
  const auto r = CellBackend().run(small_config(128, 2));
  EXPECT_GT(r.breakdown_component("spe_compute").to_seconds(), 0.0);
  EXPECT_GT(r.breakdown_component("spe_launch").to_seconds(), 0.0);
  EXPECT_GT(r.breakdown_component("dma").to_seconds(), 0.0);
  EXPECT_GT(r.breakdown_component("ppe").to_seconds(), 0.0);
}

TEST(CellBackend, VariantsOnlyChangeTime) {
  const auto cfg = small_config(64, 2);
  CellRunOptions slow, fast;
  slow.n_spes = 1;
  slow.variant = SimdVariant::kOriginal;
  fast.n_spes = 1;
  fast.variant = SimdVariant::kSimdAccel;
  const auto a = CellBackend(slow).run(cfg);
  const auto b = CellBackend(fast).run(cfg);
  EXPECT_GT(a.breakdown_component("spe_compute").to_seconds(),
            b.breakdown_component("spe_compute").to_seconds());
  for (std::size_t i = 0; i < a.final_state.size(); ++i) {
    EXPECT_EQ(a.final_state.positions()[i], b.final_state.positions()[i]);
  }
}

TEST(SpeContext, ThreadLifecycle) {
  CellConfig config;
  SpeContext spe(0, config);
  EXPECT_FALSE(spe.thread_running());
  EXPECT_THROW(spe.signal(1), ContractViolation);  // no thread yet
  const ModelTime launch = spe.launch_thread();
  EXPECT_EQ(launch, config.thread_launch);
  EXPECT_TRUE(spe.thread_running());
  EXPECT_THROW(spe.launch_thread(), ContractViolation);  // double launch
  spe.terminate_thread();
  EXPECT_FALSE(spe.thread_running());
  EXPECT_THROW(spe.terminate_thread(), ContractViolation);
}

TEST(SpeContext, SignalDeliversToInboundMailbox) {
  CellConfig config;
  SpeContext spe(0, config);
  spe.launch_thread();
  spe.signal(42);
  EXPECT_EQ(spe.mailboxes().inbound.pop(), 42u);
}

}  // namespace
}  // namespace emdpa::cell
