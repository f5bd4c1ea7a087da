// Resume bitwise-equivalence: a run checkpointed at its midpoint and resumed
// from that checkpoint must finish bit-for-bit identical to the run that
// kept going — across every host kernel and thread count.
//
// Two properties make this hold and both are exercised here: save() is a
// synchronisation point (it invalidates the neighbour list, so the
// continuing run and the resumed run both rebuild from exactly the saved
// positions), and v2 checkpoints carry the potential energy so resume
// trusts the stored accelerations instead of re-priming.
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>

#include "core/error.h"
#include "core/thread_pool.h"
#include "md/checkpoint.h"
#include "md/simulation.h"
#include "../md/legacy_checkpoint_text.h"

namespace emdpa::md {
namespace {

// ctest registers each case under the name gtest lists for it, and gtest
// lists a ResumeCase as its raw bytes, starting with the low bytes of the
// address of `name`.  The case names therefore live at a fixed offset inside
// a 64 KiB-aligned block: that pins those bytes, so the registered test names
// no longer drift with the load address or with the size of the code linked
// into this binary.  The offset is the one the names were registered under;
// "(removed)" holds the place of the deleted cell-list kernel's case, so the
// names after it keep theirs.
struct alignas(0x10000) CaseNameBlock {
  char leading[0x4C00];
  char names[96];
};

constexpr CaseNameBlock kCaseNames = {
    {},
    "reference\0(removed)\0soa_n2_serial\0soa_n2_pool\0"
    "neighbor_list_serial\0neighbor_list_pool"};

// The index-th NUL-separated name in kCaseNames.
const char* case_name(int index) {
  const char* name = kCaseNames.names;
  for (; index > 0; --index) name += std::strlen(name) + 1;
  return name;
}

struct ResumeCase {
  const char* name;
  SimKernel kernel;
  bool pooled;
};

class TrajectoryResumeTest : public ::testing::TestWithParam<ResumeCase> {};

Simulation::Options melt_options(const ResumeCase& c, ThreadPool* pool) {
  Simulation::Options options;
  options.workload.n_atoms = 256;
  options.kernel = c.kernel;
  options.skin = 0.3;
  options.pool = c.pooled ? pool : nullptr;
  return options;
}

TEST_P(TrajectoryResumeTest, MidpointResumeIsBitIdentical) {
  const ResumeCase& c = GetParam();
  ThreadPool pool(4);
  const Simulation::Options options = melt_options(c, &pool);
  constexpr int kTotalSteps = 500;
  constexpr int kCheckpointStep = 250;

  // The uninterrupted run still saves at the midpoint: checkpointing is a
  // synchronisation point, so equivalence is defined against a run with the
  // same checkpoint schedule.
  Simulation uninterrupted(options);
  uninterrupted.run(kCheckpointStep);
  std::stringstream checkpoint;
  uninterrupted.save(checkpoint);
  uninterrupted.run(kTotalSteps - kCheckpointStep);

  Simulation resumed = Simulation::resume(checkpoint, options);
  ASSERT_EQ(resumed.current_step(), kCheckpointStep);
  resumed.run(kTotalSteps - kCheckpointStep);

  ASSERT_EQ(resumed.system().size(), uninterrupted.system().size());
  for (std::size_t i = 0; i < resumed.system().size(); ++i) {
    EXPECT_EQ(resumed.system().positions()[i],
              uninterrupted.system().positions()[i])
        << "position diverged at atom " << i;
    EXPECT_EQ(resumed.system().velocities()[i],
              uninterrupted.system().velocities()[i])
        << "velocity diverged at atom " << i;
    EXPECT_EQ(resumed.system().accelerations()[i],
              uninterrupted.system().accelerations()[i])
        << "acceleration diverged at atom " << i;
  }
  EXPECT_EQ(resumed.last_energies().kinetic,
            uninterrupted.last_energies().kinetic);
  EXPECT_EQ(resumed.last_energies().potential,
            uninterrupted.last_energies().potential);
}

TEST_P(TrajectoryResumeTest, ResumeDoesNotRePrime) {
  const ResumeCase& c = GetParam();
  ThreadPool pool(4);
  const Simulation::Options options = melt_options(c, &pool);

  Simulation original(options);
  original.run(50);
  std::stringstream checkpoint;
  original.save(checkpoint);

  Simulation resumed = Simulation::resume(checkpoint, options);
  // A v2 resume restores the primed state instead of re-evaluating forces:
  // the energies must match the instant of the save bit-for-bit.
  EXPECT_EQ(resumed.last_energies().kinetic, original.last_energies().kinetic);
  EXPECT_EQ(resumed.last_energies().potential,
            original.last_energies().potential);
  EXPECT_EQ(resumed.force_evaluations(), 0u);
}

TEST(TrajectoryLangevinResume, MidpointResumeIsBitIdentical) {
  // The Langevin thermostat's RNG state rides in the v3 checkpoint: a
  // resumed run re-attaching the thermostat — even with a DIFFERENT seed —
  // continues the checkpointed noise sequence, so the stochastic trajectory
  // stays bit-identical to the uninterrupted one.
  Simulation::Options options;
  options.workload.n_atoms = 256;
  constexpr int kTotalSteps = 300;
  constexpr int kCheckpointStep = 150;

  Simulation uninterrupted(options);
  uninterrupted.set_thermostat(LangevinThermostat(1.2, 2.0, 77));
  uninterrupted.run(kCheckpointStep);
  std::stringstream checkpoint;
  uninterrupted.save(checkpoint);
  uninterrupted.run(kTotalSteps - kCheckpointStep);

  Simulation resumed = Simulation::resume(checkpoint, options);
  // Seed 999: the restored checkpoint state must fully override it.
  resumed.set_thermostat(LangevinThermostat(1.2, 2.0, 999));
  resumed.run(kTotalSteps - kCheckpointStep);

  ASSERT_EQ(resumed.system().size(), uninterrupted.system().size());
  for (std::size_t i = 0; i < resumed.system().size(); ++i) {
    EXPECT_EQ(resumed.system().positions()[i],
              uninterrupted.system().positions()[i])
        << "position diverged at atom " << i;
    EXPECT_EQ(resumed.system().velocities()[i],
              uninterrupted.system().velocities()[i])
        << "velocity diverged at atom " << i;
  }
  EXPECT_EQ(resumed.last_energies().kinetic,
            uninterrupted.last_energies().kinetic);
  EXPECT_EQ(resumed.last_energies().potential,
            uninterrupted.last_energies().potential);
}

TEST(TrajectoryResumeBackCompat, V4TextCheckpointResumesBitIdentically) {
  // A checkpoint written before format v5 (hexfloat text, with the config
  // and Langevin rng sections) resumes exactly like the v5 file of the same
  // state, and the resumed run's next save is v5 and round-trips bit-exactly.
  Simulation::Options options;
  options.workload.n_atoms = 256;
  options.kernel = SimKernel::kNeighborList;
  constexpr int kSteps = 100;

  Simulation uninterrupted(options);
  uninterrupted.set_thermostat(LangevinThermostat(1.2, 2.0, 77));
  uninterrupted.run(kSteps);
  std::stringstream v5;
  uninterrupted.save(v5);
  uninterrupted.run(kSteps);

  std::stringstream v4(testing::checkpoint_v4_text(load_checkpoint(v5.str())));
  ASSERT_EQ(v4.str().rfind("emdpa-checkpoint 4\n", 0), 0u);
  Simulation resumed = Simulation::resume(v4, options);
  resumed.set_thermostat(LangevinThermostat(1.2, 2.0, 999));
  resumed.run(kSteps);

  ASSERT_EQ(resumed.system().size(), uninterrupted.system().size());
  for (std::size_t i = 0; i < resumed.system().size(); ++i) {
    EXPECT_EQ(resumed.system().positions()[i],
              uninterrupted.system().positions()[i])
        << "position diverged at atom " << i;
    EXPECT_EQ(resumed.system().velocities()[i],
              uninterrupted.system().velocities()[i])
        << "velocity diverged at atom " << i;
  }
  EXPECT_EQ(resumed.last_energies().total(),
            uninterrupted.last_energies().total());

  std::stringstream resaved;
  resumed.save(resaved);
  EXPECT_EQ(resaved.str().rfind("emdpa-checkpoint 5\n", 0), 0u);
  const Checkpoint cp = load_checkpoint(resaved.str());
  EXPECT_EQ(cp.step, 2 * kSteps);
  EXPECT_EQ(cp.system.positions(), resumed.system().positions());
  EXPECT_EQ(cp.system.velocities(), resumed.system().velocities());
  EXPECT_EQ(cp.system.accelerations(), resumed.system().accelerations());
  EXPECT_EQ(encode_checkpoint(cp), resaved.str());
}

TEST(TrajectoryResumeConfig, KernelMismatchFailsLoudly) {
  // v3 checkpoints record the producing run's kernel/precision/ISA; resuming
  // under different arithmetic would silently fork the trajectory, so it
  // must throw unless explicitly overridden.
  Simulation::Options options;
  options.workload.n_atoms = 64;
  options.kernel = SimKernel::kSoaN2;

  Simulation sim(options);
  sim.run(20);
  std::stringstream checkpoint;
  sim.save(checkpoint);

  Simulation::Options mismatched = options;
  mismatched.kernel = SimKernel::kReference;
  EXPECT_THROW(Simulation::resume(checkpoint, mismatched), RuntimeFailure);
}

TEST(TrajectoryResumeConfig, IgnoreFlagOverridesTheMismatch) {
  Simulation::Options options;
  options.workload.n_atoms = 64;
  options.kernel = SimKernel::kSoaN2;

  Simulation sim(options);
  sim.run(20);
  std::stringstream checkpoint;
  sim.save(checkpoint);

  Simulation::Options mismatched = options;
  mismatched.kernel = SimKernel::kReference;
  mismatched.ignore_checkpoint_config = true;  // --resume-force
  Simulation resumed = Simulation::resume(checkpoint, mismatched);
  EXPECT_EQ(resumed.current_step(), 20);
  EXPECT_EQ(resumed.kernel(), SimKernel::kReference);
}

TEST(TrajectoryResumeConfig, MatchingConfigResumesQuietly) {
  Simulation::Options options;
  options.workload.n_atoms = 64;
  options.kernel = SimKernel::kSoaN2;

  Simulation sim(options);
  sim.run(20);
  std::stringstream checkpoint;
  sim.save(checkpoint);

  Simulation resumed = Simulation::resume(checkpoint, options);
  EXPECT_EQ(resumed.current_step(), 20);
}

// The same list checkpoint with its kernel token replaced (a fresh CRC
// covers the new token).
std::stringstream retokened(std::stringstream& checkpoint,
                            const std::string& kernel) {
  Checkpoint cp = load_checkpoint(checkpoint);
  EXPECT_TRUE(cp.config.has_value());
  if (cp.config) cp.config->kernel = kernel;
  std::stringstream out;
  save_checkpoint(out, cp);
  return out;
}

TEST(TrajectoryResumeConfig, LegacyShardedListTokenResumesAsTheFlatList) {
  // Checkpoints written while the sharded list build existed record the list
  // kernel as "sharded-list/<N>".  That build wrote the flat list's CSR byte
  // for byte, so such a checkpoint resumes under the flat list kernel and
  // finishes bit-identical to the uninterrupted flat run.
  ThreadPool pool(4);
  Simulation::Options options;
  options.workload.n_atoms = 256;
  options.kernel = SimKernel::kNeighborList;
  options.pool = &pool;
  constexpr int kTotalSteps = 200;
  constexpr int kCheckpointStep = 100;

  Simulation uninterrupted(options);
  uninterrupted.run(kCheckpointStep);
  std::stringstream checkpoint;
  uninterrupted.save(checkpoint);
  uninterrupted.run(kTotalSteps - kCheckpointStep);

  std::stringstream legacy = retokened(checkpoint, "sharded-list/4");
  Simulation resumed = Simulation::resume(legacy, options);
  ASSERT_EQ(resumed.current_step(), kCheckpointStep);
  EXPECT_EQ(resumed.kernel(), SimKernel::kNeighborList);
  resumed.run(kTotalSteps - kCheckpointStep);

  ASSERT_EQ(resumed.system().size(), uninterrupted.system().size());
  for (std::size_t i = 0; i < resumed.system().size(); ++i) {
    EXPECT_EQ(resumed.system().positions()[i],
              uninterrupted.system().positions()[i])
        << "position diverged at atom " << i;
    EXPECT_EQ(resumed.system().velocities()[i],
              uninterrupted.system().velocities()[i])
        << "velocity diverged at atom " << i;
  }
  EXPECT_EQ(resumed.last_energies().kinetic,
            uninterrupted.last_energies().kinetic);
  EXPECT_EQ(resumed.last_energies().potential,
            uninterrupted.last_energies().potential);
}

TEST(TrajectoryResumeConfig, MalformedLegacyTokenStillMismatches) {
  // Only "sharded-list/<N>" with N >= 1 names the list kernel; anything else
  // is an unknown kernel and fails like any other mismatch.  The legacy
  // token never matches a kernel other than the list.
  Simulation::Options options;
  options.workload.n_atoms = 64;
  options.kernel = SimKernel::kNeighborList;

  Simulation sim(options);
  sim.run(5);
  std::stringstream checkpoint;
  sim.save(checkpoint);
  const std::string saved = checkpoint.str();

  for (const char* token : {"sharded-list/x", "sharded-list/", "sharded-list/0",
                            "sharded-list/4x", "sharded-list"}) {
    std::stringstream copy(saved);
    std::stringstream malformed = retokened(copy, token);
    EXPECT_THROW(Simulation::resume(malformed, options), RuntimeFailure)
        << token;
  }

  Simulation::Options n2 = options;
  n2.kernel = SimKernel::kSoaN2;
  std::stringstream copy(saved);
  std::stringstream legacy = retokened(copy, "sharded-list/4");
  EXPECT_THROW(Simulation::resume(legacy, n2), RuntimeFailure);
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, TrajectoryResumeTest,
    ::testing::Values(
        ResumeCase{case_name(0), SimKernel::kReference, false},
        ResumeCase{case_name(2), SimKernel::kSoaN2, false},
        ResumeCase{case_name(3), SimKernel::kSoaN2, true},
        ResumeCase{case_name(4), SimKernel::kNeighborList, false},
        ResumeCase{case_name(5), SimKernel::kNeighborList, true}),
    [](const ::testing::TestParamInfo<ResumeCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace emdpa::md
