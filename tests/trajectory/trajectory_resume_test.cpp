// Resume bitwise-equivalence: a run checkpointed at its midpoint and resumed
// from that checkpoint must finish bit-for-bit identical to a run that never
// saved — across every host kernel and thread count.
//
// Two properties make this hold and both are exercised here: a checkpoint
// carries the positions the live neighbour list was built from (so the
// resumed run reseeds the identical list and saving perturbs nothing), and
// it carries the potential energy so resume trusts the stored
// accelerations instead of re-priming.
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>

#include "core/error.h"
#include "core/thread_pool.h"
#include "md/checkpoint.h"
#include "md/simulation.h"

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

  // A separate writer saves at the midpoint; the reference never saves.
  Simulation writer(options);
  writer.run(kCheckpointStep);
  std::stringstream checkpoint;
  writer.save(checkpoint);

  Simulation uninterrupted(options);
  uninterrupted.run(kTotalSteps);

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

TEST(TrajectoryResumeConfig, KernelMismatchFailsLoudly) {
  // Checkpoints record the producing run's kernel/precision/ISA; resuming
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

TEST(TrajectoryResumeConfig, UnknownKernelTokenMismatches) {
  // A kernel token no build of this tree writes is an unknown kernel and
  // fails like any other mismatch.  "sharded-list/<N>", the list kernel's
  // token in builds that had a sharded list build, is one of them.
  Simulation::Options options;
  options.workload.n_atoms = 64;
  options.kernel = SimKernel::kNeighborList;

  Simulation sim(options);
  sim.run(5);
  std::stringstream checkpoint;
  sim.save(checkpoint);
  const std::string saved = checkpoint.str();

  for (const char* token : {"sharded-list/4", "sharded-list/x", "sharded-list/",
                            "sharded-list/0", "sharded-list/4x",
                            "sharded-list"}) {
    std::stringstream copy(saved);
    std::stringstream unknown = retokened(copy, token);
    EXPECT_THROW(Simulation::resume(unknown, options), RuntimeFailure)
        << token;
  }
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
