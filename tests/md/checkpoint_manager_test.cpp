// CheckpointManager: atomic commits, generation rotation, CRC verification
// and corruption fallback.  Everything here operates on real files under
// the test temp dir — the crash-safety claims are about the filesystem.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "core/error.h"
#include "core/fault_injection.h"
#include "md/checkpoint_manager.h"
#include "md/workload.h"

namespace emdpa::md {
namespace {

namespace fs = std::filesystem;

class CheckpointManagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::Registry::instance().reset();
    path_ = fs::path(::testing::TempDir()) /
            (std::string("ckpt_") +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove(path_);
    fs::remove(path_ + ".prev");
    fs::remove(path_ + ".tmp");
  }
  void TearDown() override { fault::Registry::instance().reset(); }

  ParticleSystem system_at_step(long step) {
    WorkloadSpec spec;
    spec.n_atoms = 27;
    Workload w = make_lattice_workload(spec);
    // Make generations distinguishable beyond the step counter.
    w.system.positions()[0].x = static_cast<double>(step);
    return std::move(w.system);
  }

  std::string read_all(const std::string& file) {
    std::ifstream in(file, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }

  void write_all(const std::string& file, const std::string& content) {
    std::ofstream out(file, std::ios::binary | std::ios::trunc);
    out << content;
  }

  std::string path_;
};

TEST_F(CheckpointManagerTest, SaveCommitsAndCleansUpTempFile) {
  CheckpointManager manager(path_);
  manager.save(system_at_step(5), PeriodicBox(4.0), 5, -1.25);

  EXPECT_TRUE(fs::exists(path_));
  EXPECT_FALSE(fs::exists(manager.temp_path()));
  EXPECT_EQ(manager.saves(), 1u);

  const Checkpoint cp = CheckpointManager::load_file(path_);
  EXPECT_EQ(cp.step, 5);
  EXPECT_EQ(cp.potential, -1.25);
}

TEST_F(CheckpointManagerTest, SecondSaveRotatesPreviousGeneration) {
  CheckpointManager manager(path_);
  manager.save(system_at_step(10), PeriodicBox(4.0), 10);
  manager.save(system_at_step(20), PeriodicBox(4.0), 20);

  EXPECT_EQ(CheckpointManager::load_file(path_).step, 20);
  EXPECT_EQ(CheckpointManager::load_file(manager.previous_path()).step, 10);
  EXPECT_EQ(manager.saves(), 2u);
}

TEST_F(CheckpointManagerTest, LoadPrefersLatestGeneration) {
  CheckpointManager manager(path_);
  manager.save(system_at_step(10), PeriodicBox(4.0), 10);
  manager.save(system_at_step(20), PeriodicBox(4.0), 20);

  const CheckpointLoad loaded = manager.load();
  EXPECT_EQ(loaded.checkpoint.step, 20);
  EXPECT_FALSE(loaded.used_fallback);
  EXPECT_EQ(loaded.source_path, path_);
}

TEST_F(CheckpointManagerTest, TruncatedLatestFallsBackToPrevious) {
  CheckpointManager manager(path_);
  manager.save(system_at_step(10), PeriodicBox(4.0), 10);
  manager.save(system_at_step(20), PeriodicBox(4.0), 20);

  // Simulate a crash that truncated the latest generation mid-write.
  std::string latest = read_all(path_);
  latest.resize(latest.size() / 2);
  write_all(path_, latest);

  const CheckpointLoad loaded = manager.load();
  EXPECT_TRUE(loaded.used_fallback);
  EXPECT_EQ(loaded.checkpoint.step, 10);
  EXPECT_EQ(loaded.source_path, manager.previous_path());
}

TEST_F(CheckpointManagerTest, FlippedPayloadByteFailsTheCrc) {
  CheckpointManager manager(path_);
  manager.save(system_at_step(10), PeriodicBox(4.0), 10);

  std::string content = read_all(path_);
  // Flip one bit in the middle of the atom sections: the section CRC
  // catches it before any value is read.
  content[content.size() / 2] ^= 0x01;
  write_all(path_, content);

  try {
    CheckpointManager::load_file(path_);
    FAIL() << "a flipped payload byte must fail verification";
  } catch (const RuntimeFailure& e) {
    EXPECT_NE(std::string(e.what()).find("crc mismatch"), std::string::npos);
  }
}

TEST_F(CheckpointManagerTest, FlippedCrcFooterByteIsRejected) {
  CheckpointManager manager(path_);
  manager.save(system_at_step(10), PeriodicBox(4.0), 10);

  std::string content = read_all(path_);
  // Corrupt the stored CRC itself (a byte of the END section's CRC word).
  char& digit = content[content.size() - 2];
  digit = digit == '0' ? '1' : '0';
  write_all(path_, content);

  EXPECT_THROW(CheckpointManager::load_file(path_), RuntimeFailure);
}

TEST_F(CheckpointManagerTest, MissingBothGenerationsReportsBothPaths) {
  CheckpointManager manager(path_);
  try {
    manager.load();
    FAIL() << "nothing on disk: load must fail";
  } catch (const RuntimeFailure& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path_), std::string::npos);
    EXPECT_NE(what.find(manager.previous_path()), std::string::npos);
  }
}

TEST_F(CheckpointManagerTest, CorruptLatestWithNoPreviousFails) {
  CheckpointManager manager(path_);
  manager.save(system_at_step(10), PeriodicBox(4.0), 10);
  write_all(path_, "emdpa-checkpoint 2\ngarbage\n");
  EXPECT_THROW(manager.load(), RuntimeFailure);
}

TEST_F(CheckpointManagerTest, InjectedEioLeavesCommittedGenerationsIntact) {
  CheckpointManager manager(path_);
  manager.save(system_at_step(10), PeriodicBox(4.0), 10);

  {
    fault::Plan plan;  // fail the next save attempt
    fault::ScopedFault fault("md.checkpoint_io", plan);
    EXPECT_THROW(manager.save(system_at_step(20), PeriodicBox(4.0), 20),
                 RuntimeFailure);
  }
  // The failed attempt left no temp debris and damaged nothing.
  EXPECT_FALSE(fs::exists(manager.temp_path()));
  EXPECT_EQ(CheckpointManager::load_file(path_).step, 10);
  EXPECT_EQ(manager.saves(), 1u);

  // The retry (next interval, fault cleared) commits and rotates normally.
  manager.save(system_at_step(20), PeriodicBox(4.0), 20);
  EXPECT_EQ(CheckpointManager::load_file(path_).step, 20);
  EXPECT_EQ(CheckpointManager::load_file(manager.previous_path()).step, 10);
}

TEST_F(CheckpointManagerTest, InjectedDirectoryFsyncEioFailsTheSaveLoudly) {
  CheckpointManager manager(path_);
  manager.save(system_at_step(10), PeriodicBox(4.0), 10);

  // The directory fsync is the LAST durability step: by the time it fails,
  // the rename already committed.  The save must still report failure (the
  // caller cannot count on the commit surviving power loss), while the
  // renamed generation stays fully loadable for this process.
  {
    fault::Plan plan;  // fail the next directory fsync
    fault::ScopedFault fault("md.dir_fsync", plan);
    try {
      manager.save(system_at_step(20), PeriodicBox(4.0), 20);
      FAIL() << "a failed directory fsync must fail the save";
    } catch (const RuntimeFailure& e) {
      EXPECT_NE(std::string(e.what()).find("fsync"), std::string::npos);
    }
  }
  EXPECT_EQ(manager.saves(), 1u);  // the failed attempt does not count
  EXPECT_EQ(CheckpointManager::load_file(path_).step, 20);
  EXPECT_EQ(CheckpointManager::load_file(manager.previous_path()).step, 10);

  // The retry commits and rotates normally once the fault clears.
  manager.save(system_at_step(30), PeriodicBox(4.0), 30);
  EXPECT_EQ(manager.saves(), 2u);
  EXPECT_EQ(CheckpointManager::load_file(path_).step, 30);
}

TEST_F(CheckpointManagerTest, StalePreviousGenerationStateIsPreserved) {
  CheckpointManager manager(path_);
  manager.save(system_at_step(10), PeriodicBox(4.0), 10);
  manager.save(system_at_step(20), PeriodicBox(4.0), 20);
  fs::remove(path_);  // crash window: latest gone, previous must serve

  const CheckpointLoad loaded = manager.load();
  EXPECT_TRUE(loaded.used_fallback);
  EXPECT_EQ(loaded.checkpoint.step, 10);
  EXPECT_EQ(loaded.checkpoint.system.positions()[0].x, 10.0);
}

}  // namespace
}  // namespace emdpa::md
