// TrajectoryStore: byte-exact time travel over real simulation runs.
//
// The central property, proven here over randomized trajectories: for EVERY
// stored step, load_step() returns a checkpoint whose serialisation is
// byte-identical to the snapshot the live run produced at that step — across
// kernels, precisions and strides.  Every frame is a plain checkpoint file.
// Plus the corruption story (any single flipped bit on disk fails
// restoration loudly, legacy delta stores are refused), ring eviction,
// reopen, the store phase timer, and the pure-observer guarantee (a
// store-enabled run is bitwise identical to a store-disabled one).
#include "md/trajectory_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/crc32.h"
#include "core/error.h"
#include "core/random.h"
#include "md/backend.h"
#include "md/simulation.h"
#include "../md/legacy_checkpoint_text.h"

namespace emdpa::md {
namespace {

namespace fs = std::filesystem;

class TrajectoryStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::path(::testing::TempDir()) /
            (std::string("store_") +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  TrajectoryStoreOptions store_options(std::uint64_t max_bytes = 0) {
    TrajectoryStoreOptions options;
    options.directory = dir_;
    options.max_bytes = max_bytes;
    return options;
  }

  /// Names of the frame_* files on disk, ascending.
  std::vector<std::string> frame_files() const {
    std::vector<std::string> names;
    for (const auto& entry : fs::directory_iterator(dir_)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("frame_", 0) == 0) names.push_back(name);
    }
    std::sort(names.begin(), names.end());
    return names;
  }

  std::string dir_;
};

std::string serialized(const Checkpoint& cp) {
  std::ostringstream out;
  save_checkpoint(out, cp);
  return out.str();
}

std::string serialized_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Run `steps` steps, appending a snapshot every `stride` steps (plus step 0
/// and the end) and capturing the live snapshot's serialisation for each.
std::map<long, std::string> record_run(Simulation& sim, TrajectoryStore& store,
                                       int steps, int stride) {
  std::map<long, std::string> live;
  store.append(sim.snapshot());
  live[sim.current_step()] = serialized(sim.snapshot());
  for (int s = 1; s <= steps; ++s) {
    sim.step();
    if (s % stride == 0 || s == steps) {
      if (!store.has_step(sim.current_step())) {
        store.append(sim.snapshot());
        live[sim.current_step()] = serialized(sim.snapshot());
      }
    }
  }
  return live;
}

TEST_F(TrajectoryStoreTest, EveryStoredStepRestoresByteExact) {
  Simulation::Options options;
  options.workload.n_atoms = 256;
  options.kernel = SimKernel::kNeighborList;
  Simulation sim(options);

  TrajectoryStore store(store_options());
  const auto live = record_run(sim, store, 20, 2);

  EXPECT_EQ(store.stats().snapshots, live.size());
  EXPECT_EQ(store.stats().keyframes, live.size());  // every frame is one
  for (const auto& [step, text] : live) {
    EXPECT_EQ(serialized(store.load_step(step)), text) << "step " << step;
  }
}

TEST_F(TrajectoryStoreTest, V4TextKeyframeStillReplaysThroughLoadStep) {
  // A store written before checkpoint v5 holds hexfloat-text keyframes.
  // Rewrite every other frame of a fresh store as v4 text: each step must
  // still restore byte-exactly, from either encoding.
  Simulation::Options options;
  options.workload.n_atoms = 256;
  options.kernel = SimKernel::kNeighborList;
  Simulation sim(options);

  std::map<long, std::string> live;
  {
    TrajectoryStore store(store_options());
    live = record_run(sim, store, 6, 2);  // steps 0, 2, 4, 6
  }
  for (const long step : {0L, 4L}) {
    char name[48];
    std::snprintf(name, sizeof(name), "/frame_%012ld.key", step);
    const std::string key = dir_ + name;
    ASSERT_TRUE(fs::exists(key));
    const std::string v4 =
        testing::checkpoint_v4_text(load_checkpoint(serialized_file(key)));
    {
      std::ofstream out(key, std::ios::binary | std::ios::trunc);
      out << v4;
    }
    ASSERT_EQ(serialized_file(key).rfind("emdpa-checkpoint 4\n", 0), 0u);
  }

  TrajectoryStore reopened(store_options());
  for (const auto& [step, bytes] : live) {
    EXPECT_EQ(serialized(reopened.load_step(step)), bytes) << "step " << step;
  }
}

// The randomized property harness: 50 trajectories with random kernel,
// precision, seed and stride — every stored step must restore byte-exactly.
TEST_F(TrajectoryStoreTest, RandomizedTrajectoriesRestoreByteExact) {
  Rng rng(20070326);
  for (int trajectory = 0; trajectory < 50; ++trajectory) {
    const bool list_kernel = rng.uniform_index(2) == 0;
    Simulation::Options options;
    // The list kernel needs a box comfortably larger than cutoff+skin;
    // the N^2 kernel is happy with small cheap systems.
    options.workload.n_atoms = list_kernel ? 256 : 32 + rng.uniform_index(64);
    options.workload.seed = rng.next_u64();
    options.kernel = list_kernel ? SimKernel::kNeighborList : SimKernel::kSoaN2;
    const std::uint64_t precision = rng.uniform_index(3);
    options.precision = precision == 0   ? PrecisionMode::kDouble
                        : precision == 1 ? PrecisionMode::kSingle
                                         : PrecisionMode::kMixed;
    Simulation sim(options);

    const std::string subdir =
        dir_ + "/t" + std::to_string(trajectory);
    TrajectoryStoreOptions store_opts;
    store_opts.directory = subdir;
    TrajectoryStore store(store_opts);

    const int steps = 5 + static_cast<int>(rng.uniform_index(10));
    const int stride = 1 + static_cast<int>(rng.uniform_index(4));
    const auto live = record_run(sim, store, steps, stride);

    for (const auto& [step, text] : live) {
      ASSERT_EQ(serialized(store.load_step(step)), text)
          << "trajectory " << trajectory << " step " << step << " ("
          << to_string(options.kernel) << ", "
          << to_string(options.precision) << ", stride " << stride << ")";
    }
  }
}

TEST_F(TrajectoryStoreTest, AnySingleBitFlipFailsRestorationLoudly) {
  Simulation::Options options;
  options.workload.n_atoms = 48;
  options.kernel = SimKernel::kSoaN2;
  Simulation sim(options);
  TrajectoryStore store(store_options());
  record_run(sim, store, 6, 1);

  for (const long step : store.steps()) {
    char name[48];
    std::snprintf(name, sizeof(name), "frame_%012ld.key", step);
    const fs::path path = fs::path(dir_) / name;
    ASSERT_TRUE(fs::exists(path)) << "step " << step;

    std::string content;
    {
      std::ifstream in(path, std::ios::binary);
      content.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    }
    std::string corrupt = content;
    corrupt[corrupt.size() / 2] ^= 0x04;  // one flipped bit, mid-payload
    {
      std::ofstream out(path, std::ios::trunc | std::ios::binary);
      out << corrupt;
    }
    EXPECT_THROW(store.load_step(step), RuntimeFailure) << "step " << step;
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << content;  // restore for the next iteration
  }
}

// A frame file that is a valid checkpoint of the WRONG step (say, copied
// over another frame) passes every CRC; the step check must still refuse it.
TEST_F(TrajectoryStoreTest, FrameHoldingAnotherStepFailsTheLoad) {
  Simulation::Options options;
  options.workload.n_atoms = 32;
  options.kernel = SimKernel::kSoaN2;
  Simulation sim(options);
  TrajectoryStore store(store_options());
  record_run(sim, store, 2, 1);  // steps 0, 1, 2
  fs::copy_file(fs::path(dir_) / "frame_000000000001.key",
                fs::path(dir_) / "frame_000000000002.key",
                fs::copy_options::overwrite_existing);
  EXPECT_NO_THROW(store.load_step(1));
  EXPECT_THROW(store.load_step(2), RuntimeFailure);
}

TEST_F(TrajectoryStoreTest, CorruptIndexFailsReopenLoudly) {
  {
    Simulation::Options options;
    options.workload.n_atoms = 32;
    options.kernel = SimKernel::kSoaN2;
    Simulation sim(options);
    TrajectoryStore store(store_options());
    record_run(sim, store, 4, 1);
  }
  const fs::path index = fs::path(dir_) / "index";
  std::string content;
  {
    std::ifstream in(index, std::ios::binary);
    content.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
  }
  content[content.size() / 2] ^= 0x01;
  {
    std::ofstream out(index, std::ios::trunc | std::ios::binary);
    out << content;
  }
  EXPECT_THROW(TrajectoryStore{store_options()}, RuntimeFailure);
}

// Stores recorded by older builds may name XOR-delta frames in their index.
// This build cannot read them: the reopen must fail, naming the legacy
// format and telling the operator to re-record — never a half-open store.
TEST_F(TrajectoryStoreTest, DeltaIndexEntryFailsReopenNamingTheLegacyFormat) {
  {
    Simulation::Options options;
    options.workload.n_atoms = 32;
    options.kernel = SimKernel::kSoaN2;
    Simulation sim(options);
    TrajectoryStore store(store_options());
    record_run(sim, store, 2, 1);  // steps 0, 1, 2
  }
  const fs::path index = fs::path(dir_) / "index";
  std::string body = strip_crc_footer(serialized_file(index.string()), "index");
  const std::size_t entry = body.find("frame 1 key ");
  ASSERT_NE(entry, std::string::npos);
  body.replace(entry, 11, "frame 1 delta");
  {
    std::ofstream out(index, std::ios::trunc | std::ios::binary);
    out << with_crc_footer(body);  // a valid index, just a legacy entry
  }
  try {
    TrajectoryStore reopened(store_options());
    FAIL() << "a delta index entry must fail the reopen";
  } catch (const RuntimeFailure& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("delta"), std::string::npos) << what;
    EXPECT_NE(what.find("re-record"), std::string::npos) << what;
  }
}

// Every frame of a fresh store is a complete checkpoint: load_checkpoint on
// the file alone, with no store and no index, restores the live snapshot.
TEST_F(TrajectoryStoreTest, EveryFrameLoadsWithLoadCheckpointAlone) {
  Simulation::Options options;
  options.workload.n_atoms = 256;
  options.kernel = SimKernel::kNeighborList;
  Simulation sim(options);
  TrajectoryStore store(store_options());
  const auto live = record_run(sim, store, 9, 3);

  const std::vector<std::string> files = frame_files();
  ASSERT_EQ(files.size(), live.size());
  for (const std::string& name : files) {
    ASSERT_EQ(fs::path(name).extension(), ".key") << name;
    const Checkpoint cp =
        load_checkpoint(serialized_file((fs::path(dir_) / name).string()));
    ASSERT_EQ(live.count(cp.step), 1u) << name;
    EXPECT_EQ(serialized(cp), live.at(cp.step)) << name;
  }
}

TEST_F(TrajectoryStoreTest, ReopenResumesTheRing) {
  Simulation::Options options;
  options.workload.n_atoms = 64;
  options.kernel = SimKernel::kSoaN2;
  Simulation sim(options);

  std::map<long, std::string> live;
  {
    TrajectoryStore store(store_options());
    live = record_run(sim, store, 8, 2);
  }

  // A second store over the same directory continues the ring: new frames
  // join the ones the first instance wrote, and all of them restore.
  TrajectoryStore reopened(store_options());
  EXPECT_EQ(reopened.steps().size(), live.size());
  for (int s = 9; s <= 14; ++s) {
    sim.step();
    if (s % 2 == 0) {
      reopened.append(sim.snapshot());
      live[sim.current_step()] = serialized(sim.snapshot());
    }
  }
  for (const auto& [step, text] : live) {
    EXPECT_EQ(serialized(reopened.load_step(step)), text) << "step " << step;
  }
}

TEST_F(TrajectoryStoreTest, RingEvictionDropsOldestChainsKeepsNewest) {
  Simulation::Options options;
  options.workload.n_atoms = 64;
  options.kernel = SimKernel::kSoaN2;
  Simulation sim(options);

  // Budget ~12 frames' worth: with stride 1 over 41 snapshots the ring must
  // evict old frames as the run advances (each frame is its own chain).
  TrajectoryStore store(store_options(60'000));
  const auto live = record_run(sim, store, 40, 1);

  EXPECT_GT(store.stats().evicted_frames, 0u);
  const std::vector<long> steps = store.steps();
  ASSERT_FALSE(steps.empty());
  EXPECT_GT(steps.front(), 0L);    // the oldest frames are gone
  EXPECT_EQ(steps.back(), 40L);    // the newest snapshot never is
  EXPECT_LE(store.stats().bytes, 60'000u);
  EXPECT_EQ(store.stats().evicted_frames + steps.size(), live.size());
  for (const long step : steps) {
    EXPECT_EQ(serialized(store.load_step(step)), live.at(step))
        << "step " << step;
  }
  // Evicted frames' files are deleted, not just forgotten.
  EXPECT_EQ(frame_files().size(), steps.size());
}

// A budget below two frames keeps exactly the newest frame, and its file is
// the only frame left on disk — even a budget below ONE frame never evicts
// the newest.
TEST_F(TrajectoryStoreTest, BudgetBelowTwoFramesKeepsOnlyTheNewestFrame) {
  Simulation::Options options;
  options.workload.n_atoms = 64;
  options.kernel = SimKernel::kSoaN2;
  const std::uint64_t frame_bytes =
      encode_checkpoint(Simulation(options).snapshot()).size();

  for (const std::uint64_t budget : {frame_bytes * 3 / 2, std::uint64_t{1}}) {
    SCOPED_TRACE("budget " + std::to_string(budget));
    fs::remove_all(dir_);
    Simulation sim(options);
    TrajectoryStore store(store_options(budget));
    const auto live = record_run(sim, store, 6, 1);

    ASSERT_EQ(store.steps(), std::vector<long>{6L});
    EXPECT_EQ(store.stats().evicted_frames, live.size() - 1);
    EXPECT_EQ(store.stats().bytes, frame_bytes);
    EXPECT_EQ(frame_files(),
              std::vector<std::string>{"frame_000000000006.key"});
    EXPECT_EQ(serialized(store.load_step(6)), live.at(6));
  }
}

TEST_F(TrajectoryStoreTest, AppendsMustAdvance) {
  Simulation::Options options;
  options.workload.n_atoms = 32;
  options.kernel = SimKernel::kSoaN2;
  Simulation sim(options);
  TrajectoryStore store(store_options());
  store.append(sim.snapshot());
  EXPECT_THROW(store.append(sim.snapshot()), RuntimeFailure);
}

TEST_F(TrajectoryStoreTest, UnknownStepsFailLoudly) {
  Simulation::Options options;
  options.workload.n_atoms = 32;
  options.kernel = SimKernel::kSoaN2;
  Simulation sim(options);
  TrajectoryStore store(store_options());
  store.append(sim.snapshot());
  EXPECT_THROW(store.load_step(7), RuntimeFailure);
  EXPECT_FALSE(store.has_step(7));
  EXPECT_EQ(store.nearest_at_or_before(7), 0L);
  EXPECT_EQ(store.nearest_at_or_before(-1), -1L);
}

// The pure-observer guarantee the whole design rests on: snapshotting (and
// storing) a run perturbs nothing.  Run the same melt twice — once plain,
// once snapshotting every 3 steps through the store — and demand bitwise
// identical state, including under the neighbour-list kernel whose listref
// section is what makes this possible.
TEST_F(TrajectoryStoreTest, StoreEnabledRunIsBitwiseIdenticalToStoreDisabled) {
  Simulation::Options options;
  options.workload.n_atoms = 256;
  options.kernel = SimKernel::kNeighborList;

  Simulation plain(options);
  for (int s = 1; s <= 24; ++s) plain.step();

  Simulation stored(options);
  TrajectoryStore store(store_options());
  record_run(stored, store, 24, 3);

  ASSERT_EQ(plain.current_step(), stored.current_step());
  EXPECT_EQ(plain.last_energies().kinetic, stored.last_energies().kinetic);
  EXPECT_EQ(plain.last_energies().potential, stored.last_energies().potential);
  for (std::size_t i = 0; i < plain.system().size(); ++i) {
    EXPECT_EQ(plain.system().positions()[i], stored.system().positions()[i]);
    EXPECT_EQ(plain.system().velocities()[i], stored.system().velocities()[i]);
    EXPECT_EQ(plain.system().accelerations()[i],
              stored.system().accelerations()[i]);
  }
}

// And the flip side: a run RESUMED from a mid-run snapshot continues
// bit-identically to the original — the listref section reseeds the exact
// neighbour list instead of forcing a rebuild the original never did.
TEST_F(TrajectoryStoreTest, ResumeFromSnapshotContinuesBitExactly) {
  Simulation::Options options;
  options.workload.n_atoms = 256;
  options.kernel = SimKernel::kNeighborList;

  Simulation original(options);
  TrajectoryStore store(store_options());
  record_run(original, store, 20, 4);  // original now at step 20

  Simulation replay = Simulation::resume(store.load_step(12), options);
  ASSERT_EQ(replay.current_step(), 12);
  for (int s = 13; s <= 20; ++s) replay.step();

  EXPECT_EQ(original.last_energies().potential,
            replay.last_energies().potential);
  for (std::size_t i = 0; i < original.system().size(); ++i) {
    EXPECT_EQ(original.system().positions()[i],
              replay.system().positions()[i]);
    EXPECT_EQ(original.system().velocities()[i],
              replay.system().velocities()[i]);
  }
}

// The store phase timer: a --store-dir run reports the wall time of its
// appends (step 0's included) as phase_store_ms, inside host_wall; a run
// without a store reports no such key.
TEST_F(TrajectoryStoreTest, HostParallelReportsStorePhaseWithinTheWallClock) {
  RunConfig config;
  config.workload.n_atoms = 256;
  config.steps = 6;
  config.host_kernel = HostKernel::kN2;

  const RunResult plain = HostParallelBackend().run(config);
  EXPECT_EQ(plain.metadata.count("phase_store_ms"), 0u);

  config.store_dir = dir_;
  config.store_every = 2;
  const RunResult stored = HostParallelBackend().run(config);
  EXPECT_EQ(stored.metadata.at("store_snapshots"), 4.0);  // steps 0, 2, 4, 6
  const double store_ms = stored.metadata.at("phase_store_ms");
  EXPECT_GT(store_ms, 0.0);
  EXPECT_LE(store_ms, stored.breakdown.at("host_wall").to_seconds() * 1e3);
}

}  // namespace
}  // namespace emdpa::md
