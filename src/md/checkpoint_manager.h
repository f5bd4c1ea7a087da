// Crash-safe checkpoint files: atomic writes, generation rotation,
// corruption fallback.
//
// A checkpoint that can be destroyed by the crash it exists to survive is
// worthless, so every write goes through the classic atomic protocol:
//
//   1. serialise to `<path>.tmp` (binary, CRC-32 per section — checkpoint.h),
//      then fsync the temp file so its data is on stable storage,
//   2. rotate the current `<path>` to `<path>.prev`,
//   3. rename `<path>.tmp` onto `<path>` (atomic within a filesystem),
//   4. fsync the containing directory so the renames are durable.
//
// A SIGKILL at any instant leaves at least one complete, verifiable
// generation on disk: mid-write kills leave the old `<path>` untouched, and
// a kill between the two renames leaves `<path>.prev` (and the complete but
// unpromoted temp file).  Steps 1 and 4 extend the guarantee from process
// death to power loss: without the file fsync a rename can publish a hole,
// and without the directory fsync the rename itself can be rolled back by
// the journal replay of the FILESYSTEM's own crash recovery.  load()
// verifies the latest generation's CRC and falls back to the previous one
// when the latest is truncated, bit-flipped or missing — resuming slightly
// earlier beats resuming from corruption.
//
// Fault-injection sites (core/fault_injection.h): "md.checkpoint_io"
// simulates an EIO during step 1 — save() throws RuntimeFailure after
// cleaning up the temp file, leaving every committed generation intact;
// "md.dir_fsync" simulates an EIO at step 4 — the just-renamed generation
// is complete but its durability is unpromised, so save() reports failure
// and callers retry at the next checkpoint interval.
#pragma once

#include <functional>
#include <iosfwd>
#include <string>

#include "md/checkpoint.h"

namespace emdpa::md {

/// What load() resolved: the parsed checkpoint plus which generation served
/// it (used_fallback means the latest one was corrupt or missing).
struct CheckpointLoad {
  Checkpoint checkpoint;
  std::string source_path;
  bool used_fallback = false;
};

class CheckpointManager {
 public:
  explicit CheckpointManager(std::string path);

  const std::string& path() const { return path_; }
  std::string previous_path() const { return path_ + ".prev"; }
  std::string temp_path() const { return path_ + ".tmp"; }

  /// Atomically commit one checkpoint generation, serialised by `writer`
  /// (typically [&](std::ostream& os) { sim.save(os); }).  Throws
  /// RuntimeFailure on any I/O error — the previously committed generations
  /// are never damaged by a failed save.
  void save(const std::function<void(std::ostream&)>& writer);

  /// Convenience overload serialising raw state via save_checkpoint().
  void save(const ParticleSystem& system, const PeriodicBox& box, long step,
            double potential = 0.0);

  /// Load the newest intact generation: `<path>`, else `<path>.prev`.
  /// Throws RuntimeFailure when neither verifies.
  CheckpointLoad load() const;

  /// Load and CRC-verify one specific file (no fallback).
  static Checkpoint load_file(const std::string& file);

  /// Committed generations this manager wrote.
  std::uint64_t saves() const { return saves_; }

 private:
  std::string path_;
  std::uint64_t saves_ = 0;
};

}  // namespace emdpa::md
