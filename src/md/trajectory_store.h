// Time-travel trajectory store: a bounded ring of CRC-checked simulation
// snapshots, any of which restores bit-exactly with one file read.
//
// The store is a directory of frames written at a configurable step
// stride from Simulation::snapshot() — a PURE observer (the checkpoint's
// LREF section carries the neighbour list a restore reseeds), so a
// store-enabled run stays bitwise identical to a store-disabled one.  Every frame is a complete checkpoint file (binary
// v5, written by encode_checkpoint), readable by load_checkpoint on its
// own and guarded by a CRC-32 per section; a v4 text frame from an older
// build fails to load, naming its version.  The store index ends in a
// CRC-32 footer, so a single flipped bit anywhere fails restoration loudly.
//
//   <dir>/frame_000000000120.key      full checkpoint at step 120
//   <dir>/frame_000000000130.key      full checkpoint at step 130
//   ...
//   <dir>/index                       one line per live frame + crc footer
//
// The index file is rewritten atomically (temp + rename) on every append,
// so reopening a store — or seeking — never scans frame payloads.
//
// Ring eviction: when a max_bytes budget is set and exceeded, the oldest
// frames are deleted one at a time — never the newest, so the most recent
// snapshot always survives.
//
// Stores written by older builds may also hold XOR-delta frames (index
// kind "delta"); this build does not read them, and opening such a store
// fails with a RuntimeFailure that says to re-record it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "md/checkpoint.h"

namespace emdpa::md {

struct TrajectoryStoreOptions {
  /// Directory the frames and index live in; created if absent.
  std::string directory;
  /// ignored: every frame is a keyframe; remove with perfbench's next change (ROADMAP item 7)
  int keyframe_interval = 1;
  /// Disk budget in bytes across all frames; 0 = unbounded.  When exceeded,
  /// the oldest frames are evicted (the newest frame never is).
  std::uint64_t max_bytes = 0;
};

struct TrajectoryStoreStats {
  std::uint64_t snapshots = 0;       ///< appends since open
  std::uint64_t keyframes = 0;       ///< ... all of them: every frame is one
  std::uint64_t bytes = 0;           ///< current on-disk frame bytes
  std::uint64_t evicted_frames = 0;  ///< frames deleted by ring eviction
};

class TrajectoryStore {
 public:
  /// Open (or create) the store at options.directory.  An existing valid
  /// index resumes the ring where it left off; a corrupt index, or one
  /// naming a legacy delta frame, throws.
  explicit TrajectoryStore(TrajectoryStoreOptions options);

  /// Append one snapshot.  `cp.step` must exceed the last stored step.
  /// Writes the frame atomically, applies the ring budget, then updates
  /// the index.
  void append(const Checkpoint& cp);

  /// Steps currently restorable, ascending.
  std::vector<long> steps() const;

  bool has_step(long step) const;

  /// Largest stored step <= `step`, or -1 when none is.
  long nearest_at_or_before(long step) const;

  /// Restore the snapshot stored for exactly `step` from its frame file.
  /// Throws RuntimeFailure on unknown steps and on any corruption (every
  /// frame is CRC-verified).
  Checkpoint load_step(long step) const;

  const TrajectoryStoreStats& stats() const { return stats_; }
  const std::string& directory() const { return options_.directory; }

 private:
  struct FrameRecord {
    long step = 0;
    std::uint64_t bytes = 0;
  };

  std::string frame_path(long step) const;
  void write_file_atomic(const std::string& path, const std::string& content);
  void persist_index();
  void load_index();
  void evict_to_budget();

  TrajectoryStoreOptions options_;
  std::vector<FrameRecord> frames_;  ///< live frames, ascending by step
  TrajectoryStoreStats stats_;
};

}  // namespace emdpa::md
