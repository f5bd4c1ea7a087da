#include "md/checkpoint_manager.h"

#include <filesystem>
#include <fstream>
#include <system_error>

#include "core/error.h"
#include "core/fault_injection.h"
#include "core/wal.h"

namespace emdpa::md {

namespace fs = std::filesystem;

CheckpointManager::CheckpointManager(std::string path) : path_(std::move(path)) {
  EMDPA_REQUIRE(!path_.empty(), "checkpoint path must not be empty");
}

void CheckpointManager::save(const std::function<void(std::ostream&)>& writer) {
  const std::string tmp = temp_path();
  // Serialise to the side file.  Any failure from here on must leave the
  // committed generations exactly as they were.
  try {
    std::ofstream out(tmp, std::ios::trunc | std::ios::binary);
    if (!out) {
      throw RuntimeFailure("checkpoint: cannot open '" + tmp + "' for writing");
    }
    writer(out);
    if (fault::injected("md.checkpoint_io")) {
      throw RuntimeFailure("checkpoint: injected EIO writing '" + tmp + "'");
    }
    out.flush();
    if (!out) {
      throw RuntimeFailure("checkpoint: write to '" + tmp + "' failed");
    }
    out.close();
    // Durability, not just atomicity: the rename below publishes whatever
    // the page cache holds, so the temp file's DATA must be on stable
    // storage first or a power loss can commit a hole.
    fsync_file(tmp);
  } catch (...) {
    std::error_code ignored;
    fs::remove(tmp, ignored);
    throw;
  }

  // Commit: rotate latest -> previous, then promote the temp file.  Both
  // renames are atomic; a crash between them leaves `.prev` plus the
  // complete temp file, so at least one loadable generation survives.
  std::error_code ec;
  if (fs::exists(path_, ec)) {
    fs::rename(path_, previous_path(), ec);
    if (ec) {
      throw RuntimeFailure("checkpoint: cannot rotate '" + path_ + "' to '" +
                           previous_path() + "': " + ec.message());
    }
  }
  fs::rename(tmp, path_, ec);
  if (ec) {
    throw RuntimeFailure("checkpoint: cannot commit '" + tmp + "' to '" + path_ +
                         "': " + ec.message());
  }
  // The renames are atomic but not durable until the DIRECTORY is fsynced —
  // a power loss can roll the directory back to pre-rename while the data
  // blocks survive.  Injection site md.dir_fsync: the caller sees a failed
  // save (and retries or pins); the previously committed generations stay
  // loadable either way.
  if (fault::injected("md.dir_fsync")) {
    throw RuntimeFailure("checkpoint: injected EIO fsyncing directory of '" +
                         path_ + "'");
  }
  fsync_parent_directory(path_);
  ++saves_;
}

void CheckpointManager::save(const ParticleSystem& system, const PeriodicBox& box,
                             long step, double potential) {
  save([&](std::ostream& out) {
    save_checkpoint(out, system, box, step, potential);
  });
}

Checkpoint CheckpointManager::load_file(const std::string& file) {
  return load_checkpoint(read_file_bytes(file, "checkpoint"));
}

CheckpointLoad CheckpointManager::load() const {
  std::string latest_error;
  try {
    return {load_file(path_), path_, /*used_fallback=*/false};
  } catch (const RuntimeFailure& e) {
    latest_error = e.what();
  }
  try {
    return {load_file(previous_path()), previous_path(), /*used_fallback=*/true};
  } catch (const RuntimeFailure& e) {
    throw RuntimeFailure("checkpoint: no loadable generation at '" + path_ +
                         "' (latest: " + latest_error +
                         "; previous: " + e.what() + ")");
  }
}

}  // namespace emdpa::md
