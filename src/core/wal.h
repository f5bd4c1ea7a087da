// Append-only, CRC-checked write-ahead log (resilience layer).
//
// PR 5 made individual simulations crash-safe; the batch scheduler that
// multiplexes them was still a single point of failure — kill it mid-flight
// and every piece of in-memory bookkeeping (retry counters, quarantine
// verdicts, the round-robin position) evaporated.  A write-ahead log fixes
// that the same way the checkpoint files fixed the physics state: every
// state transition is appended durably *before* the batch acts on it, so a
// restarted process replays the log and continues from the exact decision
// point the dead one reached.
//
// Record format — one record per line, human-greppable like every other
// on-disk format in this repo:
//
//   <payload> #crc=XXXXXXXX
//
// The CRC-32 (core/crc32.h) covers the payload bytes exactly.  Payloads are
// single-line by contract (append() rejects embedded newlines).
//
// Torn-tail policy: a SIGKILL mid-append leaves a partial final line (or a
// line whose CRC does not verify).  read_wal() replays records in order and
// stops at the first record that fails to verify, reporting the discarded
// byte count — the classic WAL contract: a prefix of the history is always
// recovered, never a corrupted suffix.
//
// Durability: append() fsyncs the file after every record, and rewrite()
// (atomic segment rotation/compaction: temp file + fsync + rename) fsyncs
// the containing directory after the rename so the commit survives power
// loss, not just process death.  The fsync helpers are shared with
// md::CheckpointManager, which has the same directory-durability
// obligation; read_file_bytes with it and the trajectory store.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace emdpa {

/// fsync an existing file by path (open + fsync + close).  Throws
/// RuntimeFailure on failure.  No-op on platforms without POSIX fsync.
void fsync_file(const std::string& path);

/// fsync the directory containing `path`, making a just-committed rename in
/// it durable across power loss.  Throws RuntimeFailure on failure.
void fsync_parent_directory(const std::string& path);

/// Read a whole file in binary mode with one sized read.  Throws
/// RuntimeFailure naming `what` when the file cannot be opened or read.
std::string read_file_bytes(const std::string& path, const char* what);

/// What a replay recovered: every verifiable record in order, plus how much
/// of a torn/corrupt tail was discarded.
struct WalReplay {
  std::vector<std::string> records;  ///< verified payloads, oldest first
  std::uint64_t dropped_bytes = 0;   ///< bytes discarded after the last good record
  bool truncated = false;            ///< true when a torn tail was dropped
};

/// Replay a log file.  A missing file is an empty (valid) log; any I/O error
/// on an existing file throws RuntimeFailure.
WalReplay read_wal(const std::string& path);

/// Appender over one log file.  Single-writer by design (the scheduler's
/// control loop is single-threaded); reruns reopen in append mode and
/// continue the same segment.
class WalWriter {
 public:
  /// Open (creating if missing) for appending.  Throws RuntimeFailure.
  explicit WalWriter(std::string path);
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  const std::string& path() const { return path_; }

  /// Append one record and fsync it.  `payload` must not contain newlines.
  /// Throws RuntimeFailure on I/O failure — the previously appended records
  /// are unaffected (appends are strictly at the tail).
  void append(const std::string& payload);

  /// Atomically replace the whole log with `records` — segment rotation:
  /// the new segment is written to `<path>.tmp`, fsynced, renamed onto
  /// `<path>`, and the directory is fsynced; the appender then continues on
  /// the new segment.  A kill at any instant leaves either the old or the
  /// new segment complete on disk.
  void rewrite(const std::vector<std::string>& records);

  /// Current on-disk size in bytes (rotation policies key off this).
  std::uint64_t size_bytes() const;

  /// Records appended through this writer (excludes pre-existing ones).
  std::uint64_t appended() const { return appended_; }

 private:
  void open_append();
  void close_fd();

  std::string path_;
  int fd_ = -1;
  std::uint64_t appended_ = 0;
};

/// Frame one payload as a WAL line (without the trailing newline) — exposed
/// for tests that construct torn tails byte by byte.
std::string wal_frame(const std::string& payload);

}  // namespace emdpa
