// Supervised cooperative ensemble scheduler: many simulations, one thread
// pool, and a runtime that survives its own death.
//
// The paper evaluates one simulation per architecture; the production story
// is aggregate throughput — replica ensembles and parameter sweeps
// multiplexed over shared compute, jobs/sec rather than steps/sec.  This
// scheduler runs a manifest of N independent jobs (each a full RunConfig)
// cooperatively over ONE shared ThreadPool by time-slicing at checkpoint
// boundaries:
//
//   suspend = CheckpointManager save   (atomic commit, CRC-32, rotation)
//   resume  = bit-exact restore        (v3 config-verified, no re-priming)
//
// Because saving never perturbs a run and resume is bitwise, a time-sliced
// job's trajectory is bit-for-bit identical to the same job run standalone
// without saves, whatever the slice length — the scheduling layer is
// invisible to the physics (tests/trajectory/trajectory_batch_test.cpp
// proves it at 1 and 8 threads).  On top of that seam:
//
//  * Priority queue (core/job_queue.h): strict priority between bands,
//    deterministic round-robin inside one.
//  * Backpressure: at most max_in_flight jobs keep live Simulation state in
//    memory; the rest exist only as checkpoint files until rescheduled.
//  * SUPERVISION (md/batch_journal.h + md/retry_policy.h): every job state
//    transition — admitted -> running -> suspended -> retrying(n) ->
//    quarantined/done/failed — is journaled through a CRC-checked
//    write-ahead log before the batch acts on it.  SIGKILL the scheduler at
//    any instant and re-running the same command replays the journal,
//    reconciles it against the per-job checkpoints/markers, and resumes:
//    retry counters, quarantine verdicts and the round-robin position all
//    survive.  A transiently failing job is retried with deterministic
//    decorrelated-jitter backoff up to its retry budget, then QUARANTINED —
//    set aside with its attempt count — instead of aborting the batch or
//    silently eating its wall clock forever.  Per-job wall/slice deadline
//    budgets (HealthMonitor::enforce_deadline) quarantine immediately.
//    ContractViolation (programming error) still aborts the whole batch.
//  * Drain: stop_requested (the driver wires SIGINT/SIGTERM here) finishes
//    the current slice — whose suspend already checkpointed it — and marks
//    the unfinished jobs interrupted.  Re-running the same manifest against
//    the same checkpoint directory resumes them and skips completed ones
//    (recorded in `<name>.done` markers, reconciled with the journal).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/thread_pool.h"
#include "md/backend.h"
#include "md/checkpoint_manager.h"
#include "md/integrator.h"
#include "md/particle_system.h"
#include "md/retry_policy.h"
#include "md/simulation.h"

namespace emdpa::md {

class BatchJournal;

/// One manifest entry: a named, prioritised, fully configured run.
struct JobSpec {
  /// Unique within the batch; also the checkpoint file stem, so restricted
  /// to [A-Za-z0-9._-].
  std::string name;
  /// Higher runs first; equal priorities round-robin deterministically.
  int priority = 0;
  /// Full per-job run configuration (atoms, steps, kernel, precision, seed,
  /// dt, degrade, drift_tolerance, ...).  `steps` is the total target.
  RunConfig config;
  /// Per-job overrides of the batch-wide retry/deadline policy
  /// (SchedulerOptions::retry); unset inherits the batch default.
  std::optional<int> max_retries;
  std::optional<double> deadline_seconds;
  std::optional<std::uint64_t> slice_budget;
};

enum class JobStatus {
  kPending,
  kCompleted,
  kFailed,
  kInterrupted,
  kQuarantined,
};

const char* to_string(JobStatus status);

/// Per-job outcome row for the report/CSV layer.
struct JobResult {
  std::string name;
  int priority = 0;
  JobStatus status = JobStatus::kPending;
  long steps_done = 0;
  long steps_target = 0;
  std::uint64_t slices = 0;            ///< time slices executed this batch
  std::uint64_t checkpoint_saves = 0;  ///< committed suspend checkpoints
  /// Failed attempts consumed so far — cumulative across reruns (journal-
  /// restored), so the report shows the true retry history after a crash.
  int attempts = 0;
  bool degraded = false;               ///< fell back to the reference kernel
  bool resumed = false;  ///< started from a pre-existing checkpoint
  double wall_seconds = 0.0;           ///< this job's slices, wall clock
  StepEnergies final_energies{};
  /// Failure message with structured context (kFailed/kQuarantined, or the
  /// latest retried error while a job is still being supervised).
  std::string error;
  /// Final state of a job completed in THIS batch (empty otherwise; a job
  /// already completed in a previous batch lives in its checkpoint file).
  ParticleSystem final_state;
};

struct BatchResult {
  std::vector<JobResult> jobs;  ///< manifest order
  bool interrupted = false;     ///< drained on stop_requested
  std::size_t count(JobStatus status) const;
};

struct SchedulerOptions {
  /// Steps per time slice; also the checkpoint cadence (every suspend
  /// saves).  It does not change any job's trajectory.
  int slice_steps = 100;
  /// Jobs allowed to keep live Simulation state in memory at once.  Beyond
  /// it the least-recently-scheduled resident is evicted to its checkpoint
  /// file (a job whose last save failed transiently stays pinned resident —
  /// evicting it would lose state).
  std::size_t max_in_flight = 4;
  /// Directory for `<name>.ckpt` checkpoint generations and `<name>.done`
  /// completion markers; created if missing.  Reusing a directory resumes
  /// the batch recorded in it.
  std::string checkpoint_dir;
  /// Batch-wide retry/backoff/deadline defaults (per-job overrides ride on
  /// JobSpec).  max_retries == 0 keeps the pre-supervision verdict: one
  /// failure fails the job.
  RetryPolicy retry;
  /// Write-ahead journal path; empty derives `<checkpoint_dir>/batch.wal`.
  std::string journal_path;
  /// Journal segment size bound; past it the log compacts atomically.
  std::uint64_t journal_max_bytes = 256 * 1024;
  /// Shared pool the jobs' force kernels ride on; nullptr runs serial.
  ThreadPool* pool = nullptr;
  /// Polled between slices; true drains the batch (see header comment).
  std::function<bool()> stop_requested;
};

class JobScheduler {
 public:
  /// Validates the manifest (unique filesystem-safe names, positive steps)
  /// and scheduler options, and creates the checkpoint directory.  Throws
  /// RuntimeFailure/ContractViolation on invalid input.
  JobScheduler(std::vector<JobSpec> jobs, SchedulerOptions options);
  ~JobScheduler();

  /// Run the batch to completion (or drain).  Callable once.
  BatchResult run();

 private:
  struct JobState {
    JobSpec spec;
    JobResult result;
    CheckpointManager manager;
    RetryState retry;
    /// Merged (batch default + per-job override) deadline budgets.
    double deadline_wall_seconds = 0.0;
    std::uint64_t slice_budget = 0;
    std::optional<Simulation> sim;
    bool pinned = false;           ///< last suspend save failed; do not evict
    bool retry_waiting = false;    ///< backing off; runnable at release_round
    std::uint64_t release_round = 0;
    /// Slices across EVERY process that ran this job (journal-restored);
    /// the slice-budget deadline meters this, not the per-batch count.
    std::uint64_t total_slices = 0;
    std::uint64_t last_event = 0;  ///< journal recency for queue rebuild
    std::uint64_t last_scheduled = 0;

    JobState(JobSpec s, std::string checkpoint_path,
             const RetryPolicy& merged_policy);
  };

  void ensure_resident(JobState& job);
  void run_slice(JobState& job, std::uint64_t round);
  void supervise_failure(JobState& job, const RuntimeFailure& error,
                         std::uint64_t round);
  void salvage(JobState& job);
  void complete(JobState& job);
  void fail(JobState& job, const RuntimeFailure& error);
  void quarantine(JobState& job, const std::string& reason);
  void finish(JobState& job, JobStatus status);
  void evict_over_limit();
  void reconcile(JobState& job, const struct ReplayedJob& replayed);
  void compact_journal(std::uint64_t round);
  std::string marker_path(const JobState& job) const;
  void write_marker(const JobState& job) const;
  bool load_marker(JobState& job) const;

  std::vector<JobState> jobs_;
  SchedulerOptions options_;
  std::unique_ptr<BatchJournal> journal_;
  std::uint64_t schedule_clock_ = 0;
  bool ran_ = false;
};

}  // namespace emdpa::md
