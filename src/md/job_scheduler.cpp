#include "md/job_scheduler.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "core/error.h"
#include "core/fault_injection.h"
#include "core/job_queue.h"
#include "md/batch_journal.h"
#include "md/health.h"

namespace emdpa::md {

namespace fs = std::filesystem;

const char* to_string(JobStatus status) {
  switch (status) {
    case JobStatus::kPending: return "pending";
    case JobStatus::kCompleted: return "completed";
    case JobStatus::kFailed: return "failed";
    case JobStatus::kInterrupted: return "interrupted";
    case JobStatus::kQuarantined: return "quarantined";
  }
  return "unknown";
}

std::size_t BatchResult::count(JobStatus status) const {
  return static_cast<std::size_t>(
      std::count_if(jobs.begin(), jobs.end(),
                    [&](const JobResult& j) { return j.status == status; }));
}

namespace {

bool filesystem_safe(const std::string& name) {
  if (name.empty()) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

bool job_finished(JobStatus status) {
  return status == JobStatus::kCompleted || status == JobStatus::kFailed ||
         status == JobStatus::kQuarantined;
}

std::string describe(const RuntimeFailure& error) {
  std::string text = error.what();
  if (!error.context().empty()) {
    text += " (" + error.context().to_string() + ")";
  }
  return text;
}

}  // namespace

JobScheduler::JobState::JobState(JobSpec s, std::string checkpoint_path,
                                 const RetryPolicy& merged_policy)
    : spec(std::move(s)),
      manager(std::move(checkpoint_path)),
      retry(merged_policy, spec.name),
      deadline_wall_seconds(merged_policy.deadline_wall_seconds),
      slice_budget(merged_policy.slice_budget) {
  result.name = spec.name;
  result.priority = spec.priority;
  result.steps_target = spec.config.steps;
}

JobScheduler::JobScheduler(std::vector<JobSpec> jobs, SchedulerOptions options)
    : options_(std::move(options)) {
  EMDPA_REQUIRE(!jobs.empty(), "scheduler: manifest has no jobs");
  EMDPA_REQUIRE(options_.slice_steps > 0,
                "scheduler: slice_steps must be positive");
  EMDPA_REQUIRE(options_.max_in_flight > 0,
                "scheduler: max_in_flight must be positive");
  EMDPA_REQUIRE(!options_.checkpoint_dir.empty(),
                "scheduler: checkpoint_dir is required (suspend state lives "
                "there)");
  EMDPA_REQUIRE(options_.retry.max_retries >= 0,
                "scheduler: max_retries must be non-negative");
  EMDPA_REQUIRE(options_.retry.deadline_wall_seconds >= 0.0,
                "scheduler: job deadline must be non-negative");

  std::error_code ec;
  fs::create_directories(options_.checkpoint_dir, ec);
  if (ec) {
    throw RuntimeFailure("scheduler: cannot create checkpoint directory '" +
                         options_.checkpoint_dir + "': " + ec.message());
  }

  const std::string journal_path =
      options_.journal_path.empty()
          ? (fs::path(options_.checkpoint_dir) / "batch.wal").string()
          : options_.journal_path;
  journal_ =
      std::make_unique<BatchJournal>(journal_path, options_.journal_max_bytes);

  jobs_.reserve(jobs.size());
  for (JobSpec& spec : jobs) {
    if (!filesystem_safe(spec.name)) {
      throw RuntimeFailure("scheduler: job name '" + spec.name +
                           "' is not filesystem-safe (use [A-Za-z0-9._-])");
    }
    EMDPA_REQUIRE(spec.config.steps > 0, "scheduler: job '" + spec.name +
                                             "' has no steps to run");
    for (const JobState& existing : jobs_) {
      if (existing.spec.name == spec.name) {
        throw RuntimeFailure("scheduler: duplicate job name '" + spec.name +
                             "'");
      }
    }
    RetryPolicy merged = options_.retry;
    if (spec.max_retries) merged.max_retries = *spec.max_retries;
    if (spec.deadline_seconds) {
      merged.deadline_wall_seconds = *spec.deadline_seconds;
    }
    if (spec.slice_budget) merged.slice_budget = *spec.slice_budget;
    EMDPA_REQUIRE(merged.max_retries >= 0, "scheduler: job '" + spec.name +
                                               "' has a negative retry budget");
    EMDPA_REQUIRE(merged.deadline_wall_seconds >= 0.0,
                  "scheduler: job '" + spec.name + "' has a negative deadline");
    const std::string path =
        (fs::path(options_.checkpoint_dir) / (spec.name + ".ckpt")).string();
    jobs_.emplace_back(std::move(spec), path, merged);
  }
}

JobScheduler::~JobScheduler() = default;

std::string JobScheduler::marker_path(const JobState& job) const {
  return (fs::path(options_.checkpoint_dir) / (job.spec.name + ".done"))
      .string();
}

// Completion markers make batch resume idempotent: a finished job (success
// OR isolated failure OR quarantine) is never re-run when the same manifest
// is pointed at the same checkpoint directory again.  Plain key/value text,
// one line each.
void JobScheduler::write_marker(const JobState& job) const {
  std::ofstream out(marker_path(job), std::ios::trunc);
  out << "status " << to_string(job.result.status) << "\n";
  out << "steps " << job.result.steps_done << "\n";
  out << "attempts " << job.result.attempts << "\n";
  out << "kinetic " << std::hexfloat << job.result.final_energies.kinetic
      << "\n";
  out << "potential " << job.result.final_energies.potential << "\n";
  if (!job.result.error.empty()) {
    std::string one_line = job.result.error;
    std::replace(one_line.begin(), one_line.end(), '\n', ' ');
    out << "error " << one_line << "\n";
  }
}

bool JobScheduler::load_marker(JobState& job) const {
  std::ifstream in(marker_path(job));
  if (!in) return false;
  std::string line;
  JobStatus status = JobStatus::kPending;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    if (key == "status") {
      std::string value;
      ls >> value;
      if (value == "completed") status = JobStatus::kCompleted;
      else if (value == "failed") status = JobStatus::kFailed;
      else if (value == "quarantined") status = JobStatus::kQuarantined;
    } else if (key == "steps") {
      ls >> job.result.steps_done;
    } else if (key == "attempts") {
      ls >> job.result.attempts;
    } else if (key == "kinetic" || key == "potential") {
      // %a hexfloat: istream extraction cannot parse it, strtod can.
      std::string value;
      ls >> value;
      const double parsed = std::strtod(value.c_str(), nullptr);
      (key == "kinetic" ? job.result.final_energies.kinetic
                        : job.result.final_energies.potential) = parsed;
    } else if (key == "error") {
      std::string rest;
      std::getline(ls, rest);
      if (!rest.empty() && rest.front() == ' ') rest.erase(0, 1);
      job.result.error = rest;
    }
  }
  if (!job_finished(status)) return false;  // torn or foreign file: re-run
  job.result.status = status;
  return true;
}

void JobScheduler::ensure_resident(JobState& job) {
  job.last_scheduled = ++schedule_clock_;
  if (job.sim) return;

  // Injection site md.job_spawn: bringing the job's Simulation up fails —
  // allocation pressure, an unreadable checkpoint device.  The proven
  // recovery is supervision: the failure costs one retry (with backoff),
  // and a persistently unspawnable job is quarantined, not the batch.
  if (fault::injected("md.job_spawn")) {
    throw RuntimeFailure("scheduler: injected spawn failure for job '" +
                         job.spec.name + "'");
  }

  const Simulation::Options sim_options =
      simulation_options_from(job.spec.config, options_.pool);

  // A checkpoint generation on disk (latest or rotated) means this job was
  // suspended or is being resumed from a previous batch: restore it
  // bit-exactly instead of starting over.  Config verification (v3) rides
  // the normal resume path, so a manifest edited to different arithmetic
  // fails THIS job loudly rather than silently forking its trajectory.
  const bool has_checkpoint = fs::exists(job.manager.path()) ||
                              fs::exists(job.manager.previous_path());
  if (has_checkpoint) {
    CheckpointLoad loaded = job.manager.load();
    job.sim.emplace(
        Simulation::resume(std::move(loaded.checkpoint), sim_options));
    job.result.resumed = true;
  } else {
    job.sim.emplace(sim_options);
  }
}

void JobScheduler::run_slice(JobState& job, std::uint64_t round) {
  const auto t0 = std::chrono::steady_clock::now();
  try {
    // Deadline budgets gate the slice before any work: slices are metered
    // cumulatively across every process that ran this job (journal-restored
    // total_slices), wall clock per process.
    HealthMonitor::enforce_deadline(job.spec.name, job.result.wall_seconds,
                                    job.deadline_wall_seconds,
                                    job.total_slices, job.slice_budget);
    ensure_resident(job);
    Simulation& sim = *job.sim;
    const long remaining = job.spec.config.steps - sim.current_step();
    if (remaining > 0) {
      sim.run(static_cast<int>(
          std::min<long>(options_.slice_steps, remaining)));
    }
    ++job.result.slices;
    ++job.total_slices;
    job.result.steps_done = sim.current_step();
    job.result.final_energies = sim.last_energies();
    job.result.degraded = sim.degraded();

    // Suspend = checkpoint.  save() perturbs nothing and resuming this file
    // continues the exact trajectory; a transient I/O failure leaves the
    // committed generations intact but means the only up-to-date state is
    // in memory — pin the job resident until a later suspend commits.  A
    // no-op completion slice (journal `done` whose marker never landed)
    // skips the save: the on-disk generation is already final, and
    // re-rotating it would re-open the rename window a kill could land in —
    // leaving a completed job with only a `.prev`.
    if (remaining > 0) {
      try {
        job.manager.save([&](std::ostream& out) { sim.save(out); });
        ++job.result.checkpoint_saves;
        job.pinned = false;
      } catch (const RuntimeFailure&) {
        job.pinned = true;
      }
    }

    JournalRecord rec;
    rec.event = JournalEvent::kSlice;
    rec.job = job.spec.name;
    rec.steps = job.result.steps_done;
    journal_->record(rec);

    if (sim.current_step() >= job.spec.config.steps) complete(job);
  } catch (const DeadlineExceeded& e) {
    // Deadline exhaustion is a policy verdict, not a transient fault:
    // quarantine immediately without spending retry budget.
    quarantine(job, describe(e));
  } catch (const RuntimeFailure& e) {
    supervise_failure(job, e, round);
  }
  job.result.wall_seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
}

// Supervision verdict for a failed slice.  ContractViolation (programming
// error) is deliberately NOT caught anywhere on this path and still aborts
// the whole batch.
void JobScheduler::supervise_failure(JobState& job,
                                     const RuntimeFailure& error,
                                     std::uint64_t round) {
  const RetryState::Verdict verdict = job.retry.on_failure();
  job.result.attempts = verdict.attempts;
  switch (verdict.action) {
    case FailureAction::kRetry: {
      job.result.error = describe(error);
      salvage(job);
      job.retry_waiting = true;
      job.release_round = round + verdict.delay_rounds;
      JournalRecord rec;
      rec.event = JournalEvent::kRetry;
      rec.job = job.spec.name;
      rec.attempt = verdict.attempts;
      rec.delay = verdict.delay_rounds;
      rec.detail = job.result.error;
      journal_->record(rec);
      break;
    }
    case FailureAction::kQuarantine:
      quarantine(job, describe(error));
      break;
    case FailureAction::kFail:
      fail(job, error);
      break;
  }
}

// Preserve the last finite state for post-mortem (or retry) resume, then
// drop residency; never let the rescue attempt mask the original failure.
void JobScheduler::salvage(JobState& job) {
  if (!job.sim) return;
  job.result.steps_done = job.sim->current_step();
  job.result.final_energies = job.sim->last_energies();
  job.result.degraded = job.sim->degraded();
  if (state_is_finite(job.sim->system())) {
    try {
      job.manager.save([&](std::ostream& out) { job.sim->save(out); });
      ++job.result.checkpoint_saves;
    } catch (...) {
    }
  }
  job.sim.reset();
  job.pinned = false;
}

void JobScheduler::complete(JobState& job) {
  job.result.final_state = job.sim->system();
  job.result.error.clear();  // a retried job that recovered is healthy
  JournalRecord rec;
  rec.event = JournalEvent::kDone;
  rec.job = job.spec.name;
  rec.steps = job.result.steps_done;
  journal_->record(rec);
  finish(job, JobStatus::kCompleted);
}

// Fault isolation: any RuntimeFailure — NumericalFailure from the physics
// or the watchdog, a corrupt checkpoint, a config mismatch on resume —
// fails this job only.  Reached when the retry budget is zero (the
// pre-supervision verdict: one failure fails the job).
void JobScheduler::fail(JobState& job, const RuntimeFailure& error) {
  job.result.error = describe(error);
  salvage(job);
  JournalRecord rec;
  rec.event = JournalEvent::kFail;
  rec.job = job.spec.name;
  rec.attempt = job.result.attempts;
  rec.detail = job.result.error;
  journal_->record(rec);
  finish(job, JobStatus::kFailed);
}

// Retry budget or deadline exhausted: set the job aside with its attempt
// history instead of aborting the batch or eating its wall clock forever.
void JobScheduler::quarantine(JobState& job, const std::string& reason) {
  job.result.error = reason;
  salvage(job);
  JournalRecord rec;
  rec.event = JournalEvent::kQuarantine;
  rec.job = job.spec.name;
  rec.attempt = job.result.attempts;
  rec.detail = reason;
  journal_->record(rec);
  finish(job, JobStatus::kQuarantined);
}

void JobScheduler::finish(JobState& job, JobStatus status) {
  job.result.status = status;
  write_marker(job);
  job.sim.reset();
  job.pinned = false;
  job.retry_waiting = false;
}

// Backpressure: evict the least-recently-scheduled unpinned resident until
// at most max_in_flight jobs hold live Simulation state.  Eviction is free
// of information loss — the suspend checkpoint just committed is the exact
// state — it only trades memory for the resume parse on the next slice.
void JobScheduler::evict_over_limit() {
  while (true) {
    std::size_t resident = 0;
    JobState* victim = nullptr;
    for (JobState& job : jobs_) {
      if (!job.sim) continue;
      ++resident;
      if (job.pinned) continue;
      if (!victim || job.last_scheduled < victim->last_scheduled) {
        victim = &job;
      }
    }
    if (resident <= options_.max_in_flight || !victim) return;
    victim->sim.reset();
  }
}

// Fold one job's replayed journal state into its in-memory supervision
// state.  Physics state is NOT taken from the journal — the checkpoint is
// the ground truth there; the journal owns attempt counters, backoff
// position, cumulative slice count and queue recency.
void JobScheduler::reconcile(JobState& job, const ReplayedJob& replayed) {
  job.retry.restore_attempts(replayed.attempts);
  job.result.attempts = replayed.attempts;
  job.result.steps_done = replayed.steps_done;
  job.total_slices = replayed.slices;
  job.last_event = replayed.last_event;
  if (replayed.retrying) {
    // The dead process had this job mid-backoff; serve the full recorded
    // delay from the new batch's round zero.
    job.retry_waiting = true;
    job.release_round = replayed.retry_delay;
    job.result.error = replayed.detail;
  }
}

// Rotate the journal down to one state snapshot per job.  Unfinished jobs
// are emitted least-recently-scheduled first so a replay of the compacted
// segment rebuilds the same round-robin position.
void JobScheduler::compact_journal(std::uint64_t round) {
  std::vector<std::size_t> unfinished;
  std::vector<JournalRecord> snapshot;
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    const JobState& job = jobs_[i];
    if (!job_finished(job.result.status)) {
      unfinished.push_back(i);
      continue;
    }
    JournalRecord admit;
    admit.event = JournalEvent::kAdmit;
    admit.job = job.spec.name;
    admit.priority = job.spec.priority;
    snapshot.push_back(admit);
    JournalRecord terminal;
    terminal.job = job.spec.name;
    terminal.steps = job.result.steps_done;
    terminal.attempt = job.result.attempts;
    terminal.detail = job.result.error;
    terminal.event = job.result.status == JobStatus::kCompleted
                         ? JournalEvent::kDone
                         : job.result.status == JobStatus::kFailed
                               ? JournalEvent::kFail
                               : JournalEvent::kQuarantine;
    snapshot.push_back(terminal);
  }
  std::stable_sort(unfinished.begin(), unfinished.end(),
                   [&](std::size_t a, std::size_t b) {
                     return jobs_[a].last_scheduled < jobs_[b].last_scheduled;
                   });
  for (const std::size_t i : unfinished) {
    const JobState& job = jobs_[i];
    JournalRecord admit;
    admit.event = JournalEvent::kAdmit;
    admit.job = job.spec.name;
    admit.priority = job.spec.priority;
    snapshot.push_back(admit);
    if (job.total_slices > 0) {
      JournalRecord slice;
      slice.event = JournalEvent::kSlice;
      slice.job = job.spec.name;
      slice.steps = job.result.steps_done;
      slice.slices = job.total_slices;
      snapshot.push_back(slice);
    }
    if (job.result.attempts > 0) {
      // Re-arm the retry counter (and any backoff still being served) for
      // a replay of this snapshot; delay 0 means immediately runnable.
      JournalRecord retry;
      retry.event = JournalEvent::kRetry;
      retry.job = job.spec.name;
      retry.attempt = job.result.attempts;
      retry.delay = job.retry_waiting && job.release_round > round
                        ? job.release_round - round
                        : 0;
      retry.detail = job.result.error;
      snapshot.push_back(retry);
    }
  }
  journal_->compact(snapshot);
}

BatchResult JobScheduler::run() {
  EMDPA_REQUIRE(!ran_, "scheduler: run() is callable once");
  ran_ = true;

  // ---- Replay: reconstruct the dead (or previous) batch's supervision
  // state from the journal.
  const BatchJournal::Replay replayed = journal_->replay();

  // ---- Reconcile against the per-job ground truth on disk.
  for (JobState& job : jobs_) {
    const auto it = replayed.jobs.find(job.spec.name);
    const ReplayedJob* from_journal =
        it == replayed.jobs.end() ? nullptr : &it->second;
    if (from_journal != nullptr) reconcile(job, *from_journal);

    // A completion marker from a previous batch over the same checkpoint
    // directory keeps its verdict.
    if (load_marker(job)) {
      job.result.resumed = true;
      continue;
    }
    if (from_journal == nullptr) continue;

    // Journal terminal verdict whose marker never landed (killed between
    // the journal append and the marker write): honour the journal for
    // fail/quarantine — the verdict and its attempt history are exactly
    // what the WAL exists to preserve.  A `done` without a marker instead
    // re-enters the queue and completes in one no-op slice off its final
    // checkpoint, re-deriving the marker energies from the physics state.
    if (from_journal->status == JobStatus::kFailed ||
        from_journal->status == JobStatus::kQuarantined) {
      job.result.status = from_journal->status;
      job.result.error = from_journal->detail;
      write_marker(job);
    }
  }

  // ---- Resume: rebuild the runnable queue in journal-recency order, so
  // the round-robin position survives the crash.  Jobs the journal has
  // never seen sort after every replayed record, in manifest order.
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    if (job_finished(jobs_[i].result.status)) continue;
    JobState& job = jobs_[i];
    if (job.last_event == 0) job.last_event = replayed.records + 1 + i;
    order.push_back(i);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return jobs_[a].last_event < jobs_[b].last_event;
                   });

  journal_->open_for_append();
  JobQueue queue;
  std::vector<std::size_t> waiting;  // mid-backoff, runnable at release_round
  for (const std::size_t idx : order) {
    JobState& job = jobs_[idx];
    if (replayed.jobs.find(job.spec.name) == replayed.jobs.end()) {
      JournalRecord rec;
      rec.event = JournalEvent::kAdmit;
      rec.job = job.spec.name;
      rec.priority = job.spec.priority;
      journal_->record(rec);
    }
    if (job.retry_waiting) waiting.push_back(idx);
    else queue.push(idx, job.spec.priority);
  }

  BatchResult batch;
  std::uint64_t round = 0;
  while (true) {
    // Release backoff waiters that have served their delay, in insertion
    // order (deterministic: insertion follows journal/queue order).
    for (auto it = waiting.begin(); it != waiting.end();) {
      JobState& job = jobs_[*it];
      if (job.release_round <= round) {
        job.retry_waiting = false;
        queue.push(*it, job.spec.priority);
        it = waiting.erase(it);
      } else {
        ++it;
      }
    }
    if (queue.empty()) {
      if (waiting.empty()) break;
      // Everyone runnable is backing off: fast-forward the round counter
      // to the earliest release instead of spinning.
      std::uint64_t earliest = jobs_[waiting.front()].release_round;
      for (const std::size_t idx : waiting) {
        earliest = std::min(earliest, jobs_[idx].release_round);
      }
      round = earliest;
      continue;
    }
    if (options_.stop_requested && options_.stop_requested()) {
      batch.interrupted = true;
      JournalRecord rec;
      rec.event = JournalEvent::kInterrupt;
      journal_->record(rec);
      break;
    }
    ++round;
    JobState& job = jobs_[queue.pop()];
    run_slice(job, round);
    if (!job_finished(job.result.status)) {
      const std::size_t idx = static_cast<std::size_t>(&job - jobs_.data());
      if (job.retry_waiting) waiting.push_back(idx);
      else queue.push(idx, job.spec.priority);
    }
    evict_over_limit();
    if (journal_->over_segment_bound()) compact_journal(round);
  }

  if (batch.interrupted) {
    // Drain: the last slice of every resident job was checkpointed by its
    // suspend, so dropping the in-memory state loses nothing — re-running
    // the batch resumes each interrupted job from its last slice boundary
    // (and the journal replays its retry/backoff position).
    for (JobState& job : jobs_) {
      if (job_finished(job.result.status)) continue;
      job.result.status = JobStatus::kInterrupted;
      job.sim.reset();
    }
  }

  batch.jobs.reserve(jobs_.size());
  for (JobState& job : jobs_) batch.jobs.push_back(std::move(job.result));
  return batch;
}

}  // namespace emdpa::md
