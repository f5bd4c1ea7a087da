// ensemble-32k: md::JobScheduler over six 32k-atom list-kernel jobs with
// 10-step slices and two jobs in flight, so every slice saves a checkpoint
// and the job's next slice loads it back and resumes.
//
// Timed run: whole batches in fresh checkpoint directories until --seconds
// have passed (at least kMinOperations).  The makespan is the time of
// JobScheduler::run().
//
// Traced run: one batch for the scheduler and journal counters, then a
// replica of job 0 that drives the same save / load / resume cycle through
// the public checkpoint calls and times each.  The replica must end on the
// scheduler's job-0 energies bitwise.
#include <optional>

#include "core/thread_pool.h"
#include "md/checkpoint_manager.h"
#include "md/job_scheduler.h"
#include "md/simulation.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace md = emdpa::md;

struct EnsembleSpec {
  int jobs = 0;
  std::size_t atoms = 0;
  int steps = 0;  ///< per job
  int slice = 0;
  std::size_t max_in_flight = 0;
};

EnsembleSpec spec_for(const Args& args) {
  return args.smoke ? EnsembleSpec{6, 1728, 20, 10, 2}    // 12^3
                    : EnsembleSpec{6, 32768, 20, 10, 2};  // 32^3
}

std::vector<md::JobSpec> make_jobs(const EnsembleSpec& spec, const Args& args) {
  std::vector<md::JobSpec> jobs;
  for (int i = 0; i < spec.jobs; ++i) {
    md::JobSpec job;
    job.name = "job" + std::to_string(i);
    job.config.workload.n_atoms = spec.atoms;
    job.config.workload.seed = derive_seed(args.seed, 100 + i);
    job.config.steps = spec.steps;
    job.config.host_kernel = md::HostKernel::kList;
    jobs.push_back(job);
  }
  return jobs;
}

md::SchedulerOptions scheduler_options(const EnsembleSpec& spec,
                                       const Args& args,
                                       const std::string& dir) {
  md::SchedulerOptions options;
  options.slice_steps = spec.slice;
  options.max_in_flight = spec.max_in_flight;
  options.checkpoint_dir = dir;
  options.pool = &emdpa::ThreadPool::global();
  if (args.broken == Break::kUnfinished) {
    // Drain after three slices: the remaining jobs end interrupted.
    options.stop_requested = [polls = 0]() mutable { return ++polls > 3; };
  }
  return options;
}

/// Per-job completion and physics checks on one batch; each job is one
/// counted operation.
void check_batch(Outcome& out, const Args& args, const std::string& batch,
                md::BatchResult& result, const std::vector<double>& e0,
                std::vector<md::StepEnergies>& reference) {
  for (std::size_t i = 0; i < result.jobs.size(); ++i) {
    md::JobResult& job = result.jobs[i];
    const std::string what = batch + " " + job.name;
    bool ok = out.check(job.status == md::JobStatus::kCompleted &&
                            job.steps_done == job.steps_target,
                        what + ": ended " + md::to_string(job.status) +
                            " at step " + std::to_string(job.steps_done) +
                            " of " + std::to_string(job.steps_target));
    if (ok) {
      ok = check_final_state(out, args, what, job.final_state,
                             job.final_energies, e0[i]);
      if (reference.size() <= i) reference.push_back(job.final_energies);
      ok = out.check(energies_equal(reference[i], job.final_energies),
                     what + ": final energies differ from the first batch "
                            "of the same seed") &&
           ok;
    }
    out.count(ok);
  }
}

/// Set-up samples (scheduler construction plus the first Simulation it
/// would bring up), one per job; also yields every job's initial energy.
std::vector<double> setup_samples(const EnsembleSpec& spec, const Args& args,
                                  const std::vector<md::JobSpec>& jobs,
                                  std::vector<double>& e0) {
  std::vector<double> setup_s;
  for (const md::JobSpec& job : jobs) {
    const std::string dir = fresh_dir(args, "setup");
    const auto t0 = Clock::now();
    md::JobScheduler scheduler(jobs, scheduler_options(spec, args, dir));
    md::Simulation sim(md::simulation_options_from(
        job.config, &emdpa::ThreadPool::global()));
    setup_s.push_back(seconds_since(t0));
    e0.push_back(sim.last_energies().total());
    remove_dir(dir);
  }
  return setup_s;
}

Outcome timed_run(const Args& args, const EnsembleSpec& spec) {
  Outcome out;
  const std::vector<md::JobSpec> jobs = make_jobs(spec, args);
  std::vector<double> e0;
  const std::vector<double> setup_s = setup_samples(spec, args, jobs, e0);

  std::vector<double> makespans, throughput, step_ms;
  std::vector<md::StepEnergies> reference;
  const auto start = Clock::now();
  for (int b = 0;
       b < kMinOperations || seconds_since(start) < args.seconds; ++b) {
    const std::string batch = "batch " + std::to_string(b);
    const std::string dir = fresh_dir(args, "batch");
    try {
      md::JobScheduler scheduler(jobs, scheduler_options(spec, args, dir));
      const auto t0 = Clock::now();
      md::BatchResult result = scheduler.run();
      const double makespan = seconds_since(t0);
      makespans.push_back(makespan);
      throughput.push_back(static_cast<double>(spec.atoms) * spec.jobs *
                           spec.steps / makespan);
      for (const md::JobResult& job : result.jobs) {
        if (job.steps_done > 0) {
          step_ms.push_back(job.wall_seconds * 1e3 /
                            static_cast<double>(job.steps_done));
        }
      }
      check_batch(out, args, batch, result, e0, reference);
    } catch (const std::exception& e) {
      out.check(false, batch + ": " + e.what());
      out.count(false, static_cast<std::uint64_t>(spec.jobs));
    }
    remove_dir(dir);
  }
  out.metric("setup_s", median(setup_s), "s");
  out.metric("atom_steps_per_s", median(throughput), "atom-steps/s");
  // A job's slice wall time (stepping plus its checkpoint save, load and
  // resume) per step it completed.
  out.metric("step_ms_p50", median(step_ms), "ms");
  out.metric("step_ms_p95", quantile(step_ms, 0.95), "ms");
  // No localisation here: the batch is this workload's operation.
  out.metric("bisect_s", median(makespans), "s");
  out.metric("peak_rss_mb", peak_rss_mb(), "MB");
  return out;
}

Outcome traced_run(const Args& args, const EnsembleSpec& spec) {
  Outcome out;
  const std::vector<md::JobSpec> jobs = make_jobs(spec, args);
  std::vector<double> e0;
  setup_samples(spec, args, jobs, e0);

  // One scheduler batch: slice, save and journal counters.
  const std::string dir = fresh_dir(args, "batch");
  md::JobScheduler scheduler(jobs, scheduler_options(spec, args, dir));
  const auto t0 = Clock::now();
  md::BatchResult result = scheduler.run();
  const double makespan = seconds_since(t0);
  const double journal_kb = file_bytes(dir + "/batch.wal") / 1024.0;
  const double ckpt_mb = file_bytes(dir + "/job0.ckpt") / 1e6;
  remove_dir(dir);
  std::vector<md::StepEnergies> reference;
  check_batch(out, args, "traced batch", result, e0, reference);

  double wall_total = 0.0;
  std::uint64_t slices = 0, saves = 0;
  for (const md::JobResult& job : result.jobs) {
    wall_total += job.wall_seconds;
    slices += job.slices;
    saves += job.checkpoint_saves;
  }

  // Replica of job 0's slices: run a slice, save, drop the state, load,
  // resume — what the scheduler does to a job that is evicted between slices.
  const std::string replica_dir = fresh_dir(args, "replica");
  const md::Simulation::Options options = md::simulation_options_from(
      jobs[0].config, &emdpa::ThreadPool::global());
  md::CheckpointManager manager(replica_dir + "/job0.ckpt");
  std::vector<double> save_ms, load_ms, resume_ms;
  const auto r0 = Clock::now();
  std::optional<md::Simulation> sim;
  sim.emplace(options);
  while (true) {
    sim->run(static_cast<int>(
        std::min<long>(spec.slice, spec.steps - sim->current_step())));
    auto t = Clock::now();
    manager.save([&](std::ostream& os) { sim->save(os); });
    save_ms.push_back(seconds_since(t) * 1e3);
    if (sim->current_step() >= spec.steps) break;
    sim.reset();
    t = Clock::now();
    md::CheckpointLoad loaded = manager.load();
    load_ms.push_back(seconds_since(t) * 1e3);
    t = Clock::now();
    sim.emplace(md::Simulation::resume(std::move(loaded.checkpoint), options));
    resume_ms.push_back(seconds_since(t) * 1e3);
  }
  const double replica_s = seconds_since(r0);
  remove_dir(replica_dir);
  const bool same = out.check(
      energies_equal(sim->last_energies(), result.jobs[0].final_energies),
      "traced replica of job0 ends on different energies than the "
      "scheduler's job0");
  out.count(same);

  const double io_ms = sum(save_ms) + sum(load_ms) + sum(resume_ms);
  out.metric("ckpt.save_ms_p50", median(save_ms), "ms");
  out.metric("ckpt.load_ms_p50", median(load_ms), "ms");
  out.metric("ckpt.resume_ms_p50", median(resume_ms), "ms");
  out.metric("ckpt.mb", ckpt_mb, "MB");
  // A failed job's salvage save has no slice of its own, so saves can
  // exceed slices.
  out.metric("ckpt.save_failures",
             static_cast<double>(slices > saves ? slices - saves : 0), "count");
  out.metric("sched.slices", static_cast<double>(slices), "count");
  out.metric("sched.saves", static_cast<double>(saves), "count");
  out.metric("sched.overhead_ms", (makespan - wall_total) * 1e3, "ms");
  out.metric("sched.io_share", io_ms / 1e3 / replica_s, "ratio");
  out.metric("journal.kb", journal_kb, "kB");
  out.metric("trace.overhead_ms",
             (replica_s - result.jobs[0].wall_seconds) * 1e3, "ms");
  return out;
}

}  // namespace

Outcome run_ensemble(const Args& args) {
  const EnsembleSpec spec = spec_for(args);
  return args.trace ? traced_run(args, spec) : timed_run(args, spec);
}

}  // namespace perfbench
