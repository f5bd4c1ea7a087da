#include "driver/cli_options.h"

#include <charconv>

#include "core/error.h"
#include "core/simd_dispatch.h"
#include "driver/backend_factory.h"
#include "md/precision.h"
#include "md/watch.h"

namespace emdpa::driver {

namespace {

double parse_number(const std::string& flag, const std::string& value) {
  try {
    std::size_t consumed = 0;
    const double parsed = std::stod(value, &consumed);
    if (consumed != value.size()) throw std::invalid_argument(value);
    return parsed;
  } catch (const std::exception&) {
    throw RuntimeFailure("flag " + flag + " needs a number, got '" + value + "'");
  }
}

long parse_integer(const std::string& flag, const std::string& value) {
  const double v = parse_number(flag, value);
  const long as_long = static_cast<long>(v);
  if (static_cast<double>(as_long) != v) {
    throw RuntimeFailure("flag " + flag + " needs an integer, got '" + value + "'");
  }
  return as_long;
}

md::HostKernel parse_host_kernel(const std::string& flag,
                                 const std::string& mode) {
  if (mode == "n2") return md::HostKernel::kN2;
  if (mode == "list") return md::HostKernel::kList;
  if (mode == "auto") return md::HostKernel::kAuto;
  throw RuntimeFailure("flag " + flag + " needs n2, list or auto, got '" +
                       mode + "'");
}

}  // namespace

std::string cli_usage() {
  std::string usage =
      "emdpa — MD on modelled emerging architectures (IPPS 2007 reproduction)\n"
      "\n"
      "Usage:\n"
      "  emdpa list                         list available backends\n"
      "  emdpa run --backend <key> [opts]   run one backend\n"
      "  emdpa compare [opts]               run every backend on one workload\n"
      "  emdpa batch --manifest FILE --checkpoint-dir DIR [opts]\n"
      "                                     run a job manifest cooperatively\n"
      "  emdpa bisect --store-dir DIR [opts] [--a-* --b-* overrides]\n"
      "                                     localise the first diverging step\n"
      "                                     between two run configurations\n"
      "\n"
      "Options (with defaults):\n"
      "  --atoms N          atom count (256)\n"
      "  --steps K          velocity-Verlet steps (10)\n"
      "  --density D        reduced number density (0.8442)\n"
      "  --temperature T    initial reduced temperature (1.44)\n"
      "  --dt DT            time step (0.005)\n"
      "  --cutoff C         LJ cutoff (2.5)\n"
      "  --seed S           workload seed\n"
      "  --threads N        host execution threads (default: EMDPA_THREADS or all cores)\n"
      "  --kernel MODE      host force kernel: n2, list, or auto (crossover on\n"
      "                     atom count); honoured by host-parallel in both run\n"
      "                     and compare mode — device models ignore it\n"
      "  --simd ISA         force the host kernels' instruction set: scalar,\n"
      "                     sse2, avx2 or avx512 (default: EMDPA_SIMD env var,\n"
      "                     else the fastest this CPU supports); errors out if\n"
      "                     the choice is not compiled in or not supported here\n"
      "  --precision MODE   host kernel numerics: dp (double, default), sp\n"
      "                     (float end to end) or mixed (float lanes, double\n"
      "                     accumulation); device models keep their paper-\n"
      "                     mandated precisions\n"
      "  --csv              machine-readable output\n"
      "\n"
      "Resilience (host-parallel backend):\n"
      "  --checkpoint PATH      checkpoint file; written atomically (temp file +\n"
      "                         CRC-32 footer + rename), previous generation kept\n"
      "                         at PATH.prev; also the emergency-checkpoint\n"
      "                         destination on a numerical failure (exit code 3)\n"
      "  --checkpoint-every N   save every N steps (requires --checkpoint);\n"
      "                         a transient write failure retries next interval\n"
      "  --resume PATH          resume from a checkpoint (falls back to\n"
      "                         PATH.prev on corruption); --steps is the TOTAL\n"
      "                         step target, not an increment\n"
      "  --resume-force         resume even when the checkpoint records a\n"
      "                         different kernel/precision/ISA than this run\n"
      "                         (default: mismatch aborts — the arithmetic\n"
      "                         would change and break bitwise resume)\n"
      "  --degrade              on a neighbour-list failure, fall back to the\n"
      "                         reference kernel instead of aborting\n"
      "  --drift-tol X          arm the numerical-health watchdog: relative\n"
      "                         energy drift beyond X aborts with exit code 3\n"
      "  (fault injection is armed via the EMDPA_FAULTS environment variable;\n"
      "   see src/core/fault_injection.h for the site list and spec grammar)\n"
      "  SIGINT/SIGTERM drain cooperatively: the current step (or batch time\n"
      "  slice) finishes, an emergency checkpoint is written, exit code 4.\n"
      "\n"
      "Time travel & bisection (host-parallel backend; `run` and `bisect`):\n"
      "  --store-dir DIR        trajectory store: delta-compressed CRC-checked\n"
      "                         snapshot ring any stored step restores from\n"
      "                         bit-exactly; snapshots are pure observers, the\n"
      "                         run stays bitwise identical with the store on\n"
      "  --snapshot-every N     snapshot stride (step 0 and the final step are\n"
      "                         always stored; default endpoints only)\n"
      "  --keyframe-every K     every K-th snapshot is a full keyframe, the\n"
      "                         rest XOR deltas against the previous one (8)\n"
      "  --store-max-bytes B    disk budget; oldest whole keyframe chains are\n"
      "                         evicted beyond it (default unbounded)\n"
      "  --watch LIST           stream observables as 'watch step=N k=v' lines\n"
      "                         (energy, ke, pe, max_disp; comma-separated)\n"
      "  --watch-every N        watch emission stride (1)\n"
      "  bisect runs the shared workload twice — side a and side b — then\n"
      "  binary-searches the stored snapshots and replays one window to report\n"
      "  the first step, atom and component where the two trajectories'\n"
      "  positions/velocities differ (abs and ulp deltas), in at most\n"
      "  ceil(log2(steps/stride)) + 1 replays per side.  Each side inherits\n"
      "  the shared flags unless overridden:\n"
      "  --a-kernel M / --b-kernel M          n2, list or auto\n"
      "  --a-precision M / --b-precision M    dp, sp or mixed\n"
      "  --a-simd I / --b-simd I              scalar, sse2, avx2, avx512\n"
      "  --a-threads N / --b-threads N        per-side thread count\n"
      "  --a-faults S / --b-faults S          EMDPA_FAULTS-style spec armed\n"
      "                                       only while that side executes\n"
      "                                       (use the step-indexed site\n"
      "                                       md.step_perturb:STEP)\n"
      "  exit code 0 whether or not a divergence exists; the report line\n"
      "  'bisect: first divergence at step N' / 'bisect: no divergence' is\n"
      "  grep-stable\n"
      "\n"
      "Batch mode (supervised ensemble over one shared thread pool):\n"
      "  --manifest FILE        job manifest: one '<name> key=value ...' line\n"
      "                         per job (keys: priority, atoms, steps, density,\n"
      "                         temperature, dt, cutoff, seed, kernel,\n"
      "                         precision, simd, degrade, drift_tol, plus\n"
      "                         per-job supervision overrides max_retries,\n"
      "                         deadline, slice_budget); duplicate job names\n"
      "                         and duplicate keys on one line are rejected\n"
      "  --checkpoint-dir DIR   per-job suspend checkpoints (<name>.ckpt) and\n"
      "                         completion markers (<name>.done); reusing the\n"
      "                         directory resumes the batch recorded in it\n"
      "  --slice N              steps per time slice, also the checkpoint\n"
      "                         cadence (100)\n"
      "  --max-in-flight N      jobs resident in memory at once (4)\n"
      "  --max-retries N        per-job transient-failure budget (0): a failed\n"
      "                         slice costs one retry, re-queued after a\n"
      "                         deterministic decorrelated-jitter backoff; a\n"
      "                         job that exhausts the budget is QUARANTINED\n"
      "                         (set aside with its attempt history) instead\n"
      "                         of aborting the batch; 0 keeps the one-strike\n"
      "                         verdict: first failure fails the job\n"
      "  --job-deadline S       per-job wall-clock budget in seconds (0 = no\n"
      "                         limit); exceeding it quarantines immediately\n"
      "                         without spending retry budget\n"
      "  --job-slice-budget N   per-job cap on total time slices, metered\n"
      "                         cumulatively across reruns via the journal\n"
      "  --journal PATH         write-ahead journal recording every job state\n"
      "                         transition (default DIR/batch.wal); kill the\n"
      "                         batch at any instant and re-running the same\n"
      "                         command replays it — retry counters,\n"
      "                         quarantine verdicts and queue position all\n"
      "                         survive, and no completed work repeats\n"
      "  exit codes: 0 all jobs completed; 3 at least one job failed or was\n"
      "  quarantined (isolated, the rest ran to completion); 4 interrupted by\n"
      "  SIGINT/SIGTERM after a drain — rerun the same command to resume\n"
      "\n"
      "Backends:\n";
  for (const auto& info : available_backends()) {
    usage += "  " + info.key;
    usage.append(info.key.size() < 18 ? 18 - info.key.size() : 1, ' ');
    usage += info.description + "\n";
  }
  return usage;
}

CliOptions parse_cli(const std::vector<std::string>& args) {
  CliOptions options;
  if (args.empty()) return options;  // kHelp

  std::size_t i = 0;
  const std::string& command = args[i++];
  if (command == "list") {
    options.command = CliCommand::kList;
  } else if (command == "run") {
    options.command = CliCommand::kRun;
  } else if (command == "compare") {
    options.command = CliCommand::kCompare;
  } else if (command == "batch") {
    options.command = CliCommand::kBatch;
  } else if (command == "bisect") {
    options.command = CliCommand::kBisect;
  } else if (command == "help" || command == "--help" || command == "-h") {
    options.command = CliCommand::kHelp;
    return options;
  } else {
    throw RuntimeFailure("unknown command '" + command + "' (try 'help')");
  }

  auto need_value = [&](const std::string& flag) -> const std::string& {
    if (i >= args.size()) throw RuntimeFailure("flag " + flag + " needs a value");
    return args[i++];
  };

  while (i < args.size()) {
    const std::string& flag = args[i++];
    if (flag == "--backend") {
      options.backend = need_value(flag);
    } else if (flag == "--atoms") {
      const long n = parse_integer(flag, need_value(flag));
      if (n <= 0) throw RuntimeFailure("--atoms must be positive");
      options.run_config.workload.n_atoms = static_cast<std::size_t>(n);
    } else if (flag == "--steps") {
      const long k = parse_integer(flag, need_value(flag));
      if (k <= 0) throw RuntimeFailure("--steps must be positive");
      options.run_config.steps = static_cast<int>(k);
    } else if (flag == "--density") {
      options.run_config.workload.density = parse_number(flag, need_value(flag));
    } else if (flag == "--temperature") {
      options.run_config.workload.temperature =
          parse_number(flag, need_value(flag));
    } else if (flag == "--dt") {
      options.run_config.dt = parse_number(flag, need_value(flag));
    } else if (flag == "--cutoff") {
      options.run_config.lj.cutoff = parse_number(flag, need_value(flag));
    } else if (flag == "--seed") {
      options.run_config.workload.seed =
          static_cast<std::uint64_t>(parse_integer(flag, need_value(flag)));
    } else if (flag == "--threads") {
      const long t = parse_integer(flag, need_value(flag));
      if (t <= 0) throw RuntimeFailure("--threads must be positive");
      options.threads = static_cast<std::size_t>(t);
    } else if (flag == "--kernel") {
      options.run_config.host_kernel = parse_host_kernel(flag, need_value(flag));
    } else if (flag == "--simd") {
      options.run_config.simd_isa = simd::parse_simd_type(need_value(flag));
    } else if (flag == "--precision") {
      options.run_config.precision = md::parse_precision(need_value(flag));
    } else if (flag == "--checkpoint") {
      options.run_config.checkpoint_path = need_value(flag);
    } else if (flag == "--checkpoint-every") {
      const long n = parse_integer(flag, need_value(flag));
      if (n <= 0) throw RuntimeFailure("--checkpoint-every must be positive");
      options.run_config.checkpoint_every = static_cast<int>(n);
    } else if (flag == "--resume") {
      options.run_config.resume_path = need_value(flag);
    } else if (flag == "--resume-force") {
      options.run_config.resume_force = true;
    } else if (flag == "--manifest") {
      options.manifest_path = need_value(flag);
    } else if (flag == "--checkpoint-dir") {
      options.checkpoint_dir = need_value(flag);
    } else if (flag == "--slice") {
      const long n = parse_integer(flag, need_value(flag));
      if (n <= 0) throw RuntimeFailure("--slice must be positive");
      options.slice_steps = static_cast<int>(n);
    } else if (flag == "--max-in-flight") {
      const long n = parse_integer(flag, need_value(flag));
      if (n <= 0) throw RuntimeFailure("--max-in-flight must be positive");
      options.max_in_flight = static_cast<std::size_t>(n);
    } else if (flag == "--max-retries") {
      const long n = parse_integer(flag, need_value(flag));
      if (n < 0) throw RuntimeFailure("--max-retries must be non-negative");
      options.max_retries = static_cast<int>(n);
    } else if (flag == "--job-deadline") {
      const double seconds = parse_number(flag, need_value(flag));
      if (seconds <= 0) throw RuntimeFailure("--job-deadline must be positive");
      options.job_deadline = seconds;
    } else if (flag == "--job-slice-budget") {
      const long n = parse_integer(flag, need_value(flag));
      if (n <= 0) throw RuntimeFailure("--job-slice-budget must be positive");
      options.job_slice_budget = static_cast<std::uint64_t>(n);
    } else if (flag == "--journal") {
      options.journal_path = need_value(flag);
    } else if (flag == "--store-dir") {
      options.run_config.store_dir = need_value(flag);
    } else if (flag == "--snapshot-every") {
      const long n = parse_integer(flag, need_value(flag));
      if (n <= 0) throw RuntimeFailure("--snapshot-every must be positive");
      options.run_config.store_every = static_cast<int>(n);
    } else if (flag == "--keyframe-every") {
      const long n = parse_integer(flag, need_value(flag));
      if (n <= 0) throw RuntimeFailure("--keyframe-every must be positive");
      options.run_config.store_keyframe_every = static_cast<int>(n);
    } else if (flag == "--store-max-bytes") {
      const long n = parse_integer(flag, need_value(flag));
      if (n <= 0) throw RuntimeFailure("--store-max-bytes must be positive");
      options.run_config.store_max_bytes = static_cast<std::uint64_t>(n);
    } else if (flag == "--watch") {
      options.run_config.watch = need_value(flag);
      md::WatchEmitter::parse_spec(options.run_config.watch);  // validate now
    } else if (flag == "--watch-every") {
      const long n = parse_integer(flag, need_value(flag));
      if (n <= 0) throw RuntimeFailure("--watch-every must be positive");
      options.run_config.watch_every = static_cast<int>(n);
    } else if (flag == "--a-kernel") {
      options.bisect_a.kernel = parse_host_kernel(flag, need_value(flag));
    } else if (flag == "--b-kernel") {
      options.bisect_b.kernel = parse_host_kernel(flag, need_value(flag));
    } else if (flag == "--a-precision") {
      options.bisect_a.precision = md::parse_precision(need_value(flag));
    } else if (flag == "--b-precision") {
      options.bisect_b.precision = md::parse_precision(need_value(flag));
    } else if (flag == "--a-simd") {
      options.bisect_a.simd_isa = simd::parse_simd_type(need_value(flag));
    } else if (flag == "--b-simd") {
      options.bisect_b.simd_isa = simd::parse_simd_type(need_value(flag));
    } else if (flag == "--a-threads") {
      const long t = parse_integer(flag, need_value(flag));
      if (t <= 0) throw RuntimeFailure("--a-threads must be positive");
      options.bisect_a.threads = static_cast<std::size_t>(t);
    } else if (flag == "--b-threads") {
      const long t = parse_integer(flag, need_value(flag));
      if (t <= 0) throw RuntimeFailure("--b-threads must be positive");
      options.bisect_b.threads = static_cast<std::size_t>(t);
    } else if (flag == "--a-faults") {
      options.bisect_a.faults = need_value(flag);
    } else if (flag == "--b-faults") {
      options.bisect_b.faults = need_value(flag);
    } else if (flag == "--degrade") {
      options.run_config.degrade = true;
    } else if (flag == "--drift-tol") {
      const double tol = parse_number(flag, need_value(flag));
      if (tol <= 0) throw RuntimeFailure("--drift-tol must be positive");
      options.run_config.drift_tolerance = tol;
    } else if (flag == "--csv") {
      options.csv = true;
    } else {
      throw RuntimeFailure("unknown flag '" + flag + "' (try 'help')");
    }
  }

  if (options.command == CliCommand::kRun && options.backend.empty()) {
    throw RuntimeFailure("'run' needs --backend <key>; see 'emdpa list'");
  }
  if (options.run_config.checkpoint_every > 0 &&
      options.run_config.checkpoint_path.empty()) {
    throw RuntimeFailure("--checkpoint-every needs --checkpoint <path>");
  }
  if (options.run_config.resume_force &&
      options.run_config.resume_path.empty() &&
      options.command != CliCommand::kBatch) {
    throw RuntimeFailure("--resume-force needs --resume <path>");
  }
  if (options.command == CliCommand::kBatch) {
    if (options.manifest_path.empty()) {
      throw RuntimeFailure("'batch' needs --manifest <file>");
    }
    if (options.checkpoint_dir.empty()) {
      throw RuntimeFailure(
          "'batch' needs --checkpoint-dir <dir> (suspend state lives there)");
    }
  } else if (options.max_retries != 0 || options.job_deadline != 0.0 ||
             options.job_slice_budget != 0 || !options.journal_path.empty()) {
    throw RuntimeFailure(
        "--max-retries/--job-deadline/--job-slice-budget/--journal only "
        "apply to the 'batch' command");
  }
  if (options.run_config.store_every > 0 &&
      options.run_config.store_dir.empty()) {
    throw RuntimeFailure("--snapshot-every needs --store-dir <dir>");
  }
  const auto side_configured = [](const CliBisectSide& side) {
    return side.kernel || side.precision || side.simd_isa ||
           side.threads > 0 || !side.faults.empty();
  };
  if (options.command == CliCommand::kBisect) {
    if (options.run_config.store_dir.empty()) {
      throw RuntimeFailure(
          "'bisect' needs --store-dir <dir> (both sides record their "
          "snapshot stores under it)");
    }
  } else if (side_configured(options.bisect_a) ||
             side_configured(options.bisect_b)) {
    throw RuntimeFailure(
        "--a-*/--b-* side overrides only apply to the 'bisect' command");
  }
  return options;
}

}  // namespace emdpa::driver
