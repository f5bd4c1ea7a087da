#include "driver/cli_options.h"

#include <algorithm>
#include <utility>

#include "core/error.h"
#include "core/simd_dispatch.h"
#include "driver/backend_factory.h"
#include "driver/run_keys.h"
#include "md/watch.h"

namespace emdpa::driver {

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
      "  --atoms N          atom count, > 0 (256)\n"
      "  --steps K          velocity-Verlet steps, > 0 (10)\n"
      "  --density D        reduced number density, > 0 and finite (0.8442)\n"
      "  --temperature T    initial reduced temperature, >= 0 and finite (1.44)\n"
      "  --dt DT            time step, > 0 and finite (0.005)\n"
      "  --cutoff C         LJ cutoff, > 0 and finite (2.5)\n"
      "  --seed S           workload seed, 0 to 2^64-1\n"
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
      "  --store-dir DIR        trajectory store: a ring of CRC-checked full\n"
      "                         snapshots, each restoring its step bit-exactly\n"
      "                         from one file; snapshots are pure observers, the\n"
      "                         run stays bitwise identical with the store on\n"
      "  --snapshot-every N     snapshot stride (step 0 and the final step are\n"
      "                         always stored; default endpoints only)\n"
      "  --store-max-bytes B    disk budget; the oldest snapshots are evicted\n"
      "                         beyond it, never the newest (default unbounded)\n"
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
      "                         temperature, dt, cutoff, seed, kernel, precision,\n"
      "                         simd, degrade, drift_tol, each checked like the\n"
      "                         flag of the same name, plus\n"
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

  // A flag's value is the next argument, unless that is itself a flag.
  auto need_value = [&](const std::string& flag) -> const std::string& {
    if (i >= args.size()) throw RuntimeFailure("flag " + flag + " needs a value");
    if (args[i].starts_with("--")) {
      throw RuntimeFailure("flag " + flag + " needs a value, not the flag " +
                           args[i]);
    }
    return args[i++];
  };
  // Store the flag's integer value, which must be positive, in `field`.
  auto positive_integer = [&]<typename T>(const std::string& flag, T& field) {
    field = positive(flag, parse_integer<T>(flag, need_value(flag)));
  };
  // The bisect side a --a-* or --b-* flag overrides.
  auto side = [&](const std::string& flag) -> CliBisectSide& {
    if (options.command != CliCommand::kBisect) {
      throw RuntimeFailure(
          "--a-*/--b-* side overrides only apply to the 'bisect' command");
    }
    return flag[2] == 'a' ? options.bisect_a : options.bisect_b;
  };

  while (i < args.size()) {
    const std::string& flag = args[i++];
    std::string key = flag.starts_with("--") ? flag.substr(2) : "";
    std::replace(key.begin(), key.end(), '-', '_');  // --drift-tol: drift_tol
    if (flag.find('_') == std::string::npos && is_run_key(key)) {
      apply_run_key(options.run_config, key, flag,
                    key == "degrade" ? "1" : need_value(flag));
    } else if (flag == "--backend") {
      options.backend = need_value(flag);
    } else if (flag == "--threads") {
      positive_integer(flag, options.threads);
    } else if (flag == "--checkpoint") {
      options.run_config.checkpoint_path = need_value(flag);
    } else if (flag == "--checkpoint-every") {
      positive_integer(flag, options.run_config.checkpoint_every);
    } else if (flag == "--resume") {
      options.run_config.resume_path = need_value(flag);
    } else if (flag == "--resume-force") {
      options.run_config.resume_force = true;
    } else if (flag == "--manifest") {
      options.manifest_path = need_value(flag);
    } else if (flag == "--checkpoint-dir") {
      options.checkpoint_dir = need_value(flag);
    } else if (flag == "--slice") {
      positive_integer(flag, options.slice_steps);
    } else if (flag == "--max-in-flight") {
      positive_integer(flag, options.max_in_flight);
    } else if (flag == "--max-retries") {
      options.max_retries =
          non_negative(flag, parse_integer<int>(flag, need_value(flag)));
    } else if (flag == "--job-deadline") {
      options.job_deadline =
          positive(flag, parse_number(flag, need_value(flag)));
    } else if (flag == "--job-slice-budget") {
      positive_integer(flag, options.job_slice_budget);
    } else if (flag == "--journal") {
      options.journal_path = need_value(flag);
    } else if (flag == "--store-dir") {
      options.run_config.store_dir = need_value(flag);
    } else if (flag == "--snapshot-every") {
      positive_integer(flag, options.run_config.store_every);
    } else if (flag == "--store-max-bytes") {
      positive_integer(flag, options.run_config.store_max_bytes);
    } else if (flag == "--watch") {
      options.run_config.watch = need_value(flag);
      md::WatchEmitter::parse_spec(options.run_config.watch);  // validate now
    } else if (flag == "--watch-every") {
      positive_integer(flag, options.run_config.watch_every);
    } else if (flag == "--a-kernel" || flag == "--b-kernel") {
      side(flag).kernel = parse_named(flag, need_value(flag), parse_kernel);
    } else if (flag == "--a-precision" || flag == "--b-precision") {
      side(flag).precision =
          parse_named(flag, need_value(flag), md::parse_precision);
    } else if (flag == "--a-simd" || flag == "--b-simd") {
      side(flag).simd_isa =
          parse_named(flag, need_value(flag), simd::parse_simd_type);
    } else if (flag == "--a-threads" || flag == "--b-threads") {
      positive_integer(flag, side(flag).threads);
    } else if (flag == "--a-faults" || flag == "--b-faults") {
      side(flag).faults = need_value(flag);
    } else if (flag == "--csv") {
      options.csv = true;
    } else {
      throw RuntimeFailure("unknown flag '" + flag + "' (try 'help')");
    }
  }

  if (options.command == CliCommand::kRun && options.backend.empty()) {
    throw RuntimeFailure("'run' needs --backend <key>; see 'emdpa list'");
  }
  // Only host-parallel checkpoints and resumes; any other backend would
  // ignore these flags and exit 0.
  if (options.command == CliCommand::kRun &&
      options.backend != "host-parallel") {
    const md::RunConfig& config = options.run_config;
    const std::pair<bool, const char*> resilience[] = {
        {!config.checkpoint_path.empty(), "--checkpoint"},
        {config.checkpoint_every > 0, "--checkpoint-every"},
        {!config.resume_path.empty(), "--resume"},
        {config.resume_force, "--resume-force"}};
    for (const auto& [set, flag] : resilience) {
      if (set) {
        throw RuntimeFailure(std::string(flag) +
                             " only applies to the 'host-parallel' backend, "
                             "not '" + options.backend + "'");
      }
    }
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
  if (options.command == CliCommand::kBisect &&
      options.run_config.store_dir.empty()) {
    throw RuntimeFailure(
        "'bisect' needs --store-dir <dir> (both sides record their "
        "snapshot stores under it)");
  }
  return options;
}

}  // namespace emdpa::driver
