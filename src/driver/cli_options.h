// Command-line parsing for the emdpa CLI — kept in the driver library so
// the parsing logic is unit-testable away from main().
//
// Grammar:
//   emdpa list
//   emdpa run --backend <key> [--atoms N] [--steps K] [--density D]
//             [--temperature T] [--dt DT] [--cutoff C] [--seed S]
//             [--threads N] [--kernel n2|list|auto]
//             [--simd scalar|sse2|avx2|avx512] [--precision dp|sp|mixed]
//             [--csv]
//   emdpa compare [--atoms N] [--steps K] ... (runs every backend)
//   emdpa batch --manifest FILE --checkpoint-dir DIR [--slice N]
//               [--max-in-flight N] [--max-retries N] [--job-deadline S]
//               [--job-slice-budget N] [--journal PATH] [--threads N]
//               [--csv]
//   emdpa bisect --store-dir DIR [--snapshot-every N] [shared opts]
//                [--a-kernel M] [--a-precision M] [--a-simd I]
//                [--a-threads N] [--a-faults SPEC] [--b-...]
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "md/backend.h"
#include "md/precision.h"

namespace emdpa::driver {

enum class CliCommand { kList, kRun, kCompare, kBatch, kBisect, kHelp };

/// Per-side knob overrides for `emdpa bisect` (--a-* / --b-* flags).  Unset
/// members inherit the shared flags, so a pair differing in exactly one knob
/// needs exactly one override.
struct CliBisectSide {
  std::optional<md::HostKernel> kernel;
  std::optional<md::PrecisionMode> precision;
  std::optional<simd::SimdType> simd_isa;
  std::size_t threads = 0;  ///< 0 = inherit --threads
  std::string faults;       ///< EMDPA_FAULTS-style spec armed only for this side
};

struct CliOptions {
  CliCommand command = CliCommand::kHelp;
  std::string backend;        ///< for kRun
  md::RunConfig run_config;   ///< populated from the flags
  bool csv = false;           ///< machine-readable output
  /// Host execution threads (0 = EMDPA_THREADS / hardware default).  Only
  /// affects backends that really execute in parallel (host-parallel, the
  /// Cell SPE workers, the MTA streams).
  std::size_t threads = 0;

  // kBatch: cooperative ensemble scheduling (md/job_scheduler.h).
  std::string manifest_path;     ///< --manifest (required)
  std::string checkpoint_dir;    ///< --checkpoint-dir (required)
  int slice_steps = 100;         ///< --slice: steps per time slice
  std::size_t max_in_flight = 4; ///< --max-in-flight: resident job cap
  int max_retries = 0;           ///< --max-retries: batch-wide retry budget
  double job_deadline = 0.0;     ///< --job-deadline: per-job wall budget (s)
  std::uint64_t job_slice_budget = 0;  ///< --job-slice-budget: slice cap
  std::string journal_path;      ///< --journal (default DIR/batch.wal)

  // kBisect: the two sides' overrides; everything else (workload, steps,
  // store/watch knobs) comes from the shared flags in run_config.
  CliBisectSide bisect_a;
  CliBisectSide bisect_b;
};

/// Parse argv (excluding argv[0]).  Throws RuntimeFailure with a
/// user-actionable message on bad input.
CliOptions parse_cli(const std::vector<std::string>& args);

/// The --help text.
std::string cli_usage();

}  // namespace emdpa::driver
