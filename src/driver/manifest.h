// Batch manifest parsing for `emdpa batch` — one job per line, each a full
// per-job run configuration for the cooperative scheduler
// (md/job_scheduler.h).
//
// Grammar (text, line-oriented):
//
//   # comment (blank lines ignored)
//   <name> [key=value ...]
//
// `name` is the unique job identifier (also its checkpoint file stem, so
// [A-Za-z0-9._-] only).  Keys, all optional:
//
//   atoms steps density temperature dt cutoff seed kernel precision simd
//   degrade drift_tol   the run keys (driver/run_keys.h): each parses,
//                       range-checks and defaults exactly like the `run`
//                       flag of the same name (drift_tol is --drift-tol)
//   priority=N          scheduling priority (higher first; default 0)
//   max_retries=N  deadline=S  slice_budget=N
//                       per-job --max-retries, --job-deadline (seconds) and
//                       --job-slice-budget overrides, each >= 0
//
// Errors start with `source:line:` and name the key; duplicate names are
// rejected here
// (and again by the scheduler, for callers that build specs directly).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "md/job_scheduler.h"

namespace emdpa::driver {

/// Parse a manifest stream.  Throws RuntimeFailure with `source` and the
/// line number on malformed input.
std::vector<md::JobSpec> parse_manifest(std::istream& in,
                                        const std::string& source = "manifest");

/// Read and parse a manifest file; throws RuntimeFailure if unreadable.
std::vector<md::JobSpec> load_manifest(const std::string& path);

}  // namespace emdpa::driver
