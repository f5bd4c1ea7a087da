// `emdpa bisect` — differential divergence localisation between two run
// configurations.
//
// Two sides (A and B) share a workload and step count but may differ in any
// arithmetic-determining knob: force kernel, precision mode, SIMD ISA,
// thread count, or an injected fault.  Both sides are run to completion
// once, each recording a time-travel trajectory store (md/trajectory_store.h)
// at the snapshot stride.  Then:
//
//  1. ENDPOINT CHECK — the final snapshots are compared bitwise on
//     positions + velocities (accelerations are derived state, f(positions),
//     so they are excluded from the divergence definition).  Equal means
//     "no divergence" and the search ends.
//  2. BOUNDARY BISECTION — binary search over the recorded snapshot
//     boundaries for the adjacent pair (S_lo, S_hi) with states equal at
//     S_lo and diverged at S_hi.  Each probe restores one stored snapshot
//     per side; at most ceil(log2(steps/stride)) probes.
//  3. WINDOW WALK — both sides are resumed from their S_lo snapshots (the
//     checkpoint's listref section reseeds the exact neighbour list, so the replay
//     continues bit-identically) and stepped through the window, comparing
//     after every step.  The first differing step, the first diverging atom
//     and its absolute / ulp deltas are the result.  One replay per side.
//
// Total replays per side: ceil(log2(steps/stride)) + 1 — the bound the
// bisect self-test asserts.
//
// Per-side fault specs are armed only while that side executes (recording
// AND window walk), so a fault pair like "dp clean vs dp with
// md.step_perturb:137" localises the perturbed step exactly.  Sides should
// only arm STEP-INDEXED sites (md.step_perturb): hit-counter sites fire at
// different points in a replayed window than in the original run.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "md/backend.h"

namespace emdpa::driver {

/// One side of the differential pair.
struct BisectSide {
  /// Full run configuration: workload, steps, kernel/precision/ISA, and the
  /// store knobs (store_every = snapshot stride; store_dir is set by
  /// run_bisect under BisectOptions::store_dir).  `watch`/`watch_stream`
  /// stream observables while the side records.
  md::RunConfig config;
  /// EMDPA_FAULTS-style spec armed only while this side executes ("" = none).
  std::string faults;
  /// Host threads for this side's pool (0 = the shared global pool).
  std::size_t threads = 0;
  std::string label = "a";
};

struct BisectOptions {
  BisectSide a;
  BisectSide b;
  /// Directory the two per-side stores live under (<dir>/a, <dir>/b).
  std::string store_dir;
};

struct BisectReport {
  bool diverged = false;
  /// First step whose post-step positions/velocities differ (>= 1), or -1.
  long first_divergence_step = -1;
  /// Lowest-index atom differing at that step.
  std::size_t atom = 0;
  /// Component of that atom with the largest |delta| ("pos.x" ... "vel.z").
  std::string component;
  double value_a = 0.0;
  double value_b = 0.0;
  double abs_delta = 0.0;
  std::uint64_t ulp_delta = 0;
  /// Largest |delta| / ulp distance over ALL atoms at the divergence step.
  double max_abs_delta = 0.0;
  std::uint64_t max_ulp_delta = 0;

  /// Snapshot-boundary window the walk searched: equal at window_lo,
  /// diverged at window_hi.
  long window_lo = 0;
  long window_hi = 0;
  /// Snapshot restorations per side: bisection probes + the window walk.
  int replays_per_side = 0;
  /// The bound those replays must respect: ceil(log2(steps/stride)) + 1.
  int replay_bound = 0;
  int probes = 0;
  long steps = 0;
  int snapshot_stride = 0;
  std::uint64_t snapshots_per_side = 0;
  std::uint64_t store_bytes_a = 0;
  std::uint64_t store_bytes_b = 0;
  std::string label_a;
  std::string label_b;
  std::string summary_a;  ///< "kernel=... precision=... simd=..." facts
  std::string summary_b;
};

/// ulp distance between two doubles: |rank(a) - rank(b)| under the monotone
/// mapping of IEEE-754 bit patterns to ordered integers.  0 iff bitwise
/// equal (so -0.0 vs +0.0 is 1 ulp apart, and NaNs compare by pattern).
std::uint64_t ulp_distance(double a, double b);

/// Run the full record → endpoint check → bisection → window walk pipeline.
/// Throws RuntimeFailure on configuration errors (mismatched workloads,
/// missing store directory, zero steps).
BisectReport run_bisect(const BisectOptions& options);

/// Human-readable, grep-stable report ("bisect: first divergence at step N"
/// / "bisect: no divergence").
std::string render_bisect_report(const BisectReport& report);

}  // namespace emdpa::driver
