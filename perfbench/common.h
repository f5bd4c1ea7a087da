// Shared pieces of the host-path benchmark: arguments, the per-run result
// (metrics plus attempted/failed operation counts and correctness notes),
// order statistics, seed derivation and scratch-directory handling.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "md/integrator.h"
#include "md/particle_system.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// A correctness check the self-tests break on purpose (--break).  Each
/// workload honours the ones that apply to it and ignores the rest.
enum class Break { kNone, kDivergenceStep, kNonFinite, kDrift, kUnfinished };

/// Every timed run makes at least this many operations, so the same-seed
/// determinism checks always run and a median never rests on one or two
/// samples (a localisation takes longer than half of run_seconds).
inline constexpr int kMinOperations = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny sizes so every workload finishes in seconds (--smoke).
  bool smoke = false;
  Break broken = Break::kNone;
  std::size_t threads = 1;
  /// Parent of the per-operation checkpoint and store directories.
  std::string io_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports.  An operation is a step, a batch job or a
/// bisect localisation; it fails when it throws or fails a check.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// False once any check failed, including the ones that are not tied to
  /// a single operation (traced run against untraced run).
  bool correct = true;
  std::vector<Metric> metrics;
  std::vector<std::string> failures;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Record `ok`; a false check marks the run incorrect and keeps `what`.
  bool check(bool ok, const std::string& what);
  /// Count one operation of `weight` units (steps, jobs, localisations).
  void count(bool ok, std::uint64_t weight = 1) {
    attempted += weight;
    if (!ok) failed += weight;
  }
};

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double quantile(std::vector<double> values, double q);
inline double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}
double sum(const std::vector<double>& values);

/// splitmix64 of (seed, stream): independent per-job seeds and the injected
/// divergence step all derive from the one workload seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// Peak resident set of this process since start or reset_peak_rss(), in MB
/// (10^6 bytes).
double peak_rss_mb();
/// Restart the peak measurement, so input generation does not count.
void reset_peak_rss();

bool bitwise_equal(double a, double b);
bool energies_equal(const emdpa::md::StepEnergies& a,
                    const emdpa::md::StepEnergies& b);

/// |E1 - E0| / |E0| on total energy.
double relative_drift(double e0, double e1);

/// Relative total-energy drift a run may show before its check fails: 1%.
/// Every workload starts from a lattice that fills the box exactly (perfect
/// cube atom counts), and over its 10-50 steps drifts 0.25-0.4% for any
/// seed; the plain truncated potential makes the melting lattice drift.
double drift_bound(const Args& args);

/// Physics checks on a finished run's final state: finite state and
/// energies, and drift within drift_bound.  Applies the --break nonfinite /
/// drift sabotage first.  Returns true when every check passed.
bool check_final_state(Outcome& out, const Args& args, const std::string& what,
                       emdpa::md::ParticleSystem& system,
                       const emdpa::md::StepEnergies& final_energies,
                       double initial_total);

/// Remove and recreate `<io_dir>/<name>`; returns its path.
std::string fresh_dir(const Args& args, const std::string& name);
void remove_dir(const std::string& path);
std::uint64_t file_bytes(const std::string& path);

/// Filesystem type of `path` (tmpfs, ext4, overlay, ...), for the result
/// fingerprint: checkpoint and store costs depend on it.
std::string filesystem_type(const std::string& path);

/// Metric names and units every run must report: the end-to-end set with
/// tracing off, the per-layer set with it on.  Must match BENCHMARK.json.
struct MetricSpec {
  const char* name;
  const char* unit;
};
const std::vector<MetricSpec>& end_to_end_metrics();
const std::vector<MetricSpec>& per_layer_metrics();

}  // namespace perfbench
