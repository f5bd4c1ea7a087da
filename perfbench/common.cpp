#include "common.h"

#include <sys/resource.h>
#include <sys/vfs.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>

#include "md/health.h"

namespace perfbench {

namespace fs = std::filesystem;

bool Outcome::check(bool ok, const std::string& what) {
  if (!ok) {
    correct = false;
    failures.push_back(what);
  }
  return ok;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double peak_rss_mb() {
  // VmHWM, not getrusage: ru_maxrss survives exec, so it would report the
  // launching Python process's footprint when that was larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) * 1024.0 / 1e6;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;
}

void reset_peak_rss() {
  std::ofstream("/proc/self/clear_refs") << "5";  // 5: reset VmHWM
}

bool bitwise_equal(double a, double b) {
  std::uint64_t ba = 0;
  std::uint64_t bb = 0;
  std::memcpy(&ba, &a, sizeof(ba));
  std::memcpy(&bb, &b, sizeof(bb));
  return ba == bb;
}

bool energies_equal(const emdpa::md::StepEnergies& a,
                    const emdpa::md::StepEnergies& b) {
  return bitwise_equal(a.kinetic, b.kinetic) &&
         bitwise_equal(a.potential, b.potential);
}

double relative_drift(double e0, double e1) {
  return std::fabs(e1 - e0) / std::fabs(e0);
}

double drift_bound(const Args& args) {
  return args.broken == Break::kDrift ? 0.0 : 1e-2;
}

bool check_final_state(Outcome& out, const Args& args, const std::string& what,
                       emdpa::md::ParticleSystem& system,
                       const emdpa::md::StepEnergies& final_energies,
                       double initial_total) {
  if (args.broken == Break::kNonFinite && !system.velocities().empty()) {
    system.velocities()[0].x = std::numeric_limits<double>::quiet_NaN();
  }
  const bool finite = out.check(emdpa::md::state_is_finite(system) &&
                                    std::isfinite(final_energies.total()),
                                what + ": final state is not finite");
  const double drift = relative_drift(initial_total, final_energies.total());
  const bool bounded = out.check(
      drift < drift_bound(args),
      what + ": energy drift " + std::to_string(drift) + " exceeds bound " +
          std::to_string(drift_bound(args)));
  return finite && bounded;
}

std::string fresh_dir(const Args& args, const std::string& name) {
  const fs::path path = fs::path(args.io_dir) / name;
  fs::remove_all(path);
  fs::create_directories(path);
  return path.string();
}

void remove_dir(const std::string& path) {
  std::error_code ec;
  fs::remove_all(path, ec);
}

std::uint64_t file_bytes(const std::string& path) {
  std::error_code ec;
  const std::uintmax_t size = fs::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(size);
}

std::string filesystem_type(const std::string& path) {
  struct statfs info {};
  if (statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0x01021994ul: return "tmpfs";
    case 0xef53ul: return "ext4";
    case 0x794c7630ul: return "overlay";
    case 0x58465342ul: return "xfs";
    case 0x9123683eul: return "btrfs";
    case 0x6969ul: return "nfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof(hex), "0x%lx",
                    static_cast<unsigned long>(info.f_type));
      return hex;
    }
  }
}

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"atom_steps_per_s", "atom-steps/s"},
      {"step_ms_p50", "ms"},
      {"step_ms_p95", "ms"},
      {"bisect_s", "s"},
      {"peak_rss_mb", "MB"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"list.rebuilds", "count"},
      {"list.build_ms_p50", "ms"},
      {"list.bin_ms_p50", "ms"},
      {"list.fill_ms_p50", "ms"},
      {"list.tests_per_entry", "ratio"},
      {"list.csr_mb", "MB"},
      {"list.share", "ratio"},
      {"sweep.ms_p50", "ms"},
      {"sweep.pairs_per_s", "pairs/s"},
      {"sweep.hit_frac", "ratio"},
      {"sweep.share", "ratio"},
      {"integrate.ms_p50", "ms"},
      {"integrate.share", "ratio"},
      {"list.build_speedup", "ratio"},
      {"sweep.speedup", "ratio"},
      {"integrate.speedup", "ratio"},
      {"ckpt.save_ms_p50", "ms"},
      {"ckpt.load_ms_p50", "ms"},
      {"ckpt.resume_ms_p50", "ms"},
      {"ckpt.mb", "MB"},
      {"ckpt.save_failures", "count"},
      {"sched.slices", "count"},
      {"sched.saves", "count"},
      {"sched.overhead_ms", "ms"},
      {"sched.io_share", "ratio"},
      {"journal.kb", "kB"},
      {"store.key_append_ms_p50", "ms"},
      {"store.delta_append_ms_p50", "ms"},
      {"store.load_step_ms_p50", "ms"},
      {"store.delta_ratio", "ratio"},
      {"store.mb", "MB"},
      {"bisect.replays_per_side", "count"},
      {"bisect.probes", "count"},
      {"bisect.record_share", "ratio"},
      {"trace.overhead_ms", "ms"},
  };
  return specs;
}

}  // namespace perfbench
