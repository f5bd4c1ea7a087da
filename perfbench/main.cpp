// Host-path benchmark driver: runs ONE workload in this process and prints
// its metrics, a fingerprint of the build and machine, and as the last line
// one JSON object {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench --workload <fluid-100k|paper-n2-8k|ensemble-32k|bisect-32k>
//             --seed N --seconds S --trace 0|1 --io-dir DIR
//             [--smoke] [--break divergence-step|nonfinite|drift|unfinished]
//             [--commit SHA]
//
// run.py builds this binary and starts one process per workload.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "core/simd_dispatch.h"
#include "core/thread_pool.h"
#include "md/simulation.h"
#include "workloads.h"

namespace {

using perfbench::Args;
using perfbench::Break;
using perfbench::Outcome;

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "perfbench: " << error << "\n"
            << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --io-dir DIR [--smoke] [--break CHECK] "
               "[--commit SHA]\n";
  std::exit(2);
}

Break parse_break(const std::string& value) {
  if (value == "divergence-step") return Break::kDivergenceStep;
  if (value == "nonfinite") return Break::kNonFinite;
  if (value == "drift") return Break::kDrift;
  if (value == "unfinished") return Break::kUnfinished;
  usage("unknown --break check '" + value + "'");
}

Args parse_args(int argc, char** argv, std::string& commit) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") args.workload = value;
      else if (flag == "--seed") args.seed = std::stoull(value);
      else if (flag == "--seconds") args.seconds = std::stod(value);
      else if (flag == "--trace") args.trace = std::stoi(value) != 0;
      else if (flag == "--io-dir") args.io_dir = value;
      else if (flag == "--break") args.broken = parse_break(value);
      else if (flag == "--commit") commit = value;
      else usage("unknown flag " + flag);
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + flag);
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  if (args.io_dir.empty()) usage("--io-dir is required");
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  return args;
}

/// Aggregate CPU time counters of the machine (/proc/stat "cpu" line):
/// {steal, total}, in clock ticks.
std::pair<double, double> cpu_ticks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  double field = 0.0, total = 0.0, steal = 0.0;
  for (int i = 0; i < 8 && (stat >> field); ++i) {
    total += field;
    if (i == 7) steal = field;
  }
  return {steal, total};
}

std::string fingerprint(const Args& args, const std::string& commit,
                        double steal_share) {
  // The dispatched ISA as Simulation reports it, from a throwaway instance.
  emdpa::md::Simulation::Options probe;
  probe.workload.n_atoms = 64;
  probe.kernel = emdpa::md::SimKernel::kSoaN2;
  const emdpa::md::Simulation sim(probe);
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  std::ostringstream out;
  out << "commit=" << commit << " compiler=" << PERFBENCH_COMPILER
      << " build=" << PERFBENCH_BUILD_TYPE
      << " nproc=" << std::thread::hardware_concurrency()
      << " threads=" << args.threads << " isa="
      << (sim.simd_isa() ? emdpa::simd::to_string(*sim.simd_isa()) : "none")
      << " l3_bytes=" << l3
      << " io_fs=" << perfbench::filesystem_type(args.io_dir)
      << " steal=" << steal_share;
  return out.str();
}

std::string number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0.0);
  return buf;
}

/// Order the metrics as declared, fill in those of layers this workload
/// does not exercise (0), and insist that nothing undeclared, duplicated or
/// (end-to-end) missing is reported.
void complete_metrics(Outcome& out, bool trace) {
  const auto& specs = trace ? perfbench::per_layer_metrics()
                            : perfbench::end_to_end_metrics();
  std::vector<perfbench::Metric> ordered;
  std::size_t found = 0;
  for (const auto& spec : specs) {
    const auto it = std::find_if(
        out.metrics.begin(), out.metrics.end(),
        [&](const perfbench::Metric& m) { return m.name == spec.name; });
    if (it != out.metrics.end()) {
      ordered.push_back(*it);
      ++found;
    } else if (trace) {
      ordered.push_back({spec.name, 0.0, spec.unit});
    } else {
      throw std::logic_error(std::string("end-to-end metric missing: ") +
                             spec.name);
    }
  }
  if (found != out.metrics.size()) {
    throw std::logic_error("undeclared or duplicate metric reported");
  }
  out.metrics = std::move(ordered);
}

void print(const Outcome& out) {
  for (const auto& m : out.metrics) {
    std::cout << "metric " << m.name << " = " << number(m.value) << " "
              << m.unit << "\n";
  }
  const double failed_frac =
      out.attempted > 0
          ? static_cast<double>(out.failed) / static_cast<double>(out.attempted)
          : 1.0;
  std::cout << "failed_frac = " << number(failed_frac) << " (" << out.failed
            << " of " << out.attempted << " operations)\n";
  const std::size_t shown = std::min<std::size_t>(out.failures.size(), 20);
  for (std::size_t i = 0; i < shown; ++i) {
    std::cout << "check failed: " << out.failures[i] << "\n";
  }
  if (shown < out.failures.size()) {
    std::cout << "check failed: ... " << out.failures.size() - shown
              << " more\n";
  }
  std::cout << "{\"correct\": " << (out.correct ? "true" : "false")
            << ", \"attempted\": " << out.attempted
            << ", \"failed\": " << out.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const auto& m = out.metrics[i];
    std::cout << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
              << number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  std::string commit = "unknown";
  Args args = parse_args(argc, argv, commit);
  args.threads = std::min<std::size_t>(
      std::max(1u, std::thread::hardware_concurrency()), 4);
  if (!emdpa::ThreadPool::configure_global(args.threads)) {
    std::cerr << "perfbench: the global thread pool already exists\n";
    return 1;
  }

  // The share of CPU time the hypervisor took from this machine during the
  // run: the main source of run-to-run spread on shared virtual machines.
  const auto [steal0, total0] = cpu_ticks();
  Outcome out;
  try {
    std::filesystem::create_directories(args.io_dir);
    if (args.workload == "fluid-100k") {
      out = perfbench::run_simulation(args, /*list_kernel=*/true);
    } else if (args.workload == "paper-n2-8k") {
      out = perfbench::run_simulation(args, /*list_kernel=*/false);
    } else if (args.workload == "ensemble-32k") {
      out = perfbench::run_ensemble(args);
    } else if (args.workload == "bisect-32k") {
      out = perfbench::run_bisection(args);
    } else {
      usage("unknown workload '" + args.workload + "'");
    }
    complete_metrics(out, args.trace);
  } catch (const std::exception& e) {
    // A failure outside any counted operation: no trustworthy result.
    std::cerr << "perfbench: " << args.workload << ": " << e.what() << "\n";
    return 1;
  }
  const auto [steal1, total1] = cpu_ticks();
  const double steal_share =
      total1 > total0 ? (steal1 - steal0) / (total1 - total0) : 0.0;
  std::cout << "perfbench: workload " << args.workload << " seed " << args.seed
            << " trace " << args.trace << (args.smoke ? " smoke" : "") << "\n"
            << "fingerprint: " << fingerprint(args, commit, steal_share)
            << "\n";
  print(out);
  return 0;
}
