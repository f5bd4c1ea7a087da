#include "driver/manifest.h"

#include <cmath>
#include <fstream>
#include <sstream>

#include "core/error.h"
#include "core/fault_injection.h"
#include "core/simd_dispatch.h"
#include "md/precision.h"

namespace emdpa::driver {

namespace {

[[noreturn]] void fail_at(const std::string& source, int line,
                          const std::string& message) {
  throw RuntimeFailure(source + ":" + std::to_string(line) + ": " + message);
}

double number_value(const std::string& source, int line,
                    const std::string& key, const std::string& value) {
  try {
    std::size_t consumed = 0;
    const double parsed = std::stod(value, &consumed);
    if (consumed != value.size()) throw std::invalid_argument(value);
    return parsed;
  } catch (const std::exception&) {
    fail_at(source, line, "key " + key + " needs a number, got '" + value + "'");
  }
}

long integer_value(const std::string& source, int line, const std::string& key,
                   const std::string& value) {
  const double v = number_value(source, line, key, value);
  const long as_long = static_cast<long>(v);
  if (static_cast<double>(as_long) != v) {
    fail_at(source, line,
            "key " + key + " needs an integer, got '" + value + "'");
  }
  return as_long;
}

void apply_key(md::JobSpec& job, const std::string& source, int line,
               const std::string& key, const std::string& value) {
  md::RunConfig& config = job.config;
  if (key == "priority") {
    job.priority = static_cast<int>(integer_value(source, line, key, value));
  } else if (key == "atoms") {
    const long n = integer_value(source, line, key, value);
    if (n <= 0) fail_at(source, line, "atoms must be positive");
    config.workload.n_atoms = static_cast<std::size_t>(n);
  } else if (key == "steps") {
    const long k = integer_value(source, line, key, value);
    if (k <= 0) fail_at(source, line, "steps must be positive");
    config.steps = static_cast<int>(k);
  } else if (key == "density") {
    config.workload.density = number_value(source, line, key, value);
  } else if (key == "temperature") {
    config.workload.temperature = number_value(source, line, key, value);
  } else if (key == "dt") {
    const double dt = number_value(source, line, key, value);
    if (!(dt > 0.0 && std::isfinite(dt))) {
      fail_at(source, line, "dt must be positive and finite");
    }
    config.dt = dt;
  } else if (key == "cutoff") {
    config.lj.cutoff = number_value(source, line, key, value);
  } else if (key == "seed") {
    config.workload.seed =
        static_cast<std::uint64_t>(integer_value(source, line, key, value));
  } else if (key == "kernel") {
    if (value == "n2") config.host_kernel = md::HostKernel::kN2;
    else if (value == "list") config.host_kernel = md::HostKernel::kList;
    else if (value == "auto") config.host_kernel = md::HostKernel::kAuto;
    else fail_at(source, line, "kernel needs n2, list or auto, got '" + value + "'");
  } else if (key == "precision") {
    try {
      config.precision = md::parse_precision(value);
    } catch (const RuntimeFailure& e) {
      fail_at(source, line, e.what());
    }
  } else if (key == "simd") {
    try {
      config.simd_isa = simd::parse_simd_type(value);
    } catch (const RuntimeFailure& e) {
      fail_at(source, line, e.what());
    }
  } else if (key == "degrade") {
    if (value == "1") config.degrade = true;
    else if (value == "0") config.degrade = false;
    else fail_at(source, line, "degrade needs 0 or 1, got '" + value + "'");
  } else if (key == "drift_tol") {
    const double tol = number_value(source, line, key, value);
    if (tol <= 0) fail_at(source, line, "drift_tol must be positive");
    config.drift_tolerance = tol;
  } else if (key == "max_retries") {
    const long n = integer_value(source, line, key, value);
    if (n < 0) fail_at(source, line, "max_retries must be non-negative");
    job.max_retries = static_cast<int>(n);
  } else if (key == "deadline") {
    const double seconds = number_value(source, line, key, value);
    if (seconds < 0) fail_at(source, line, "deadline must be non-negative");
    job.deadline_seconds = seconds;
  } else if (key == "slice_budget") {
    const long n = integer_value(source, line, key, value);
    if (n < 0) fail_at(source, line, "slice_budget must be non-negative");
    job.slice_budget = static_cast<std::uint64_t>(n);
  } else {
    fail_at(source, line, "unknown key '" + key + "'");
  }
}

}  // namespace

std::vector<md::JobSpec> parse_manifest(std::istream& in,
                                        const std::string& source) {
  // Injection site md.manifest_parse: the manifest is unreadable (device
  // error, permissions race).  The proven recovery is a clean typed failure
  // before any job is admitted — never a half-parsed batch.
  if (fault::injected("md.manifest_parse")) {
    throw RuntimeFailure("manifest: injected read failure on '" + source +
                         "'");
  }
  std::vector<md::JobSpec> jobs;
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    std::istringstream tokens(line);
    std::string name;
    if (!(tokens >> name) || name.front() == '#') continue;

    md::JobSpec job;
    job.name = name;
    for (const md::JobSpec& existing : jobs) {
      if (existing.name == name) {
        fail_at(source, line_number, "duplicate job name '" + name + "'");
      }
    }

    std::vector<std::string> seen_keys;
    std::string pair;
    while (tokens >> pair) {
      const std::size_t eq = pair.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 >= pair.size()) {
        fail_at(source, line_number,
                "expected key=value, got '" + pair + "'");
      }
      const std::string key = pair.substr(0, eq);
      // Reject duplicate keys on one job line: silently honouring the last
      // occurrence turns an editing mistake into a different simulation.
      for (const std::string& seen : seen_keys) {
        if (seen == key) {
          fail_at(source, line_number, "duplicate key '" + key +
                                           "' for job '" + name + "'");
        }
      }
      seen_keys.push_back(key);
      apply_key(job, source, line_number, key, pair.substr(eq + 1));
    }
    jobs.push_back(std::move(job));
  }
  if (jobs.empty()) {
    throw RuntimeFailure(source + ": manifest defines no jobs (" +
                         std::to_string(line_number) +
                         " line(s) of comments/whitespace)");
  }
  return jobs;
}

std::vector<md::JobSpec> load_manifest(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw RuntimeFailure("cannot open manifest '" + path + "'");
  }
  return parse_manifest(in, path);
}

}  // namespace emdpa::driver
