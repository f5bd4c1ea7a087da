#include "driver/manifest.h"

#include <fstream>
#include <set>
#include <sstream>

#include "core/error.h"
#include "core/fault_injection.h"
#include "driver/run_keys.h"

namespace emdpa::driver {

namespace {

// Run keys parse exactly like the `run` flags of the same name; the rest
// are the manifest's own.
void apply_key(md::JobSpec& job, const std::string& key,
               const std::string& value) {
  if (apply_run_key(job.config, key, key, value)) return;
  if (key == "priority") {
    job.priority = parse_integer<int>(key, value);
  } else if (key == "max_retries") {
    job.max_retries = non_negative(key, parse_integer<int>(key, value));
  } else if (key == "deadline") {
    job.deadline_seconds = non_negative(key, parse_number(key, value));
  } else if (key == "slice_budget") {
    job.slice_budget = parse_integer<std::uint64_t>(key, value);
  } else {
    throw RuntimeFailure("unknown key '" + key + "'");
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
    try {
      for (const md::JobSpec& existing : jobs) {
        if (existing.name == name) {
          throw RuntimeFailure("duplicate job name '" + name + "'");
        }
      }
      std::set<std::string> seen_keys;
      std::string pair;
      while (tokens >> pair) {
        const std::size_t eq = pair.find('=');
        if (eq == std::string::npos || eq == 0 || eq + 1 >= pair.size()) {
          throw RuntimeFailure("expected key=value, got '" + pair + "'");
        }
        const std::string key = pair.substr(0, eq);
        // Reject duplicate keys on one job line: silently honouring the last
        // occurrence turns an editing mistake into a different simulation.
        if (!seen_keys.insert(key).second) {
          throw RuntimeFailure("duplicate key '" + key + "' for job '" +
                               name + "'");
        }
        apply_key(job, key, pair.substr(eq + 1));
      }
    } catch (const RuntimeFailure& e) {
      throw RuntimeFailure(source + ":" + std::to_string(line_number) + ": " +
                           e.what());
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
