// The run keys: `emdpa run` flags and `emdpa batch` manifest lines parse and
// range-check each shared key the same way, and integers parse exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/error.h"
#include "driver/cli_options.h"
#include "driver/manifest.h"

namespace emdpa::driver {
namespace {

md::JobSpec parse_job(const std::string& line) {
  std::istringstream in(line + "\n");
  return parse_manifest(in, "test").at(0);
}

// The message parse_cli throws for `args`, or "" if it parses.
std::string cli_error(std::vector<std::string> args) {
  try {
    parse_cli(args);
    return "";
  } catch (const RuntimeFailure& e) {
    return e.what();
  }
}

std::string manifest_error(const std::string& text) {
  try {
    std::istringstream in(text);
    parse_manifest(in, "test");
    return "";
  } catch (const RuntimeFailure& e) {
    return e.what();
  }
}

std::string flag_of(std::string key) {
  std::replace(key.begin(), key.end(), '_', '-');
  return "--" + key;
}

struct KeyRow {
  std::string key;
  std::string value;
  bool good;
};

const std::vector<KeyRow> kRows = {
    {"atoms", "512", true},         {"atoms", "0", false},
    {"atoms", "-4", false},         {"atoms", "2.5", false},
    {"atoms", "1e3", false},        {"steps", "200", true},
    {"steps", "2147483647", true},  {"steps", "0", false},
    {"steps", "3000000000", false}, {"steps", "ten", false},
    {"steps", "2.5", false},        {"steps", "1e30", false},
    {"steps", "1e3", false},        {"density", "0.9", true},
    {"density", "0", false},        {"density", "-0.8", false},
    {"density", "nan", false},      {"density", "inf", false},
    {"temperature", "1.2", true},   {"temperature", "0", true},
    {"temperature", "-1", false},   {"temperature", "nan", false},
    {"temperature", "inf", false},  {"dt", "0.002", true},
    {"dt", "0", false},             {"dt", "nan", false},
    {"cutoff", "3.0", true},        {"cutoff", "0", false},
    {"cutoff", "-1", false},        {"cutoff", "nan", false},
    {"cutoff", "inf", false},       {"seed", "42", true},
    {"seed", "9007199254740993", true},
    {"seed", "18446744073709551615", true},
    {"seed", "18446744073709551616", false},
    {"seed", "-1", false},          {"seed", "2.5", false},
    {"kernel", "list", true},       {"kernel", "cuda", false},
    {"precision", "mixed", true},   {"precision", "fp16", false},
    {"simd", "sse2", true},         {"simd", "altivec", false},
    {"degrade", "1", true},         {"drift_tol", "0.05", true},
    {"drift_tol", "0", false},      {"drift_tol", "-1", false},
    {"drift_tol", "nan", false},
};

TEST(RunKeys, CliAndManifestAgreeOnEveryRow) {
  for (const KeyRow& row : kRows) {
    SCOPED_TRACE(row.key + "=" + row.value);
    std::vector<std::string> args = {"run", "--backend", "host",
                                     flag_of(row.key)};
    if (row.key != "degrade") args.push_back(row.value);
    const std::string line = "job " + row.key + "=" + row.value;
    if (!row.good) {
      const std::string cli = cli_error(args);
      const std::string manifest = manifest_error(line + "\n");
      EXPECT_NE(cli.find(flag_of(row.key)), std::string::npos) << cli;
      EXPECT_NE(manifest.find("test:1: " + row.key), std::string::npos)
          << manifest;
      continue;
    }
    const std::string cli_failure = cli_error(args);
    const std::string manifest_failure = manifest_error(line + "\n");
    if (!cli_failure.empty() || !manifest_failure.empty()) {
      ADD_FAILURE() << "rejected: '" << cli_failure << "' / '"
                    << manifest_failure << "'";
      continue;
    }
    const md::RunConfig cli = parse_cli(args).run_config;
    const md::RunConfig manifest = parse_job(line).config;
    EXPECT_EQ(cli.workload.n_atoms, manifest.workload.n_atoms);
    EXPECT_EQ(cli.steps, manifest.steps);
    EXPECT_EQ(cli.workload.density, manifest.workload.density);
    EXPECT_EQ(cli.workload.temperature, manifest.workload.temperature);
    EXPECT_EQ(cli.dt, manifest.dt);
    EXPECT_EQ(cli.lj.cutoff, manifest.lj.cutoff);
    EXPECT_EQ(cli.workload.seed, manifest.workload.seed);
    EXPECT_EQ(cli.host_kernel, manifest.host_kernel);
    EXPECT_EQ(cli.precision, manifest.precision);
    EXPECT_EQ(cli.simd_isa, manifest.simd_isa);
    EXPECT_EQ(cli.degrade, manifest.degrade);
    EXPECT_EQ(cli.drift_tolerance, manifest.drift_tolerance);
  }
}

TEST(RunKeys, IntegersParseExactly) {
  const auto seed = [](const char* value) {
    return parse_cli({"run", "--backend", "host", "--seed", value})
        .run_config.workload.seed;
  };
  EXPECT_EQ(seed("9007199254740993"), 9007199254740993u);
  EXPECT_EQ(seed("18446744073709551615"), UINT64_MAX);
  EXPECT_EQ(parse_job("job seed=9007199254740993").config.workload.seed,
            9007199254740993u);
  EXPECT_EQ(parse_cli({"run", "--backend", "host", "--steps", "2147483647"})
                .run_config.steps,
            2147483647);
}

TEST(RunKeys, CliOnlyIntegersRejectValuesTheirFieldCannotHold) {
  const std::vector<std::vector<std::string>> probes = {
      {"run", "--backend", "host", "--checkpoint", "c", "--checkpoint-every",
       "4294967297"},
      {"run", "--backend", "host", "--watch", "energy", "--watch-every",
       "4294967297"},
      {"run", "--backend", "host", "--store-dir", "d", "--snapshot-every",
       "4294967297"},
      {"run", "--backend", "host", "--store-dir", "d", "--store-max-bytes",
       "18446744073709551616"},
      {"run", "--backend", "host", "--threads", "-1"},
      {"run", "--backend", "host", "--threads", "1e3"},
      {"batch", "--manifest", "m", "--checkpoint-dir", "c", "--slice",
       "4294967297"},
      {"batch", "--manifest", "m", "--checkpoint-dir", "c", "--max-in-flight",
       "-2"},
      {"batch", "--manifest", "m", "--checkpoint-dir", "c", "--max-retries",
       "2147483648"},
      {"batch", "--manifest", "m", "--checkpoint-dir", "c",
       "--job-slice-budget", "-1"},
      {"bisect", "--store-dir", "d", "--a-threads", "2.5"},
  };
  for (const auto& args : probes) {
    const std::string flag = args[args.size() - 2];
    SCOPED_TRACE(flag + " " + args.back());
    const std::string error = cli_error(args);
    EXPECT_NE(error.find(flag), std::string::npos) << error;
  }
}

TEST(RunKeys, ManifestOnlyIntegersRejectValuesTheirFieldCannotHold) {
  for (const char* pair : {"priority=3000000000", "max_retries=4294967296",
                           "slice_budget=-3", "slice_budget=1e3"}) {
    SCOPED_TRACE(pair);
    const std::string error = manifest_error(std::string("job ") + pair);
    const std::string key(pair, std::string(pair).find('='));
    EXPECT_NE(error.find("test:1: " + key), std::string::npos) << error;
  }
  const md::JobSpec job =
      parse_job("job priority=-7 slice_budget=18446744073709551615");
  EXPECT_EQ(job.priority, -7);
  EXPECT_EQ(job.slice_budget, UINT64_MAX);
}

TEST(RunKeys, OneBadManifestLineFailsTheWholeParse) {
  const std::string error =
      manifest_error("good atoms=256\nbad density=0\nlater steps=5\n");
  EXPECT_NE(error.find("test:2: density"), std::string::npos) << error;
}

TEST(RunKeys, RunKeysAreNotCliFlagsUnderOtherSpellings) {
  EXPECT_NE(cli_error({"run", "--backend", "host", "--drift_tol", "0.1"})
                .find("unknown flag"),
            std::string::npos);
  EXPECT_NE(manifest_error("job drift-tol=0.1").find("unknown key"),
            std::string::npos);
  EXPECT_NE(cli_error({"run", "--backend", "host", "--priority", "1"})
                .find("unknown flag"),
            std::string::npos);
}

}  // namespace
}  // namespace emdpa::driver
