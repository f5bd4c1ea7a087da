#include "driver/run_keys.h"

#include <algorithm>
#include <cmath>
#include <string_view>

#include "core/simd_dispatch.h"
#include "md/precision.h"

namespace emdpa::driver {

namespace {

double positive_finite(const std::string& name, double x) {
  if (x > 0.0 && std::isfinite(x)) return x;
  throw RuntimeFailure(name + " must be positive and finite");
}

double non_negative_finite(const std::string& name, double x) {
  if (x >= 0.0 && std::isfinite(x)) return x;
  throw RuntimeFailure(name + " must be non-negative and finite");
}

using Config = md::RunConfig&;
using Text = const std::string&;

struct RunKey {
  std::string_view key;
  void (*apply)(Config c, Text name, Text value);
};

// Each run key's parse, range check and RunConfig field.
constexpr RunKey kRunKeys[] = {
    {"atoms", [](Config c, Text n, Text v) {
       c.workload.n_atoms = positive(n, parse_integer<std::size_t>(n, v)); }},
    {"steps", [](Config c, Text n, Text v) {
       c.steps = positive(n, parse_integer<int>(n, v)); }},
    {"density", [](Config c, Text n, Text v) {
       c.workload.density = positive_finite(n, parse_number(n, v)); }},
    {"temperature", [](Config c, Text n, Text v) {
       c.workload.temperature = non_negative_finite(n, parse_number(n, v)); }},
    {"dt", [](Config c, Text n, Text v) {
       c.dt = positive_finite(n, parse_number(n, v)); }},
    {"cutoff", [](Config c, Text n, Text v) {
       c.lj.cutoff = positive_finite(n, parse_number(n, v)); }},
    {"seed", [](Config c, Text n, Text v) {
       c.workload.seed = parse_integer<std::uint64_t>(n, v); }},
    {"kernel", [](Config c, Text n, Text v) {
       c.host_kernel = parse_named(n, v, parse_kernel); }},
    {"precision", [](Config c, Text n, Text v) {
       c.precision = parse_named(n, v, md::parse_precision); }},
    {"simd", [](Config c, Text n, Text v) {
       c.simd_isa = parse_named(n, v, simd::parse_simd_type); }},
    {"degrade", [](Config c, Text n, Text v) {
       if (v != "0" && v != "1") {
         throw RuntimeFailure(n + " needs 0 or 1, got '" + v + "'");
       }
       c.degrade = v == "1"; }},
    {"drift_tol", [](Config c, Text n, Text v) {
       c.drift_tolerance = positive(n, parse_number(n, v)); }},
};

}  // namespace

bool is_run_key(const std::string& key) {
  return std::ranges::find(kRunKeys, key, &RunKey::key) != std::end(kRunKeys);
}

bool apply_run_key(md::RunConfig& config, const std::string& key,
                   const std::string& name, const std::string& value) {
  const auto entry = std::ranges::find(kRunKeys, key, &RunKey::key);
  if (entry == std::end(kRunKeys)) return false;
  entry->apply(config, name, value);
  return true;
}

double parse_number(const std::string& name, const std::string& value) {
  try {
    std::size_t consumed = 0;
    const double parsed = std::stod(value, &consumed);
    if (consumed == value.size()) return parsed;
  } catch (const std::exception&) {
  }
  throw RuntimeFailure(name + " needs a number, got '" + value + "'");
}

md::HostKernel parse_kernel(const std::string& value) {
  if (value == "n2") return md::HostKernel::kN2;
  if (value == "list") return md::HostKernel::kList;
  if (value == "auto") return md::HostKernel::kAuto;
  throw RuntimeFailure("unknown kernel '" + value +
                       "' (valid: n2, list, auto)");
}

}  // namespace emdpa::driver
