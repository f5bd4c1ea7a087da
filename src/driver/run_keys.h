// The run keys: atoms, steps, density, temperature, dt, cutoff, seed,
// kernel, precision, simd, degrade and drift_tol.  `emdpa run` takes them
// as flags (`--drift-tol` for drift_tol) and `emdpa batch` on manifest
// lines; each is parsed and range-checked once, in run_keys.cpp's table.
// Every parser here names the value in its errors as `name`, the flag or
// key as typed.
#pragma once

#include <charconv>
#include <limits>
#include <string>

#include "core/error.h"
#include "md/backend.h"

namespace emdpa::driver {

/// True for the twelve keys above.
bool is_run_key(const std::string& key);

/// Parse `value` for run key `key`, range-check it and store it in
/// `config`.  Returns false, touching nothing, if `key` is not a run key.
bool apply_run_key(md::RunConfig& config, const std::string& key,
                   const std::string& name, const std::string& value);

/// The whole of `value` as a number, nan and inf included.
double parse_number(const std::string& name, const std::string& value);

/// The whole of `value` as a decimal integer that T holds: no fraction, no
/// exponent, no sign on an unsigned T.
template <typename T>
T parse_integer(const std::string& name, const std::string& value) {
  T parsed{};
  const char* end = value.data() + value.size();
  const auto [stop, error] = std::from_chars(value.data(), end, parsed);
  if (error == std::errc() && stop == end) return parsed;
  throw RuntimeFailure(name + " needs an integer from " +
                       std::to_string(std::numeric_limits<T>::min()) + " to " +
                       std::to_string(std::numeric_limits<T>::max()) +
                       ", got '" + value + "'");
}

template <typename T>
T positive(const std::string& name, T x) {
  if (!(x > T(0))) throw RuntimeFailure(name + " must be positive");
  return x;
}

template <typename T>
T non_negative(const std::string& name, T x) {
  if (!(x >= T(0))) throw RuntimeFailure(name + " must be non-negative");
  return x;
}

/// The host kernel named n2, list or auto.
md::HostKernel parse_kernel(const std::string& value);

/// `parse(value)` (parse_kernel, md::parse_precision, simd::parse_simd_type),
/// its error prefixed with `name`.
template <typename Parse>
auto parse_named(const std::string& name, const std::string& value,
                 Parse parse) {
  try {
    return parse(value);
  } catch (const RuntimeFailure& e) {
    throw RuntimeFailure(name + ": " + e.what());
  }
}

}  // namespace emdpa::driver
