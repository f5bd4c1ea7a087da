#include "core/hexio.h"

#include <cmath>
#include <stdexcept>

#include "core/error.h"

namespace emdpa::hexio {

double parse_double(const std::string& token, const char* what) {
  std::size_t consumed = 0;
  double value = 0.0;
  try {
    value = std::stod(token, &consumed);
  } catch (const std::exception&) {
    throw RuntimeFailure(std::string("hexio: malformed ") + what + " '" +
                         token + "'");
  }
  if (consumed != token.size()) {
    throw RuntimeFailure(std::string("hexio: trailing characters in ") + what +
                         " '" + token + "'");
  }
  if (!std::isfinite(value)) {
    throw RuntimeFailure(std::string("hexio: non-finite ") + what + " '" +
                         token + "'");
  }
  return value;
}

std::uint64_t parse_u64(const std::string& token, const char* what) {
  try {
    std::size_t consumed = 0;
    const std::uint64_t value = std::stoull(token, &consumed, 16);
    if (consumed != token.size()) throw std::invalid_argument(token);
    return value;
  } catch (const std::exception&) {
    throw RuntimeFailure(std::string("hexio: malformed ") + what + " '" +
                         token + "'");
  }
}

}  // namespace emdpa::hexio
