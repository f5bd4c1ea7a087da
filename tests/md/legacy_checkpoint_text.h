// Format-v4 hexfloat text, as the writer before v5 produced it.  The library
// no longer writes text; the back-compat tests use this to make v4 files
// from live states and check they still load, resume and replay, and the
// hexio tests use its number writers for their round-trips.
#pragma once

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>

#include "core/crc32.h"
#include "md/checkpoint.h"

namespace emdpa::md::testing {

/// Format a double as a hexfloat token ("%a": e.g. "0x1.5bf0a8b145769p+1").
/// Exact for every finite value; -0.0 keeps its sign.
inline std::string format_double(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%a", value);
  return buf;
}

/// Format a u64 as 16 fixed-width lowercase hex digits.
inline std::string format_u64(std::uint64_t value) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, value);
  return buf;
}

inline std::string checkpoint_v4_text(const Checkpoint& cp) {
  auto hex = [](double v) { return format_double(v); };
  std::ostringstream body;
  body << "emdpa-checkpoint 4\n";
  body << "atoms " << cp.system.size() << " mass " << hex(cp.system.mass())
       << " box " << hex(cp.box_edge) << " step " << cp.step << " pe "
       << hex(cp.potential) << '\n';
  if (cp.config) {
    body << "config kernel " << cp.config->kernel << " precision "
         << cp.config->precision << " simd " << cp.config->simd << '\n';
  }
  if (cp.langevin_rng) {
    const Rng::State& rng = *cp.langevin_rng;
    body << "rng langevin " << format_u64(rng.s[0]) << ' '
         << format_u64(rng.s[1]) << ' ' << format_u64(rng.s[2])
         << ' ' << format_u64(rng.s[3]) << ' '
         << hex(rng.cached_gaussian) << ' '
         << (rng.has_cached_gaussian ? 1 : 0) << '\n';
  }
  if (cp.list_ref) {
    body << "listref " << cp.list_ref->size() << " cutoff "
         << hex(cp.list_ref_cutoff) << '\n';
    for (const auto& p : *cp.list_ref) {
      body << hex(p.x) << ' ' << hex(p.y) << ' ' << hex(p.z) << '\n';
    }
  }
  for (std::size_t i = 0; i < cp.system.size(); ++i) {
    const auto& p = cp.system.positions()[i];
    const auto& v = cp.system.velocities()[i];
    const auto& a = cp.system.accelerations()[i];
    body << hex(p.x) << ' ' << hex(p.y) << ' ' << hex(p.z) << ' ' << hex(v.x)
         << ' ' << hex(v.y) << ' ' << hex(v.z) << ' ' << hex(a.x) << ' '
         << hex(a.y) << ' ' << hex(a.z) << '\n';
  }
  return with_crc_footer(body.str());
}

}  // namespace emdpa::md::testing
