// Format-v4 hexfloat text, as the writer before v5 produced it.  The library
// no longer writes text; the back-compat tests use this to make v4 files
// from live states and check they still load, resume and replay.
#pragma once

#include <sstream>
#include <string>

#include "core/crc32.h"
#include "core/hexio.h"
#include "md/checkpoint.h"

namespace emdpa::md::testing {

inline std::string checkpoint_v4_text(const Checkpoint& cp) {
  auto hex = [](double v) { return hexio::format_double(v); };
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
    body << "rng langevin " << hexio::format_u64(rng.s[0]) << ' '
         << hexio::format_u64(rng.s[1]) << ' ' << hexio::format_u64(rng.s[2])
         << ' ' << hexio::format_u64(rng.s[3]) << ' '
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
