// Shared randomized-workload recipes for the neighbour-list property
// harnesses: neighbor_property_test.cpp and list_fill_identity_test.cpp run
// over the SAME 50 seeded configs, so the SIMD fill is checked on exactly
// the population the list is already proven against.
//
// Everything is seeded: a failure reproduces from the config index alone.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "core/random.h"
#include "md/workload.h"

namespace emdpa::md {

struct PropertyConfig {
  std::size_t index = 0;
  std::size_t n_atoms = 0;
  double density = 0;
  double temperature = 0;
  double cutoff = 0;
  double skin = 0;
  bool degenerate = false;  ///< box barely wider than 2*(cutoff+skin)
};

/// Deterministically expand a config index into a workload recipe.  Most
/// configs are small (fast reference comparison); every 10th is large
/// (4k–20k atoms, where the parallel binning actually has work to do);
/// every 7th shrinks the box until the all-pairs fallback engages.
inline PropertyConfig make_config(std::size_t index) {
  Rng rng(0xC0FFEEull * (index + 1) + index);
  static constexpr std::size_t kSmall[] = {32,  48,  64,   100,  128,  171, 200,
                                           256, 333, 512,  648,  777,  864, 1000,
                                           1331, 1500, 1728, 2048};
  static constexpr std::size_t kLarge[] = {4096, 8192, 20000, 5832, 6144};

  PropertyConfig config;
  config.index = index;
  config.degenerate = index % 7 == 3;
  const bool large = !config.degenerate && index % 10 == 9;
  config.n_atoms = large ? kLarge[(index / 10) % std::size(kLarge)]
                         : kSmall[rng.uniform_index(std::size(kSmall))];
  config.density = rng.uniform(0.2, 1.0);
  config.temperature = rng.uniform(0.2, 1.5);
  config.skin = rng.uniform(0.1, 0.5);

  const double edge = box_edge_for(config.n_atoms, config.density);
  if (config.degenerate) {
    // List radius at 95% of the half edge: the box fits fewer than
    // width cells per axis, so the build must take the all-pairs branch.
    config.cutoff = 0.95 * edge / 2.0 - config.skin;
  } else {
    // Keep cutoff + skin within the half edge the minimum-image convention
    // assumes; below that, draw freely.
    const double cap = 0.49 * edge - config.skin;
    config.cutoff = std::min(rng.uniform(1.8, 3.0), cap);
  }
  EXPECT_GT(config.cutoff, 0.5) << "config " << index << " has no physics";
  return config;
}

/// Lattice workload with per-atom jitter: random-looking positions with a
/// guaranteed minimum separation (jitter stays under half the lattice
/// spacing), cheap enough for 20k atoms.
inline Workload make_jittered_workload(const PropertyConfig& config) {
  WorkloadSpec spec;
  spec.n_atoms = config.n_atoms;
  spec.density = config.density;
  spec.temperature = config.temperature;
  spec.seed = 0x9E3779B9ull + config.index;
  Workload w = make_lattice_workload(spec);

  std::size_t side = 1;
  while (side * side * side < config.n_atoms) ++side;
  const double spacing = w.box.edge() / static_cast<double>(side);
  Rng rng(spec.seed ^ 0xDEADBEEFull);
  for (auto& p : w.system.positions()) {
    p.x += rng.uniform(-0.35, 0.35) * spacing;
    p.y += rng.uniform(-0.35, 0.35) * spacing;
    p.z += rng.uniform(-0.35, 0.35) * spacing;
  }
  return w;
}

}  // namespace emdpa::md
