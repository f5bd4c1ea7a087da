#include "driver/bisect.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <ostream>
#include <sstream>
#include <vector>

#include "core/error.h"
#include "core/fault_injection.h"
#include "core/thread_pool.h"
#include "md/simulation.h"
#include "md/trajectory_store.h"
#include "md/watch.h"

namespace emdpa::driver {

namespace {

std::uint64_t bits_of(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

bool bits_equal(double a, double b) { return bits_of(a) == bits_of(b); }

bool vec_bits_equal(const emdpa::Vec3d& a, const emdpa::Vec3d& b) {
  return bits_equal(a.x, b.x) && bits_equal(a.y, b.y) && bits_equal(a.z, b.z);
}

/// Divergence is defined on positions + velocities only: accelerations are
/// derived state (recomputed from positions at the next prime), so including
/// them would double-report every positional difference.
bool states_equal(const md::ParticleSystem& a, const md::ParticleSystem& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!vec_bits_equal(a.positions()[i], b.positions()[i])) return false;
    if (!vec_bits_equal(a.velocities()[i], b.velocities()[i])) return false;
  }
  return true;
}

/// Site names mentioned in an EMDPA_FAULTS-style spec (the part of each
/// ';'-separated entry before its ':' or '%' trigger).
std::vector<std::string> spec_sites(const std::string& spec) {
  std::vector<std::string> sites;
  std::size_t begin = 0;
  while (begin <= spec.size()) {
    std::size_t end = spec.find(';', begin);
    if (end == std::string::npos) end = spec.size();
    std::string entry = spec.substr(begin, end - begin);
    const std::size_t trigger = entry.find_first_of(":%");
    if (trigger != std::string::npos) entry.resize(trigger);
    while (!entry.empty() && entry.front() == ' ') entry.erase(entry.begin());
    while (!entry.empty() && entry.back() == ' ') entry.pop_back();
    if (!entry.empty()) sites.push_back(entry);
    begin = end + 1;
  }
  return sites;
}

/// Arms one side's fault spec for exactly the scope of that side's
/// execution.  Disarms the spec's own sites on exit (not Registry::reset,
/// which would clobber sites armed from $EMDPA_FAULTS) — the two sides run
/// strictly sequentially, so their specs never overlap.
class ScopedSideFaults {
 public:
  explicit ScopedSideFaults(const std::string& spec)
      : sites_(spec_sites(spec)) {
    if (!spec.empty()) fault::Registry::instance().arm_from_spec(spec);
  }
  ~ScopedSideFaults() {
    for (const std::string& site : sites_) {
      fault::Registry::instance().disarm(site);
    }
  }
  ScopedSideFaults(const ScopedSideFaults&) = delete;
  ScopedSideFaults& operator=(const ScopedSideFaults&) = delete;

 private:
  std::vector<std::string> sites_;
};

/// Per-side thread pool: a dedicated pool when the side pins a thread
/// count, the shared global pool otherwise.  (Results are bitwise identical
/// at any thread count; the knob exists so bisect can DEMONSTRATE that.)
struct SidePool {
  explicit SidePool(std::size_t threads) {
    if (threads > 0) owned = std::make_unique<emdpa::ThreadPool>(threads);
  }
  emdpa::ThreadPool* get() {
    return owned ? owned.get() : &emdpa::ThreadPool::global();
  }
  std::unique_ptr<emdpa::ThreadPool> owned;
};

std::string side_summary(const md::Simulation& sim, const BisectSide& side) {
  std::ostringstream out;
  out << "kernel=" << md::to_string(sim.kernel())
      << " precision=" << md::to_string(sim.precision()) << " simd="
      << (sim.simd_isa() ? simd::to_string(*sim.simd_isa()) : "none")
      << " threads="
      << (side.threads > 0 ? side.threads
                           : emdpa::ThreadPool::global().size());
  if (!side.faults.empty()) out << " faults=" << side.faults;
  return out.str();
}

/// Run one side start to finish, appending snapshots at the stride (plus
/// step 0 and the final step) and streaming watch lines if configured.
/// Returns the resolved-facts summary string.
std::string record_side(const BisectSide& side, emdpa::ThreadPool* pool,
                        md::TrajectoryStore& store) {
  ScopedSideFaults faults(side.faults);
  md::Simulation sim(md::simulation_options_from(side.config, pool));
  store.append(sim.snapshot());

  std::optional<md::WatchEmitter> watch;
  if (!side.config.watch.empty() && side.config.watch_stream != nullptr) {
    watch.emplace(side.config.watch, side.config.watch_every, sim.system(),
                  sim.box());
    watch->emit(*side.config.watch_stream, 0, sim.last_energies(),
                sim.system(), side.label.c_str());
  }

  const long final_step = side.config.steps;
  const int stride = side.config.store_every;
  for (long s = 1; s <= final_step; ++s) {
    const md::StepEnergies energies = sim.step();
    if (((stride > 0 && s % stride == 0) || s == final_step) &&
        !store.has_step(s)) {
      store.append(sim.snapshot());
    }
    if (watch && (watch->due(s) || s == final_step)) {
      watch->emit(*side.config.watch_stream, s, energies, sim.system(),
                  side.label.c_str());
    }
  }
  return side_summary(sim, side);
}

struct StepState {
  std::vector<emdpa::Vec3d> positions;
  std::vector<emdpa::Vec3d> velocities;
};

/// Resume one side from its stored snapshot at `from` and step it to `to`,
/// recording positions/velocities after every step.  The side's faults are
/// armed for the whole walk, and md.step_perturb keys on the absolute step
/// number, so the replayed window re-fires the identical fault.
std::vector<StepState> walk_window(const BisectSide& side,
                                   emdpa::ThreadPool* pool,
                                   const md::TrajectoryStore& store, long from,
                                   long to) {
  ScopedSideFaults faults(side.faults);
  md::Simulation sim = md::Simulation::resume(
      store.load_step(from), md::simulation_options_from(side.config, pool));
  std::vector<StepState> states;
  states.reserve(static_cast<std::size_t>(to - from));
  for (long s = from + 1; s <= to; ++s) {
    sim.step();
    states.push_back({sim.system().positions(), sim.system().velocities()});
  }
  return states;
}

int ceil_log2(long n) {
  int k = 0;
  while ((1L << k) < n) ++k;
  return k;
}

std::string format_g17(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

const char* const kComponentNames[6] = {"pos.x", "pos.y", "pos.z",
                                        "vel.x", "vel.y", "vel.z"};

double component(const StepState& state, std::size_t atom, int c) {
  const emdpa::Vec3d& v =
      c < 3 ? state.positions[atom] : state.velocities[atom];
  switch (c % 3) {
    case 0: return v.x;
    case 1: return v.y;
    default: return v.z;
  }
}

}  // namespace

std::uint64_t ulp_distance(double a, double b) {
  // Map the IEEE-754 bit pattern to an order-preserving unsigned rank:
  // negatives (sign bit set) flip entirely, non-negatives get the sign bit
  // set, so rank order matches numeric order and adjacent representable
  // doubles have adjacent ranks (-0.0 and +0.0 end up 1 apart).
  const auto rank = [](double v) {
    const std::uint64_t bits = bits_of(v);
    return (bits >> 63) != 0 ? ~bits : bits | 0x8000000000000000ull;
  };
  const std::uint64_t ra = rank(a);
  const std::uint64_t rb = rank(b);
  return ra > rb ? ra - rb : rb - ra;
}

BisectReport run_bisect(const BisectOptions& options) {
  if (options.store_dir.empty()) {
    throw RuntimeFailure(
        "bisect: --store-dir is required (the two sides record trajectory "
        "stores under it)");
  }
  if (options.a.config.steps < 1) {
    throw RuntimeFailure("bisect: steps must be >= 1");
  }
  if (options.a.config.steps != options.b.config.steps) {
    throw RuntimeFailure("bisect: sides must run the same number of steps");
  }
  if (options.a.config.store_every != options.b.config.store_every) {
    throw RuntimeFailure("bisect: sides must share one snapshot stride");
  }

  BisectReport report;
  report.steps = options.a.config.steps;
  report.snapshot_stride = options.a.config.store_every;
  report.label_a = options.a.label;
  report.label_b = options.b.label;

  SidePool pool_a(options.a.threads);
  SidePool pool_b(options.b.threads);

  // --- Record both sides, strictly sequentially (the fault registry is a
  // process singleton, so the two specs must never be armed at once).
  md::TrajectoryStoreOptions store_options_a;
  store_options_a.directory = options.store_dir + "/" + options.a.label;
  store_options_a.max_bytes = options.a.config.store_max_bytes;
  md::TrajectoryStore store_a(store_options_a);
  report.summary_a = record_side(options.a, pool_a.get(), store_a);

  md::TrajectoryStoreOptions store_options_b;
  store_options_b.directory = options.store_dir + "/" + options.b.label;
  store_options_b.max_bytes = options.b.config.store_max_bytes;
  md::TrajectoryStore store_b(store_options_b);
  report.summary_b = record_side(options.b, pool_b.get(), store_b);

  report.snapshots_per_side = store_a.stats().snapshots;
  report.store_bytes_a = store_a.stats().bytes;
  report.store_bytes_b = store_b.stats().bytes;

  // Snapshot boundaries both sides can restore (ring eviction with a tight
  // budget may have dropped early chains on either side).
  const std::vector<long> steps_a = store_a.steps();
  std::vector<long> boundaries;
  for (long s : steps_a) {
    if (store_b.has_step(s)) boundaries.push_back(s);
  }
  if (boundaries.size() < 2) {
    throw RuntimeFailure(
        "bisect: fewer than two common snapshots survive; raise "
        "--store-max-bytes or lower --snapshot-every");
  }

  // --- Endpoint check.
  const long final_step = boundaries.back();
  if (states_equal(store_a.load_step(final_step).system,
                   store_b.load_step(final_step).system)) {
    report.diverged = false;
    report.replay_bound =
        ceil_log2(static_cast<long>(boundaries.size()) - 1) + 1;
    report.replays_per_side = 1;  // the endpoint restoration itself
    return report;
  }

  if (!states_equal(store_a.load_step(boundaries.front()).system,
                    store_b.load_step(boundaries.front()).system)) {
    if (boundaries.front() == 0) {
      throw RuntimeFailure(
          "bisect: sides differ at step 0 — they are not the same workload "
          "(bisect localises arithmetic divergence, not different inputs)");
    }
    throw RuntimeFailure(
        "bisect: sides already diverged at the earliest surviving snapshot "
        "(step " +
        std::to_string(boundaries.front()) +
        "); raise --store-max-bytes so earlier frames survive eviction");
  }

  // --- Boundary bisection: invariant equal-at-lo, diverged-at-hi.  Each
  // probe restores one stored snapshot per side.
  std::size_t lo = 0;
  std::size_t hi = boundaries.size() - 1;
  report.replay_bound = ceil_log2(static_cast<long>(hi - lo)) + 1;
  while (hi - lo > 1) {
    const std::size_t mid = lo + (hi - lo) / 2;
    ++report.probes;
    if (states_equal(store_a.load_step(boundaries[mid]).system,
                     store_b.load_step(boundaries[mid]).system)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  report.window_lo = boundaries[lo];
  report.window_hi = boundaries[hi];

  // --- Window walk: replay each side once across the window, compare per
  // step.  Side A completes before side B starts (fault scoping again).
  const std::vector<StepState> states_a = walk_window(
      options.a, pool_a.get(), store_a, report.window_lo, report.window_hi);
  const std::vector<StepState> states_b = walk_window(
      options.b, pool_b.get(), store_b, report.window_lo, report.window_hi);
  report.replays_per_side = report.probes + 1;

  report.diverged = true;
  for (std::size_t k = 0; k < states_a.size(); ++k) {
    const StepState& sa = states_a[k];
    const StepState& sb = states_b[k];
    std::size_t first_atom = sa.positions.size();
    int first_component = -1;
    for (std::size_t i = 0; i < sa.positions.size(); ++i) {
      std::uint64_t best_ulp = 0;
      for (int c = 0; c < 6; ++c) {
        const double va = component(sa, i, c);
        const double vb = component(sb, i, c);
        if (bits_equal(va, vb)) continue;
        if (i < first_atom) {
          first_atom = i;
          first_component = c;
          best_ulp = ulp_distance(va, vb);
        } else if (i == first_atom) {
          const std::uint64_t u = ulp_distance(va, vb);
          if (u > best_ulp) {
            best_ulp = u;
            first_component = c;
          }
        }
        const double delta = std::fabs(va - vb);
        if (delta > report.max_abs_delta) report.max_abs_delta = delta;
        const std::uint64_t u = ulp_distance(va, vb);
        if (u > report.max_ulp_delta) report.max_ulp_delta = u;
      }
    }
    if (first_component >= 0) {
      report.first_divergence_step = report.window_lo + static_cast<long>(k) + 1;
      report.atom = first_atom;
      report.component = kComponentNames[first_component];
      report.value_a = component(sa, first_atom, first_component);
      report.value_b = component(sb, first_atom, first_component);
      report.abs_delta = std::fabs(report.value_a - report.value_b);
      report.ulp_delta = ulp_distance(report.value_a, report.value_b);
      return report;
    }
  }
  // The stores said the states diverge at window_hi but the replays agree —
  // the replay did not reproduce the recorded run, which breaks the bitwise
  // resume guarantee the whole search rests on.
  throw RuntimeFailure(
      "bisect: window replay reached step " + std::to_string(report.window_hi) +
      " without reproducing the recorded divergence (non-replayable fault "
      "spec, e.g. a hit-counter site, or a resume-correctness bug)");
}

std::string render_bisect_report(const BisectReport& report) {
  std::ostringstream out;
  out << "bisect: side " << report.label_a << ": " << report.summary_a << '\n';
  out << "bisect: side " << report.label_b << ": " << report.summary_b << '\n';
  out << "bisect: recorded steps=" << report.steps
      << " stride=" << report.snapshot_stride
      << " snapshots=" << report.snapshots_per_side
      << " store_bytes_" << report.label_a << "=" << report.store_bytes_a
      << " store_bytes_" << report.label_b << "=" << report.store_bytes_b
      << '\n';
  if (!report.diverged) {
    out << "bisect: no divergence (final positions and velocities bitwise "
           "identical after "
        << report.steps << " steps)\n";
    return out.str();
  }
  out << "bisect: window [" << report.window_lo << ", " << report.window_hi
      << "] after " << report.probes << " probe"
      << (report.probes == 1 ? "" : "s") << '\n';
  out << "bisect: first divergence at step " << report.first_divergence_step
      << '\n';
  out << "bisect: atom " << report.atom << ' ' << report.component << ' '
      << report.label_a << '=' << format_g17(report.value_a) << ' '
      << report.label_b << '=' << format_g17(report.value_b)
      << " abs=" << format_g17(report.abs_delta) << " ulp=" << report.ulp_delta
      << '\n';
  out << "bisect: max deltas at that step: abs="
      << format_g17(report.max_abs_delta) << " ulp=" << report.max_ulp_delta
      << '\n';
  out << "bisect: replays per side " << report.replays_per_side << " (bound "
      << report.replay_bound << ")\n";
  return out.str();
}

}  // namespace emdpa::driver
