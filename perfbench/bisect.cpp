// bisect-32k: driver::run_bisect between a clean side and a side armed with
// md.step_perturb:<S>, S drawn from the workload seed (see pick_inputs).
// 32k atoms, list kernel, a snapshot every 5 steps and a keyframe every 8
// snapshots.  The only workload that writes and reads a trajectory store.
//
// Timed run: whole localisations in fresh store directories until --seconds
// have passed (at least kMinOperations).  Each must name step S within the
// replay bound.
//
// Traced run: one run_bisect for its probe and replay counts, then a
// replica of its recording phase that times every TrajectoryStore::append
// and load_step call.  The replica's final states must equal, bitwise, the
// ones run_bisect stored.
#include <filesystem>
#include <optional>
#include <stdexcept>

#include "core/fault_injection.h"
#include "core/thread_pool.h"
#include "driver/bisect.h"
#include "md/simulation.h"
#include "md/trajectory_store.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace md = emdpa::md;
namespace fs = std::filesystem;

struct BisectSpec {
  std::size_t atoms = 0;
  int steps = 0;
  int stride = 0;
  int keyframe_every = 0;
};

BisectSpec spec_for(const Args& args) {
  return args.smoke ? BisectSpec{1728, 20, 5, 8}     // 12^3
                    : BisectSpec{32768, 20, 5, 8};   // 32^3
}

/// Both sides' run configuration, before the workload seed is drawn.
md::RunConfig side_config(const BisectSpec& spec) {
  md::RunConfig config;
  config.workload.n_atoms = spec.atoms;
  config.steps = spec.steps;
  config.host_kernel = md::HostKernel::kList;
  config.store_every = spec.stride;
  config.store_keyframe_every = spec.keyframe_every;
  return config;
}

emdpa::driver::BisectOptions bisect_options(const md::RunConfig& config,
                                            long step, const std::string& dir) {
  emdpa::driver::BisectOptions options;
  options.a.config = config;
  options.a.label = "a";
  options.b = options.a;
  options.b.label = "b";
  options.b.faults = "md.step_perturb:" + std::to_string(step);
  options.store_dir = dir;
  return options;
}

/// The md.step_perturb plan that kicks exactly step `step`.
emdpa::fault::Plan kick_at(long step) {
  return {static_cast<std::uint64_t>(step), 1};
}

bool states_equal(const md::ParticleSystem& a, const md::ParticleSystem& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const emdpa::Vec3d* pa[2] = {&a.positions()[i], &a.velocities()[i]};
    const emdpa::Vec3d* pb[2] = {&b.positions()[i], &b.velocities()[i]};
    for (int k = 0; k < 2; ++k) {
      if (!bitwise_equal(pa[k]->x, pb[k]->x) ||
          !bitwise_equal(pa[k]->y, pb[k]->y) ||
          !bitwise_equal(pa[k]->z, pb[k]->z)) {
        return false;
      }
    }
  }
  return true;
}

/// The localisation's inputs: the sides' configuration and the step S the
/// perturbed side kicks.
struct Inputs {
  md::RunConfig config;
  long step = 0;
};

/// Draw (workload seed, S) candidates from the benchmark seed and keep the
/// first whose 1-ulp velocity kick at S still shows in the final state.
/// Rounding can absorb a kick: positions absorb it outright, and a velocity
/// update whose result lands in a higher binade can round it away.  Then
/// the two sides end bitwise equal and there is no divergence to localise.
/// S is drawn from the last snapshot window, so every localisation probes
/// the same boundaries and does the same work.
Inputs pick_inputs(const Args& args, const BisectSpec& spec) {
  for (std::uint64_t k = 0; k < 16; ++k) {
    Inputs in;
    in.config = side_config(spec);
    in.config.workload.seed = derive_seed(args.seed, k);
    const std::uint64_t draw = derive_seed(args.seed, 200 + k);
    in.step = spec.steps - static_cast<long>(
                               draw % static_cast<std::uint64_t>(spec.stride));
    const md::Simulation::Options options =
        md::simulation_options_from(in.config, &emdpa::ThreadPool::global());
    md::Simulation clean(options);
    clean.run(static_cast<int>(in.step - 1));
    md::Simulation kicked = md::Simulation::resume(clean.snapshot(), options);
    const int rest = static_cast<int>(spec.steps - in.step + 1);
    {
      const emdpa::fault::ScopedFault kick("md.step_perturb", kick_at(in.step));
      kicked.run(rest);
    }
    clean.run(rest);
    if (!states_equal(clean.system(), kicked.system())) return in;
  }
  throw std::runtime_error("bisect: every drawn 1-ulp kick was absorbed");
}

/// The localisation's checks; true when all pass.
bool check_report(Outcome& out, const Args& args, long step,
                  const std::string& what,
                  const emdpa::driver::BisectReport& report) {
  long expected = step;
  if (args.broken == Break::kDivergenceStep) ++expected;
  const bool step_ok = out.check(
      report.diverged && report.first_divergence_step == expected,
      what + ": first divergence at step " +
          std::to_string(report.first_divergence_step) + ", expected " +
          std::to_string(expected));
  const bool replays_ok = out.check(
      report.replays_per_side <= report.replay_bound,
      what + ": " + std::to_string(report.replays_per_side) +
          " replays per side exceed the bound " +
          std::to_string(report.replay_bound));
  return step_ok && replays_ok;
}

/// Steps a localisation executes: both recordings plus both window walks.
long steps_executed(const emdpa::driver::BisectReport& report) {
  return 2 * report.steps + 2 * (report.window_hi - report.window_lo);
}

/// Per-call timings of a replicated recording.
struct StoreSpans {
  std::vector<double> key_ms, delta_ms;
};

/// Record one side the way run_bisect does: a snapshot at step 0, every
/// stride and the final step.  `kick_step` 0 is the clean side.  With
/// `spans` set, times each append.
md::ParticleSystem record_side(const md::RunConfig& config, long kick_step,
                               const std::string& dir, StoreSpans* spans) {
  std::optional<emdpa::fault::ScopedFault> kick;
  if (kick_step > 0) kick.emplace("md.step_perturb", kick_at(kick_step));
  md::TrajectoryStoreOptions store_options;
  store_options.directory = dir;
  store_options.keyframe_interval = config.store_keyframe_every;
  md::TrajectoryStore store(store_options);
  md::Simulation sim(
      md::simulation_options_from(config, &emdpa::ThreadPool::global()));
  auto append = [&] {
    const md::Checkpoint snapshot = sim.snapshot();
    const std::uint64_t keyframes = store.stats().keyframes;
    const auto t = Clock::now();
    store.append(snapshot);
    if (spans != nullptr) {
      const double ms = seconds_since(t) * 1e3;
      (store.stats().keyframes != keyframes ? spans->key_ms : spans->delta_ms)
          .push_back(ms);
    }
  };
  append();
  const long final_step = config.steps;
  for (long s = 1; s <= final_step; ++s) {
    sim.step();
    if (s % config.store_every == 0 || s == final_step) append();
  }
  return sim.system();
}

/// Set-up samples: open a store, construct the side's Simulation and append
/// its step-0 keyframe — what run_bisect does before its first step.
std::vector<double> setup_samples(const Args& args,
                                  const md::RunConfig& config) {
  std::vector<double> setup_s;
  for (int i = 0; i < 3; ++i) {
    const std::string dir = fresh_dir(args, "setup");
    const auto t0 = Clock::now();
    md::TrajectoryStoreOptions store_options;
    store_options.directory = dir + "/a";
    store_options.keyframe_interval = config.store_keyframe_every;
    md::TrajectoryStore store(store_options);
    md::Simulation sim(
        md::simulation_options_from(config, &emdpa::ThreadPool::global()));
    store.append(sim.snapshot());
    setup_s.push_back(seconds_since(t0));
    remove_dir(dir);
  }
  return setup_s;
}

Outcome timed_run(const Args& args, const BisectSpec& spec,
                  const md::RunConfig& config, long step) {
  Outcome out;
  const std::vector<double> setup_s = setup_samples(args, config);
  std::vector<double> bisect_s, throughput, step_ms;
  const auto start = Clock::now();
  for (int n = 0;
       n < kMinOperations || seconds_since(start) < args.seconds; ++n) {
    const std::string what = "localisation " + std::to_string(n);
    const std::string dir = fresh_dir(args, "bisect");
    bool ok = false;
    try {
      const auto t0 = Clock::now();
      const emdpa::driver::BisectReport report =
          emdpa::driver::run_bisect(bisect_options(config, step, dir));
      const double seconds = seconds_since(t0);
      bisect_s.push_back(seconds);
      const double steps = static_cast<double>(steps_executed(report));
      throughput.push_back(static_cast<double>(spec.atoms) * steps / seconds);
      step_ms.push_back(seconds * 1e3 / steps);
      ok = check_report(out, args, step, what, report);
    } catch (const std::exception& e) {
      out.check(false, what + ": " + e.what());
    }
    out.count(ok);
    remove_dir(dir);
  }
  out.metric("setup_s", median(setup_s), "s");
  out.metric("atom_steps_per_s", median(throughput), "atom-steps/s");
  // A localisation's wall time per step it executed (recordings and window
  // walks), so it includes the store writes and reads.
  out.metric("step_ms_p50", median(step_ms), "ms");
  out.metric("step_ms_p95", quantile(step_ms, 0.95), "ms");
  out.metric("bisect_s", median(bisect_s), "s");
  out.metric("peak_rss_mb", peak_rss_mb(), "MB");
  return out;
}

Outcome traced_run(const Args& args, const BisectSpec& spec,
                   const md::RunConfig& config, long step) {
  Outcome out;
  const std::string dir = fresh_dir(args, "bisect");
  const emdpa::driver::BisectOptions options =
      bisect_options(config, step, dir);
  const auto t0 = Clock::now();
  const emdpa::driver::BisectReport report =
      emdpa::driver::run_bisect(options);
  const double bisect_s = seconds_since(t0);
  out.count(check_report(out, args, step, "traced localisation", report));

  // Replica recording with spans, then every stored step loaded back.
  const std::string replica = fresh_dir(args, "replica");
  StoreSpans spans;
  const auto r0 = Clock::now();
  const md::ParticleSystem final_a =
      record_side(config, 0, replica + "/a", &spans);
  const md::ParticleSystem final_b =
      record_side(config, step, replica + "/b", &spans);
  const double record_s = seconds_since(r0);

  std::vector<double> load_ms;
  double key_bytes = 0.0, delta_bytes = 0.0, store_bytes = 0.0;
  std::size_t keys = 0, deltas = 0;
  for (const char* side : {"/a", "/b"}) {
    md::TrajectoryStoreOptions store_options;
    store_options.directory = replica + side;
    const md::TrajectoryStore store(store_options);
    for (const long step : store.steps()) {
      const auto t = Clock::now();
      store.load_step(step);
      load_ms.push_back(seconds_since(t) * 1e3);
    }
    for (const auto& entry : fs::directory_iterator(replica + side)) {
      const double bytes = static_cast<double>(entry.file_size());
      const std::string ext = entry.path().extension().string();
      if (ext == ".key") {
        key_bytes += bytes;
        ++keys;
      } else if (ext == ".delta") {
        delta_bytes += bytes;
        ++deltas;
      }
      if (ext == ".key" || ext == ".delta") store_bytes += bytes;
    }
  }

  // Traced recording against run_bisect's own stores.
  bool same = true;
  for (const auto& [side, final_state] :
       {std::pair{"/a", &final_a}, std::pair{"/b", &final_b}}) {
    md::TrajectoryStoreOptions store_options;
    store_options.directory = dir + side;
    const md::TrajectoryStore store(store_options);
    same = out.check(states_equal(store.load_step(spec.steps).system,
                                  *final_state),
                     std::string("traced recording of side ") + (side + 1) +
                         " differs from run_bisect's") &&
           same;
  }
  out.count(same);

  // The same recording without spans, for the tracing overhead.
  const std::string plain = fresh_dir(args, "plain");
  const auto p0 = Clock::now();
  record_side(config, 0, plain + "/a", nullptr);
  record_side(config, step, plain + "/b", nullptr);
  const double plain_s = seconds_since(p0);
  remove_dir(plain);
  remove_dir(replica);
  remove_dir(dir);

  const double mean_key = keys > 0 ? key_bytes / keys : 0.0;
  const double mean_delta = deltas > 0 ? delta_bytes / deltas : 0.0;
  out.metric("store.key_append_ms_p50", median(spans.key_ms), "ms");
  out.metric("store.delta_append_ms_p50", median(spans.delta_ms), "ms");
  out.metric("store.load_step_ms_p50", median(load_ms), "ms");
  out.metric("store.delta_ratio", mean_key > 0.0 ? mean_delta / mean_key : 0.0,
             "ratio");
  out.metric("store.mb", store_bytes / 1e6, "MB");
  out.metric("bisect.replays_per_side",
             static_cast<double>(report.replays_per_side), "count");
  out.metric("bisect.probes", static_cast<double>(report.probes), "count");
  out.metric("bisect.record_share", record_s / bisect_s, "ratio");
  out.metric("trace.overhead_ms", (record_s - plain_s) * 1e3, "ms");
  return out;
}

}  // namespace

Outcome run_bisection(const Args& args) {
  const BisectSpec spec = spec_for(args);
  const Inputs in = pick_inputs(args, spec);
  // Picking the inputs held two simulations at once; the workload's peak
  // memory starts after it.
  reset_peak_rss();
  return args.trace ? traced_run(args, spec, in.config, in.step)
                    : timed_run(args, spec, in.config, in.step);
}

}  // namespace perfbench
