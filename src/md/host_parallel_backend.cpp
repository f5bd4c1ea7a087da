// host-parallel backend: the one backend that runs on real hardware at full
// speed rather than under a device timing model.  Since PR 3 it is a thin
// veneer over md::Simulation's SimKernel seam: below the crossover atom
// count the N^2 SoA/SIMD batch kernel wins (no list to build, perfect
// streaming); above it the O(N) neighbour-list path takes over, and its
// skin-radius reuse pays off across the velocity-Verlet steps the
// simulation loop drives.  RunConfig::host_kernel overrides the automatic
// choice.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <optional>

#include "core/error.h"
#include "core/interrupt.h"
#include "core/thread_pool.h"
#include "md/backend.h"
#include "md/checkpoint_manager.h"
#include "md/simulation.h"
#include "md/trajectory_store.h"
#include "md/watch.h"

namespace emdpa::md {

const char* to_string(HostKernel kernel) {
  switch (kernel) {
    case HostKernel::kAuto: return "auto";
    case HostKernel::kN2: return "n2";
    case HostKernel::kList: return "list";
  }
  return "unknown";
}

SimKernel to_sim_kernel(HostKernel kernel) {
  switch (kernel) {
    case HostKernel::kAuto: return SimKernel::kAuto;
    case HostKernel::kN2: return SimKernel::kSoaN2;
    case HostKernel::kList: return SimKernel::kNeighborList;
  }
  return SimKernel::kAuto;
}

RunResult HostParallelBackend::run(const RunConfig& config) {
  ThreadPool& pool = ThreadPool::global();

  const Simulation::Options options = simulation_options_from(config, &pool);

  RunResult result;
  result.backend_name = name();

  std::optional<CheckpointManager> manager;
  if (!config.checkpoint_path.empty()) manager.emplace(config.checkpoint_path);

  const auto wall_start = std::chrono::steady_clock::now();

  long resumed_from = -1;
  bool resume_used_fallback = false;
  Simulation sim = [&] {
    if (config.resume_path.empty()) return Simulation(options);
    CheckpointLoad loaded = CheckpointManager(config.resume_path).load();
    resumed_from = loaded.checkpoint.step;
    resume_used_fallback = loaded.used_fallback;
    return Simulation::resume(std::move(loaded.checkpoint), options);
  }();
  // Setup: lattice and velocities (or the checkpoint load) and the rest of
  // construction.  The prime's force call and kinetic sum stay charged to
  // the force and integrate phases, so no phase counts them twice.
  const double setup_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count() -
      sim.phase_seconds().force - sim.phase_seconds().integrate;

  // With --resume, config.steps is the total target; a checkpoint already at
  // or past it leaves nothing to run (the report still shows the state).
  const long remaining =
      resumed_from >= 0 ? std::max(0L, config.steps - resumed_from)
                        : config.steps;

  std::uint64_t checkpoint_failures = 0;
  auto save_now = [&] {
    manager->save([&](std::ostream& out) { sim.save(out); });
  };

  // Time-travel store: snapshots are pure observers (Simulation::snapshot
  // never touches the run), taken at the start state, every store_every
  // steps, and at the final step.  Every append (step 0's included) is
  // timed into the store phase.
  std::optional<TrajectoryStore> store;
  double store_seconds = 0.0;
  auto store_append = [&] {
    const auto start = std::chrono::steady_clock::now();
    store->append(sim.snapshot());
    store_seconds += std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
  };
  if (!config.store_dir.empty()) {
    TrajectoryStoreOptions store_options;
    store_options.directory = config.store_dir;
    store_options.max_bytes = config.store_max_bytes;
    store.emplace(std::move(store_options));
    store_append();
  }
  const long final_step = sim.current_step() + remaining;

  std::optional<WatchEmitter> watch;
  if (!config.watch.empty()) {
    EMDPA_REQUIRE(config.watch_stream != nullptr,
                  "watch requires an output stream");
    watch.emplace(config.watch, config.watch_every, sim.system(), sim.box());
    watch->emit(*config.watch_stream, sim.current_step(), sim.last_energies(),
                sim.system());
  }

  result.energies.push_back(sim.last_energies());
  try {
    sim.run(static_cast<int>(remaining), [&](long step, const StepEnergies& e) {
      result.energies.push_back(e);
      if (store && ((config.store_every > 0 && step % config.store_every == 0) ||
                    step == final_step)) {
        if (!store->has_step(step)) store_append();
      }
      if (watch && (watch->due(step) || step == final_step)) {
        watch->emit(*config.watch_stream, step, e, sim.system());
      }
      if (manager && config.checkpoint_every > 0 &&
          step % config.checkpoint_every == 0) {
        try {
          save_now();
        } catch (const RuntimeFailure&) {
          // Transient I/O failure (e.g. injected EIO): the temp file was
          // discarded, the committed generations are untouched, and the next
          // interval retries.  The run itself continues.
          ++checkpoint_failures;
        }
      }
      if (interrupt_requested()) {
        // Cooperative drain on SIGINT/SIGTERM (core/interrupt.h): unwind
        // with the distinct Interrupted type; the catch below writes the
        // emergency checkpoint so no completed step is lost.
        const int signal = interrupt_signal();
        ErrorContext context;
        context.step = step;
        throw Interrupted(std::string("interrupted by ") +
                              interrupt_signal_name(signal) + " at step " +
                              std::to_string(step),
                          signal, context);
      }
    });
  } catch (RuntimeFailure& e) {
    if (e.context().backend.empty()) e.context().backend = name();
    // Checkpoint-then-abort: preserve the last finite state so the operator
    // can resume after fixing the cause.  Never let the rescue attempt mask
    // the original failure.
    if (manager && state_is_finite(sim.system())) {
      try {
        save_now();
      } catch (...) {
      }
    }
    throw;
  }

  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  const bool use_list = sim.kernel() == SimKernel::kNeighborList;

  // No device model: device_time stays zero and the wall clock is the only
  // real time.  Execution-layer facts ride in the metadata channel.
  result.breakdown["host_wall"] = ModelTime::seconds(wall_seconds);
  result.metadata["threads"] = static_cast<double>(pool.size());
  // The width the dispatched kernel actually executes — a runtime property
  // of the selected ISA and precision, not the compile-time native width.
  result.metadata["simd_width"] = static_cast<double>(sim.simd_width());
  result.metadata["kernel_list"] = use_list ? 1.0 : 0.0;
  // Phase wall times: setup, then, cumulative with the primes included,
  // the force call and the integrator's kicks, drift and kinetic energy.
  result.metadata["phase_setup_ms"] = setup_seconds * 1e3;
  result.metadata["phase_force_ms"] = sim.phase_seconds().force * 1e3;
  result.metadata["phase_integrate_ms"] = sim.phase_seconds().integrate * 1e3;
  // The process's peak resident set so far (ru_maxrss, KiB on Linux): in a
  // process that ran several jobs, the largest; after an exec, at least the
  // launching image's peak.
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  result.metadata["peak_rss_mib"] =
      static_cast<double>(usage.ru_maxrss) / 1024.0;
  result.labels["simd_isa"] =
      sim.simd_isa() ? simd::to_string(*sim.simd_isa()) : "none";
  result.labels["precision"] = to_string(sim.precision());
  if (sim.kernel() == SimKernel::kSoaN2 && sim.n2_block_pairs() > 0) {
    // Share of (i-block, j-block) pairs the N^2 sweep's cull kept in the
    // last force evaluation; PairStats still count every pair.
    result.metadata["n2_live_block_frac"] =
        static_cast<double>(sim.n2_live_block_pairs()) /
        static_cast<double>(sim.n2_block_pairs());
  }
  if (use_list) {
    const ListStats list = sim.list_stats();
    result.metadata["list_rebuilds"] = static_cast<double>(list.rebuilds);
    // Builds that ran out of block and filtered a second time.
    result.metadata["list_refills"] = static_cast<double>(list.refills);
    // Cumulative build-phase wall time over the whole run, so the CI bench
    // jobs can track the binning and fill passes separately.
    result.metadata["list_build_bin_ms"] = list.bin_seconds * 1e3;
    result.metadata["list_build_fill_ms"] = list.fill_seconds * 1e3;
    // The force sweeps and the staleness checks (with the reference copy)
    // inside phase_force_ms, builds excluded.
    result.metadata["phase_sweep_ms"] = list.sweep_seconds * 1e3;
    result.metadata["phase_list_check_ms"] = list.check_seconds * 1e3;
    // The last build's size: tests per kept entry is their ratio.
    result.metadata["list_entries"] =
        static_cast<double>(list.directed_entries);
    result.metadata["list_distance_tests"] =
        static_cast<double>(list.distance_tests);
    // Rows of the last build the sweep runs without the reflection.
    result.metadata["list_sweep_plain_rows"] =
        static_cast<double>(list.sweep_plain_rows);
    // Bytes the list holds at the end of the run (allocated capacity).
    result.metadata["list_csr_bytes"] =
        static_cast<double>(list.memory.csr_bytes);
    result.metadata["list_hist_bytes"] =
        static_cast<double>(list.memory.hist_bytes);
  }
  // Resilience facts, only when the corresponding knob was armed so the
  // default report keeps its exact historical shape.
  if (config.degrade) result.metadata["degraded"] = sim.degraded() ? 1.0 : 0.0;
  if (options.health) {
    result.metadata["health_checks"] = static_cast<double>(sim.health_checks());
  }
  if (manager && config.checkpoint_every > 0) {
    result.metadata["checkpoint_saves"] = static_cast<double>(manager->saves());
    result.metadata["checkpoint_failures"] =
        static_cast<double>(checkpoint_failures);
  }
  if (resumed_from >= 0) {
    result.metadata["resumed_from_step"] = static_cast<double>(resumed_from);
    result.metadata["resume_used_fallback"] = resume_used_fallback ? 1.0 : 0.0;
  }
  if (store) {
    const TrajectoryStoreStats& s = store->stats();
    result.metadata["store_snapshots"] = static_cast<double>(s.snapshots);
    result.metadata["store_bytes"] = static_cast<double>(s.bytes);
    result.metadata["store_evicted_frames"] =
        static_cast<double>(s.evicted_frames);
    result.metadata["phase_store_ms"] = store_seconds * 1e3;
  }
  result.ops.add("host.threads", pool.size());
  result.ops.add("host.simd_width", sim.simd_width());
  if (use_list) result.ops.add("host.list_rebuilds", sim.list_stats().rebuilds);

  result.final_state = std::move(sim.system());
  return result;
}

}  // namespace emdpa::md
