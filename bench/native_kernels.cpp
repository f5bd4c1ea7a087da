// Native wall-clock throughput of the host force kernels and integrator
// (google-benchmark).  These are real measurements on the build machine —
// complementary to the reproduction benches, which report *modelled* device
// time — and serve as the performance regression net for the MD library
// itself.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <vector>

#include "core/random.h"
#include "core/thread_pool.h"
#include "md/integrator.h"
#include "md/parallel_neighbor.h"
#include "md/reference_kernel.h"
#include "md/simulation.h"
#include "md/soa_kernel.h"
#include "md/trajectory_store.h"
#include "md/workload.h"

namespace {

using namespace emdpa;

md::Workload fluid(std::size_t n) {
  md::WorkloadSpec spec;
  spec.n_atoms = n;
  return md::make_lattice_workload(spec);
}

void BM_ReferenceKernel(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  md::Workload w = fluid(n);
  md::LjParams lj;
  md::ReferenceKernel kernel;
  for (auto _ : state) {
    auto result = kernel.compute(w.system.positions(), w.box, lj, 1.0);
    benchmark::DoNotOptimize(result.potential_energy);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n) *
                          static_cast<std::int64_t>(n - 1));
}
BENCHMARK(BM_ReferenceKernel)->Arg(256)->Arg(512)->Arg(1024)->Arg(2048);

void BM_ReferenceKernelSearch27(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  md::Workload w = fluid(n);
  md::LjParams lj;
  md::ReferenceKernel kernel(md::MinImageStrategy::kSearch27);
  for (auto _ : state) {
    auto result = kernel.compute(w.system.positions(), w.box, lj, 1.0);
    benchmark::DoNotOptimize(result.potential_energy);
  }
}
BENCHMARK(BM_ReferenceKernelSearch27)->Arg(256)->Arg(512);

void BM_ReferenceKernelSingle(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  md::Workload w = fluid(n);
  std::vector<Vec3f> pos;
  for (const auto& p : w.system.positions()) pos.push_back(vec_cast<float>(p));
  const md::PeriodicBoxF box(static_cast<float>(w.box.edge()));
  const auto lj = md::LjParams{}.cast<float>();
  md::ReferenceKernelF kernel;
  for (auto _ : state) {
    auto result = kernel.compute(pos, box, lj, 1.0f);
    benchmark::DoNotOptimize(result.potential_energy);
  }
}
BENCHMARK(BM_ReferenceKernelSingle)->Arg(256)->Arg(1024);

void BM_SoaKernel(benchmark::State& state) {
  // Single-threaded SoA/SIMD batch kernel — compare per-size against
  // BM_ReferenceKernel for the SIMD + hoisting speedup alone.
  const auto n = static_cast<std::size_t>(state.range(0));
  md::Workload w = fluid(n);
  md::LjParams lj;
  md::SoaKernel kernel;
  for (auto _ : state) {
    auto result = kernel.compute(w.system.positions(), w.box, lj, 1.0);
    benchmark::DoNotOptimize(result.potential_energy);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n) *
                          static_cast<std::int64_t>(n - 1));
}
BENCHMARK(BM_SoaKernel)->Arg(256)->Arg(512)->Arg(1024)->Arg(2048);

void BM_SoaKernelParallel(benchmark::State& state) {
  // SoA kernel with atom rows fanned out over the global thread pool — the
  // full host-parallel execution path.  Threads are reported so runs on
  // different machines stay comparable.  Second argument 1 swaps the
  // lattice for a random gas: index blocks then scatter over the whole box,
  // nothing culls, and the row is the j-block cull's pure overhead
  // (live_frac ~1, against a few percent on the lattice).
  const auto n = static_cast<std::size_t>(state.range(0));
  md::WorkloadSpec gas;
  gas.n_atoms = n;
  md::Workload w = state.range(1) != 0
                       ? md::make_random_gas_workload(gas, 0.8)
                       : fluid(n);
  md::LjParams lj;
  md::SoaKernel::Options options;
  options.pool = &ThreadPool::global();
  md::SoaKernel kernel(options);
  for (auto _ : state) {
    auto result = kernel.compute(w.system.positions(), w.box, lj, 1.0);
    benchmark::DoNotOptimize(result.potential_energy);
  }
  state.counters["threads"] =
      static_cast<double>(ThreadPool::global().size());
  state.counters["live_frac"] =
      static_cast<double>(kernel.live_block_pairs()) /
      static_cast<double>(kernel.block_pairs());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n) *
                          static_cast<std::int64_t>(n - 1));
}
BENCHMARK(BM_SoaKernelParallel)
    ->Args({256, 0})->Args({512, 0})->Args({1024, 0})->Args({2048, 0})
    ->Args({4096, 0})->Args({8000, 0})->Args({8000, 1});

void BM_NeighborListSerial(benchmark::State& state) {
  // Steady-state list traversal, single-threaded: the O(N) answer to
  // BM_SoaKernel's O(N^2) sweep.  The list is built once outside the timed
  // region and reused, as in a real simulation between rebuilds.
  const auto n = static_cast<std::size_t>(state.range(0));
  md::Workload w = fluid(n);
  md::LjParams lj;
  md::NeighborListKernel kernel;
  kernel.compute(w.system.positions(), w.box, lj, 1.0);  // prime the list
  for (auto _ : state) {
    auto result = kernel.compute(w.system.positions(), w.box, lj, 1.0);
    benchmark::DoNotOptimize(result.potential_energy);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_NeighborListSerial)->Arg(1024)->Arg(2048)->Arg(4096);

void BM_NeighborListParallel(benchmark::State& state) {
  // The host fast path: pool-parallel list traversal.  Compare against
  // BM_SoaKernelParallel at the same size for the list-vs-N^2 crossover.
  // sweep_ms is the kernel's own sweep timer (pack + row loop + fold) per
  // evaluation.
  const auto n = static_cast<std::size_t>(state.range(0));
  md::Workload w = fluid(n);
  md::LjParams lj;
  md::NeighborListKernel::Options options;
  options.pool = &ThreadPool::global();
  md::NeighborListKernel kernel(options);
  kernel.compute(w.system.positions(), w.box, lj, 1.0);  // prime the list
  const double primed_s = kernel.list_stats().sweep_seconds;
  for (auto _ : state) {
    auto result = kernel.compute(w.system.positions(), w.box, lj, 1.0);
    benchmark::DoNotOptimize(result.potential_energy);
  }
  state.counters["threads"] =
      static_cast<double>(ThreadPool::global().size());
  state.counters["sweep_ms"] =
      (kernel.list_stats().sweep_seconds - primed_s) * 1e3 /
      static_cast<double>(state.iterations());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_NeighborListParallel)
    ->Arg(1024)->Arg(2048)->Arg(4096)->Arg(16384)->Arg(100000);

void BM_NeighborListBuild(benchmark::State& state) {
  // Price the rebuild itself (bin + filter + prefix + copy, pool-parallel):
  // what a simulation pays every few steps when atoms outrun the skin.
  // bin_ms / fill_ms split one build into its two phases (see
  // ParallelNeighborListT) so regressions localise.
  const auto n = static_cast<std::size_t>(state.range(0));
  md::Workload w = fluid(n);
  md::LjParams lj;
  md::NeighborListKernel::Options options;
  options.pool = &ThreadPool::global();
  md::NeighborListKernel kernel(options);
  for (auto _ : state) {
    kernel.invalidate();
    auto result = kernel.compute(w.system.positions(), w.box, lj, 1.0);
    benchmark::DoNotOptimize(result.potential_energy);
  }
  const auto iters = static_cast<double>(state.iterations());
  state.counters["threads"] = static_cast<double>(ThreadPool::global().size());
  state.counters["bin_ms"] = kernel.list().bin_seconds_total() * 1e3 / iters;
  state.counters["fill_ms"] = kernel.list().fill_seconds_total() * 1e3 / iters;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_NeighborListBuild)->Arg(2048)->Arg(16384)->Arg(100000);

void BM_NeighborListBuildThreads(benchmark::State& state) {
  // The 100k-atom scaling probe: the pure list build (no force evaluation)
  // on a private pool of the requested size.  The acceptance bar for the
  // parallel binning pass is >= 2x build speedup at 8 threads vs 1 thread
  // at 100k atoms; the list itself is bitwise identical at every thread
  // count (asserted by the md test label, not here).
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  md::Workload w = fluid(n);
  md::LjParams lj;
  ThreadPool pool(threads);
  md::ParallelNeighborListT<double> list(0.3, &pool);
  for (auto _ : state) {
    list.invalidate();
    list.build(w.system.positions(), w.box, lj.cutoff);
    benchmark::DoNotOptimize(list.entries().data());
  }
  const auto iters = static_cast<double>(state.iterations());
  state.counters["threads"] = static_cast<double>(pool.size());
  state.counters["bin_ms"] = list.bin_seconds_total() * 1e3 / iters;
  state.counters["fill_ms"] = list.fill_seconds_total() * 1e3 / iters;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_NeighborListBuildThreads)
    ->Args({100000, 1})->Args({100000, 2})->Args({100000, 8})
    ->Unit(benchmark::kMillisecond);

/// The lattice after `steps` neighbour-list MD steps: a melted
/// configuration with fewer list entries than the lattice it started from.
std::vector<Vec3d> melted_positions(std::size_t n, int steps) {
  md::Simulation::Options options;
  options.workload.n_atoms = n;
  options.kernel = md::SimKernel::kNeighborList;
  options.pool = &ThreadPool::global();
  md::Simulation sim(options);
  sim.run(steps);
  return sim.system().positions();
}

void BM_NeighborListRebuildGrowing(benchmark::State& state) {
  // One list object rebuilt alternately from the lattice and from a melt of
  // it (different entry totals, ~5% apart at 100k), so the CSR and the fill
  // scratch shrink and grow every iteration — the storage path a running
  // simulation takes, which BM_NeighborListBuild (same positions every
  // time) never exercises.  Two builds per iteration; bin_ms / fill_ms are
  // per build.
  const auto n = static_cast<std::size_t>(state.range(0));
  const md::Workload lattice = fluid(n);
  static const std::vector<Vec3d> melt = melted_positions(n, 100);
  const std::vector<Vec3d>* configs[] = {&lattice.system.positions(), &melt};
  md::LjParams lj;
  md::ParallelNeighborListT<double> list(0.3, &ThreadPool::global());
  std::uint64_t entries[2] = {0, 0};
  for (auto _ : state) {
    for (int k = 0; k < 2; ++k) {
      list.build(*configs[k], lattice.box, lj.cutoff);
      entries[k] = list.directed_entries();
      benchmark::DoNotOptimize(list.entries().data());
      benchmark::ClobberMemory();
    }
  }
  const double builds = 2.0 * static_cast<double>(state.iterations());
  state.counters["threads"] = static_cast<double>(ThreadPool::global().size());
  state.counters["entries_lattice"] = static_cast<double>(entries[0]);
  state.counters["entries_melt"] = static_cast<double>(entries[1]);
  state.counters["bin_ms"] = list.bin_seconds_total() * 1e3 / builds;
  state.counters["fill_ms"] = list.fill_seconds_total() * 1e3 / builds;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_NeighborListRebuildGrowing)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

void BM_SimulationSoaN2(benchmark::State& state) {
  // Whole simulation runs through the SimKernel seam, N^2 SoA path: the
  // end-to-end baseline the neighbour-list run below must beat at large N.
  const auto n = static_cast<std::size_t>(state.range(0));
  const int steps = static_cast<int>(state.range(1));
  for (auto _ : state) {
    md::Simulation::Options options;
    options.workload.n_atoms = n;
    options.kernel = md::SimKernel::kSoaN2;
    options.pool = &ThreadPool::global();
    md::Simulation sim(options);
    sim.run(steps);
    benchmark::DoNotOptimize(sim.last_energies().kinetic);
  }
  state.counters["threads"] =
      static_cast<double>(ThreadPool::global().size());
  state.counters["steps"] = static_cast<double>(steps);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          steps);
}
BENCHMARK(BM_SimulationSoaN2)
    ->Args({2048, 500})->Unit(benchmark::kMillisecond);

void BM_SimulationNeighborList(benchmark::State& state) {
  // Same run on the neighbour-list path.  'rebuilds' counts list builds
  // over the whole run — far fewer than 'steps' when the skin is doing its
  // job, which is where the wall-clock win over BM_SimulationSoaN2 comes
  // from.
  const auto n = static_cast<std::size_t>(state.range(0));
  const int steps = static_cast<int>(state.range(1));
  double rebuilds = 0;
  for (auto _ : state) {
    md::Simulation::Options options;
    options.workload.n_atoms = n;
    options.kernel = md::SimKernel::kNeighborList;
    options.pool = &ThreadPool::global();
    md::Simulation sim(options);
    sim.run(steps);
    benchmark::DoNotOptimize(sim.last_energies().kinetic);
    rebuilds = static_cast<double>(sim.list_stats().rebuilds);
  }
  state.counters["threads"] =
      static_cast<double>(ThreadPool::global().size());
  state.counters["steps"] = static_cast<double>(steps);
  state.counters["rebuilds"] = rebuilds;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          steps);
}
// The 100k-atom row is the large-N simulate path: per-step cost is dominated
// by list traversal, with the (now pool-parallel) rebuilds amortised by the
// skin policy.
BENCHMARK(BM_SimulationNeighborList)
    ->Args({2048, 500})->Args({100000, 25})->Unit(benchmark::kMillisecond);

void BM_SimulationStore(benchmark::State& state) {
  // The neighbour-list run with the time-travel store enabled: snapshot
  // every range(2) steps into a ring of full v5 checkpoint frames.  Compare
  // against BM_SimulationNeighborList at the same {atoms, steps} for the
  // store overhead; 'store_bytes' is the on-disk cost of one recorded run.
  const auto n = static_cast<std::size_t>(state.range(0));
  const int steps = static_cast<int>(state.range(1));
  const long stride = static_cast<long>(state.range(2));
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "emdpa_bench_store";
  double snapshots = 0, bytes = 0;
  for (auto _ : state) {
    std::filesystem::remove_all(dir);
    md::TrajectoryStoreOptions store_options;
    store_options.directory = dir.string();
    md::TrajectoryStore store(store_options);
    md::Simulation::Options options;
    options.workload.n_atoms = n;
    options.kernel = md::SimKernel::kNeighborList;
    options.pool = &ThreadPool::global();
    md::Simulation sim(options);
    store.append(sim.snapshot());
    sim.run(steps, [&](long step, const md::StepEnergies&) {
      if (step % stride == 0 || step == steps) {
        if (!store.has_step(step)) store.append(sim.snapshot());
      }
    });
    benchmark::DoNotOptimize(sim.last_energies().kinetic);
    snapshots = static_cast<double>(store.stats().snapshots);
    bytes = static_cast<double>(store.stats().bytes);
  }
  std::filesystem::remove_all(dir);
  state.counters["steps"] = static_cast<double>(steps);
  state.counters["snapshots"] = snapshots;
  state.counters["store_bytes"] = bytes;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          steps);
}
BENCHMARK(BM_SimulationStore)
    ->Args({2048, 500, 25})->Unit(benchmark::kMillisecond);

void BM_SoaKernelSingle(benchmark::State& state) {
  // Single-precision SoA kernel: double the lane width of the double path.
  // Runs on the double positions — the per-call narrowing is priced too.
  const auto n = static_cast<std::size_t>(state.range(0));
  md::Workload w = fluid(n);
  md::LjParams lj;
  md::SoaKernelF kernel;
  for (auto _ : state) {
    auto result = kernel.compute(w.system.positions(), w.box, lj, 1.0);
    benchmark::DoNotOptimize(result.potential_energy);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n) *
                          static_cast<std::int64_t>(n - 1));
}
BENCHMARK(BM_SoaKernelSingle)->Arg(256)->Arg(1024)->Arg(2048);

void BM_SoaKernelMixed(benchmark::State& state) {
  // The --precision mixed N^2 path: float lane math, double-facing API with
  // FP64 accumulation of the lane totals.  Runs on the double positions
  // directly — the per-call narrowing is part of what's being priced.
  const auto n = static_cast<std::size_t>(state.range(0));
  md::Workload w = fluid(n);
  md::LjParams lj;
  md::SoaKernelMixed kernel;
  for (auto _ : state) {
    auto result = kernel.compute(w.system.positions(), w.box, lj, 1.0);
    benchmark::DoNotOptimize(result.potential_energy);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n) *
                          static_cast<std::int64_t>(n - 1));
}
BENCHMARK(BM_SoaKernelMixed)->Arg(256)->Arg(1024)->Arg(2048);

void BM_NeighborListSingle(benchmark::State& state) {
  // The --precision sp list path (NeighborListKernelF: narrow, float
  // traversal, widen).  Compare against BM_NeighborListSerial at the same
  // size — the acceptance bar for the precision seam is >= 1.5x here.
  const auto n = static_cast<std::size_t>(state.range(0));
  md::Workload w = fluid(n);
  md::LjParams lj;
  md::NeighborListKernelF kernel;
  kernel.compute(w.system.positions(), w.box, lj, 1.0);  // prime the list
  for (auto _ : state) {
    auto result = kernel.compute(w.system.positions(), w.box, lj, 1.0);
    benchmark::DoNotOptimize(result.potential_energy);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_NeighborListSingle)->Arg(1024)->Arg(2048)->Arg(4096);

void BM_NeighborListMixed(benchmark::State& state) {
  // The --precision mixed list path: float rows reduced into FP64 totals.
  const auto n = static_cast<std::size_t>(state.range(0));
  md::Workload w = fluid(n);
  md::LjParams lj;
  md::NeighborListKernelMixed kernel;
  kernel.compute(w.system.positions(), w.box, lj, 1.0);  // prime the list
  for (auto _ : state) {
    auto result = kernel.compute(w.system.positions(), w.box, lj, 1.0);
    benchmark::DoNotOptimize(result.potential_energy);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_NeighborListMixed)->Arg(1024)->Arg(2048)->Arg(4096);

void BM_VerletStep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  md::Workload w = fluid(n);
  md::LjParams lj;
  md::ReferenceKernel kernel;
  md::VelocityVerlet vv(0.005);
  vv.prime(w.system, w.box, lj, kernel);
  for (auto _ : state) {
    auto e = vv.step(w.system, w.box, lj, kernel);
    benchmark::DoNotOptimize(e.kinetic);
  }
}
BENCHMARK(BM_VerletStep)->Arg(256)->Arg(1024);

void BM_VerletStepPooled(benchmark::State& state) {
  // The host production step: list kernel and integrator passes on the
  // global pool.  integrate_ms is the step's non-force tail (kicks, drift,
  // kinetic energy) per step, force_ms the force call (list rebuilds
  // included whenever the skin runs out).
  const auto n = static_cast<std::size_t>(state.range(0));
  md::Workload w = fluid(n);
  md::LjParams lj;
  ThreadPool& pool = ThreadPool::global();
  md::NeighborListKernel::Options options;
  options.pool = &pool;
  md::NeighborListKernel kernel(options);
  const md::VelocityVerlet vv(0.005, &pool);
  vv.prime(w.system, w.box, lj, kernel);
  md::StepPhaseSeconds phases;
  for (auto _ : state) {
    auto e = vv.step(w.system, w.box, lj, kernel, &phases);
    benchmark::DoNotOptimize(e.kinetic);
  }
  const double steps = static_cast<double>(state.iterations());
  state.counters["threads"] = static_cast<double>(pool.size());
  state.counters["integrate_ms"] = phases.integrate * 1e3 / steps;
  state.counters["force_ms"] = phases.force * 1e3 / steps;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_VerletStepPooled)->Arg(100000)->Unit(benchmark::kMillisecond);

void BM_WorkloadConstruction(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    md::WorkloadSpec spec;
    spec.n_atoms = n;
    auto w = md::make_lattice_workload(spec);
    benchmark::DoNotOptimize(w.system.positions().data());
  }
}
BENCHMARK(BM_WorkloadConstruction)->Arg(2048)->Arg(16384);

void BM_MinImageStrategies(benchmark::State& state) {
  // Price the four image strategies on a synthetic displacement stream.
  md::PeriodicBox box(10.0);
  std::vector<Vec3d> drs;
  Rng rng(42);
  for (int i = 0; i < 4096; ++i) {
    drs.push_back({rng.uniform(-10, 10), rng.uniform(-10, 10),
                   rng.uniform(-10, 10)});
  }
  const auto strategy = static_cast<md::MinImageStrategy>(state.range(0));
  for (auto _ : state) {
    Vec3d acc{};
    for (const auto& dr : drs) {
      switch (strategy) {
        case md::MinImageStrategy::kSearch27:
          acc += box.min_image_search27(dr);
          break;
        case md::MinImageStrategy::kBranchy:
          acc += box.min_image_branchy(dr);
          break;
        case md::MinImageStrategy::kCopysign:
          acc += box.min_image_copysign(dr);
          break;
        case md::MinImageStrategy::kRound:
          acc += box.min_image(dr);
          break;
      }
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_MinImageStrategies)->DenseRange(0, 3);

}  // namespace
