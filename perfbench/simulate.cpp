// fluid-100k and paper-n2-8k.
//
// Timed run: repetitions of "construct md::Simulation, then step it", each
// a fresh start from the same seed.  The constructor is the set-up sample
// (lattice, first list build, priming force evaluation); every step() call
// is a step sample.  Repetitions continue until --seconds have passed (at
// least kMinOperations of them).
//
// Traced run: the same pieces Simulation composes, built by hand so a
// ForceKernel decorator can time every compute() call; the untraced
// Simulation run of the same steps is the bitwise reference.
#include <memory>
#include <optional>

#include "core/thread_pool.h"
#include "md/integrator.h"
#include "md/parallel_neighbor.h"
#include "md/simulation.h"
#include "md/soa_kernel.h"
#include "md/workload.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace md = emdpa::md;

struct SimSpec {
  std::size_t atoms = 0;
  bool list = false;
  int steps = 0;         ///< per repetition, and per traced stretch
  int serial_steps = 0;  ///< the traced single-threaded stretch
};

// Perfect cubes: the starting lattice fills the box, which keeps the energy
// drift small enough for a fixed bound (8192 atoms would leave a gap).
SimSpec spec_for(const Args& args, bool list) {
  if (list) {
    return args.smoke ? SimSpec{4096, true, 10, 6}       // 16^3
                      : SimSpec{103823, true, 20, 10};   // 47^3
  }
  return args.smoke ? SimSpec{1000, false, 10, 4}        // 10^3
                    : SimSpec{8000, false, 50, 10};      // 20^3
}

md::Simulation::Options options_for(const SimSpec& spec, const Args& args,
                                    emdpa::ThreadPool* pool) {
  md::Simulation::Options options;
  options.workload.n_atoms = spec.atoms;
  options.workload.seed = derive_seed(args.seed, 0);
  options.kernel =
      spec.list ? md::SimKernel::kNeighborList : md::SimKernel::kSoaN2;
  options.pool = pool;
  return options;
}

/// Times every compute() of the kernel it wraps.  For the list kernel it
/// also reads the build counters of the calls that rebuilt the list.
class TimedKernel final : public md::ForceKernel {
 public:
  struct Call {
    double compute_s = 0.0;
    bool rebuilt = false;
    double bin_s = 0.0;   ///< includes the scratch zero-fill (see README)
    double fill_s = 0.0;
    std::uint64_t candidates = 0;   ///< unordered pairs tested by the sweep
    std::uint64_t interacting = 0;
    std::uint64_t tests = 0;        ///< build distance tests (rebuild calls)
    std::uint64_t entries = 0;      ///< directed entries kept (rebuild calls)

    double build_s() const { return bin_s + fill_s; }
    double sweep_s() const { return compute_s - build_s(); }
  };

  TimedKernel(md::ForceKernel& inner, const md::NeighborListKernel* list)
      : inner_(inner), list_(list) {}

  std::string name() const override { return inner_.name(); }

  md::ForceResult compute(const std::vector<emdpa::Vec3d>& positions,
                          const md::PeriodicBox& box, const md::LjParams& lj,
                          double mass) override {
    const std::uint64_t rebuilds = list_ != nullptr ? list_->rebuilds() : 0;
    const auto t0 = Clock::now();
    md::ForceResult result = inner_.compute(positions, box, lj, mass);
    Call call;
    call.compute_s = seconds_since(t0);
    call.candidates = result.stats.candidates;
    call.interacting = result.stats.interacting;
    if (list_ != nullptr && list_->rebuilds() != rebuilds) {
      const auto& list = list_->list();
      call.rebuilt = true;
      call.bin_s = list.last_bin_seconds();
      call.fill_s = list.last_fill_seconds();
      call.tests = list.build_distance_tests();
      call.entries = list.directed_entries();
    }
    calls_.push_back(call);
    return result;
  }

  std::vector<Call>& calls() { return calls_; }

 private:
  md::ForceKernel& inner_;
  const md::NeighborListKernel* list_;
  std::vector<Call> calls_;
};

/// One traced stretch of `steps` steps from the seed's starting lattice.
struct Stretch {
  std::vector<double> step_s;
  std::vector<TimedKernel::Call> calls;  ///< one per step; the prime excluded
  md::StepEnergies final_energies{};
  double wall_s = 0.0;
  double csr_mb = 0.0;

  std::vector<double> build_ms() const {
    std::vector<double> out;
    for (const auto& c : calls) {
      if (c.rebuilt) out.push_back(c.build_s() * 1e3);
    }
    return out;
  }
  /// Sweep time of the calls that did not rebuild the list.
  std::vector<double> sweep_ms() const {
    std::vector<double> out;
    for (const auto& c : calls) {
      if (!c.rebuilt) out.push_back(c.sweep_s() * 1e3);
    }
    return out;
  }
  std::vector<double> integrate_ms() const {
    std::vector<double> out;
    for (std::size_t i = 0; i < calls.size(); ++i) {
      out.push_back((step_s[i] - calls[i].compute_s) * 1e3);
    }
    return out;
  }
};

Stretch traced_stretch(const SimSpec& spec, const Args& args,
                       emdpa::ThreadPool& pool, int steps) {
  // Mirror md::Simulation's composition and defaults exactly, so the final
  // energies can be compared bitwise.
  const md::Simulation::Options defaults = options_for(spec, args, &pool);
  md::Workload workload = md::make_lattice_workload(defaults.workload);
  md::ParticleSystem& system = workload.system;
  const md::PeriodicBox box(
      md::box_edge_for(defaults.workload.n_atoms, defaults.workload.density));
  const md::VelocityVerlet integrator(defaults.dt);

  std::unique_ptr<md::ForceKernel> kernel;
  const md::NeighborListKernel* list = nullptr;
  if (spec.list) {
    md::NeighborListKernel::Options o;
    o.skin = defaults.skin;
    o.pool = &pool;
    auto k = std::make_unique<md::NeighborListKernel>(o);
    list = k.get();
    kernel = std::move(k);
  } else {
    md::SoaKernel::Options o;
    o.pool = &pool;
    kernel = std::make_unique<md::SoaKernel>(o);
  }
  TimedKernel timed(*kernel, list);
  integrator.prime(system, box, defaults.lj, timed);
  timed.calls().clear();

  Stretch stretch;
  const auto t0 = Clock::now();
  for (int s = 0; s < steps; ++s) {
    const auto t = Clock::now();
    stretch.final_energies = integrator.step(system, box, defaults.lj, timed);
    stretch.step_s.push_back(seconds_since(t));
  }
  stretch.wall_s = seconds_since(t0);
  stretch.calls = std::move(timed.calls());
  if (list != nullptr) {
    const auto& csr = list->list();
    stretch.csr_mb = static_cast<double>(csr.row_begin().size() +
                                         csr.entries().size()) *
                     sizeof(std::uint32_t) / 1e6;
  }
  return stretch;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

Outcome timed_run(const Args& args, const SimSpec& spec) {
  Outcome out;
  const md::Simulation::Options options =
      options_for(spec, args, &emdpa::ThreadPool::global());
  std::vector<double> setup_s, step_ms, rep_s, throughput, rep_p95;
  std::optional<md::StepEnergies> reference;
  const auto start = Clock::now();
  for (int rep = 0;
       rep < kMinOperations || seconds_since(start) < args.seconds; ++rep) {
    const std::string what = "repetition " + std::to_string(rep);
    bool ok = false;
    try {
      const auto t0 = Clock::now();
      md::Simulation sim(options);
      setup_s.push_back(seconds_since(t0));
      const double e0 = sim.last_energies().total();
      double stepping_s = 0.0;
      for (int s = 0; s < spec.steps; ++s) {
        const auto t = Clock::now();
        sim.step();
        const double dt = seconds_since(t);
        stepping_s += dt;
        step_ms.push_back(dt * 1e3);
      }
      rep_s.push_back(seconds_since(t0));
      const std::vector<double> rep_steps(step_ms.end() - spec.steps,
                                          step_ms.end());
      rep_p95.push_back(quantile(rep_steps, 0.95));
      throughput.push_back(static_cast<double>(spec.atoms) * spec.steps /
                           stepping_s);
      ok = check_final_state(out, args, what, sim.system(),
                             sim.last_energies(), e0);
      if (!reference) reference = sim.last_energies();
      ok = out.check(energies_equal(*reference, sim.last_energies()),
                     what + ": final energies differ from repetition 0 of "
                            "the same seed") &&
           ok;
    } catch (const std::exception& e) {
      out.check(false, what + ": " + e.what());
    }
    out.count(ok, static_cast<std::uint64_t>(spec.steps));
  }
  out.metric("setup_s", median(setup_s), "s");
  out.metric("atom_steps_per_s", median(throughput), "atom-steps/s");
  out.metric("step_ms_p50", median(step_ms), "ms");
  // Each repetition's p95, then the median over repetitions: half as spread
  // run to run as the p95 of all steps pooled, whose tail follows how much
  // CPU time the hypervisor happened to take during the run.
  out.metric("step_ms_p95", median(rep_p95), "ms");
  // No localisation here: the whole repetition is this workload's operation.
  out.metric("bisect_s", median(rep_s), "s");
  out.metric("peak_rss_mb", peak_rss_mb(), "MB");
  return out;
}

Outcome traced_run(const Args& args, const SimSpec& spec) {
  Outcome out;
  emdpa::ThreadPool& pool = emdpa::ThreadPool::global();

  // Untraced reference: the public facade over the same steps.
  md::Simulation sim(options_for(spec, args, &pool));
  const double e0 = sim.last_energies().total();
  const auto t0 = Clock::now();
  sim.run(spec.steps);
  const double untraced_s = seconds_since(t0);
  const bool physics_ok = check_final_state(out, args, "untraced run",
                                            sim.system(), sim.last_energies(),
                                            e0);

  const Stretch traced = traced_stretch(spec, args, pool, spec.steps);
  const bool same = out.check(
      energies_equal(traced.final_energies, sim.last_energies()),
      "traced run's final energies differ from the untraced Simulation run");
  out.count(physics_ok && same, 2 * static_cast<std::uint64_t>(spec.steps));

  emdpa::ThreadPool serial_pool(1);
  const Stretch serial =
      traced_stretch(spec, args, serial_pool, spec.serial_steps);

  const std::vector<double> build_ms = traced.build_ms();
  double build_total = 0.0, sweep_total = 0.0;
  const double step_total = sum(traced.step_s);
  std::uint64_t tests = 0, entries = 0, candidates = 0, interacting = 0;
  std::vector<double> bin_ms, fill_ms;
  for (const auto& c : traced.calls) {
    build_total += c.build_s();
    sweep_total += c.sweep_s();
    candidates += c.candidates;
    interacting += c.interacting;
    if (c.rebuilt) {
      bin_ms.push_back(c.bin_s * 1e3);
      fill_ms.push_back(c.fill_s * 1e3);
      tests += c.tests;
      entries += c.entries;
    }
  }
  const std::vector<double> integrate_ms = traced.integrate_ms();

  out.metric("list.rebuilds", static_cast<double>(build_ms.size()), "count");
  out.metric("list.build_ms_p50", median(build_ms), "ms");
  out.metric("list.bin_ms_p50", median(bin_ms), "ms");
  out.metric("list.fill_ms_p50", median(fill_ms), "ms");
  out.metric("list.tests_per_entry",
             ratio(static_cast<double>(tests), static_cast<double>(entries)),
             "ratio");
  out.metric("list.csr_mb", traced.csr_mb, "MB");
  out.metric("list.share", ratio(build_total, step_total), "ratio");
  out.metric("sweep.ms_p50", median(traced.sweep_ms()), "ms");
  out.metric("sweep.pairs_per_s",
             ratio(static_cast<double>(candidates), sweep_total), "pairs/s");
  out.metric("sweep.hit_frac",
             ratio(static_cast<double>(interacting),
                   static_cast<double>(candidates)),
             "ratio");
  out.metric("sweep.share", ratio(sweep_total, step_total), "ratio");
  out.metric("integrate.ms_p50", median(integrate_ms), "ms");
  out.metric("integrate.share", ratio(sum(integrate_ms) / 1e3, step_total),
             "ratio");
  out.metric("list.build_speedup",
             ratio(median(serial.build_ms()), median(build_ms)), "ratio");
  out.metric("sweep.speedup",
             ratio(median(serial.sweep_ms()), median(traced.sweep_ms())),
             "ratio");
  out.metric("integrate.speedup",
             ratio(median(serial.integrate_ms()), median(integrate_ms)),
             "ratio");
  out.metric("trace.overhead_ms", (traced.wall_s - untraced_s) * 1e3, "ms");
  return out;
}

}  // namespace

Outcome run_simulation(const Args& args, bool list_kernel) {
  const SimSpec spec = spec_for(args, list_kernel);
  return args.trace ? traced_run(args, spec) : timed_run(args, spec);
}

}  // namespace perfbench
