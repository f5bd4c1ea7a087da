#include "md/simulation.h"

#include <cmath>
#include <limits>
#include <type_traits>

#include "core/error.h"
#include "core/fault_injection.h"
#include "md/backend.h"
#include "md/checkpoint.h"
#include "md/observables.h"
#include "md/reference_kernel.h"
#include "md/soa_kernel.h"

namespace emdpa::md {

namespace {

SimKernel resolve_kernel(const Simulation::Options& options,
                         std::size_t n_atoms) {
  if (options.kernel != SimKernel::kAuto) return options.kernel;
  return n_atoms >= HostParallelBackend::kListCrossoverAtoms
             ? SimKernel::kNeighborList
             : SimKernel::kSoaN2;
}

/// What make_lj_kernel hands back: the owning kernel plus the non-owning
/// views and dispatch properties Simulation records about it.
struct KernelBuild {
  std::unique_ptr<ForceKernel> kernel;
  NeighborListControl* list_control = nullptr;
  const BlockCullStats* cull_stats = nullptr;
  std::optional<simd::SimdType> isa;
  std::size_t width = 1;
};

/// One SIMD kernel configured from the simulation options: pool and ISA for
/// every kernel, plus skin and staleness policy for the list kernels.
template <typename Kernel>
KernelBuild build_simd_kernel(const Simulation::Options& options) {
  constexpr bool kIsList = std::is_base_of_v<NeighborListControl, Kernel>;
  typename Kernel::Options o;
  o.pool = options.pool;
  o.isa = options.simd_isa;
  if constexpr (kIsList) {
    o.skin = options.skin;
    o.skin_policy = options.skin_policy;
  }
  auto kernel = std::make_unique<Kernel>(o);
  KernelBuild b;
  b.isa = kernel->isa();
  b.width = kernel->simd_width();
  if constexpr (kIsList) {
    b.list_control = kernel.get();
  } else {
    b.cull_stats = kernel.get();
  }
  b.kernel = std::move(kernel);
  return b;
}

/// The <Real, Acc> instantiation of one SIMD kernel template the precision
/// names (md/precision.h): dp <double, double>, sp <float, float>, mixed
/// <float, double>.
template <template <typename, typename> class Kernel>
KernelBuild make_simd_kernel(const Simulation::Options& options) {
  switch (options.precision) {
    case PrecisionMode::kSingle:
      return build_simd_kernel<Kernel<float, float>>(options);
    case PrecisionMode::kMixed:
      return build_simd_kernel<Kernel<float, double>>(options);
    case PrecisionMode::kDouble: break;
  }
  return build_simd_kernel<Kernel<double, double>>(options);
}

KernelBuild make_lj_kernel(SimKernel kind, const Simulation::Options& options) {
  switch (kind) {
    case SimKernel::kReference: {
      if (options.precision != PrecisionMode::kDouble) {
        throw RuntimeFailure(
            std::string("precision '") + to_string(options.precision) +
            "' requires a SIMD kernel (soa-n2 or neighbor-list); '" +
            to_string(kind) + "' runs double only");
      }
      KernelBuild b;
      b.kernel = std::make_unique<ReferenceKernel>();
      return b;
    }
    case SimKernel::kSoaN2:
      return make_simd_kernel<SoaKernelT>(options);
    case SimKernel::kNeighborList:
      return make_simd_kernel<NeighborListKernelT>(options);
    case SimKernel::kAuto:
      break;  // resolved before we get here
  }
  throw ContractViolation("unresolved SimKernel");
}

/// LJ kernel plus optional bonded/angle topologies behind the ForceKernel
/// interface.
class CompositeKernel final : public ForceKernel {
 public:
  CompositeKernel(ForceKernel& lj, std::optional<BondTopology> bonds,
                  std::optional<AngleTopology> angles)
      : lj_(lj), bonds_(std::move(bonds)), angles_(std::move(angles)) {}

  std::string name() const override { return lj_.name() + "+topology"; }

  ForceResult compute(const std::vector<Vec3d>& positions,
                      const PeriodicBox& box, const LjParams& lj,
                      double mass) override {
    ForceResult result = lj_.compute(positions, box, lj, mass);
    if (bonds_) {
      result.potential_energy +=
          bonds_->accumulate_forces(positions, box, mass, result.accelerations);
    }
    if (angles_) {
      result.potential_energy += angles_->accumulate_forces(
          positions, box, mass, result.accelerations);
    }
    return result;
  }

  void recycle(std::vector<Vec3d>&& spare) override {
    lj_.recycle(std::move(spare));
  }

 private:
  ForceKernel& lj_;
  std::optional<BondTopology> bonds_;
  std::optional<AngleTopology> angles_;
};

}  // namespace

const char* to_string(SimKernel kernel) {
  switch (kernel) {
    case SimKernel::kAuto: return "auto";
    case SimKernel::kReference: return "reference";
    case SimKernel::kSoaN2: return "soa-n2";
    case SimKernel::kNeighborList: return "neighbor-list";
  }
  return "unknown";
}

Simulation::Simulation(const Options& options)
    : Simulation(
          [&] {
            Workload w = make_lattice_workload(options.workload);
            return std::move(w.system);
          }(),
          PeriodicBox(box_edge_for(options.workload.n_atoms,
                                   options.workload.density)),
          /*step=*/0, options) {}

Simulation::Simulation(ParticleSystem system, PeriodicBox box, long step,
                       const Options& options, const double* restored_potential)
    : box_(box),
      system_(std::move(system)),
      lj_(options.lj),
      integrator_(options.dt, options.pool),
      kernel_kind_(resolve_kernel(options, system_.size())),
      precision_(options.precision),
      degrade_enabled_(options.degrade_to_reference),
      step_(step) {
  KernelBuild build = make_lj_kernel(kernel_kind_, options);
  lj_kernel_ = std::move(build.kernel);
  list_control_ = build.list_control;
  cull_stats_ = build.cull_stats;
  simd_isa_ = build.isa;
  simd_width_ = build.width;
  if (options.health) health_.emplace(*options.health);
  if (restored_potential != nullptr) {
    // The checkpointed accelerations ARE the primed state (save_checkpoint
    // stores them alongside the potential energy); re-evaluating forces here
    // would rebuild the neighbour list one step earlier than the run that
    // wrote the checkpoint and break bitwise resume.
    last_energies_ = {kinetic_energy_of(system_), *restored_potential};
  } else {
    prime();
  }
  if (health_) health_->reset_baseline(last_energies_);
}

Simulation Simulation::resume(std::istream& checkpoint, const Options& options) {
  return resume(load_checkpoint(checkpoint), options);
}

Simulation Simulation::resume(Checkpoint checkpoint, const Options& options) {
  Simulation sim(std::move(checkpoint.system), PeriodicBox(checkpoint.box_edge),
                 checkpoint.step, options, &checkpoint.potential);
  if (checkpoint.config && !options.ignore_checkpoint_config) {
    // The three knobs recorded in the checkpoint change the arithmetic of
    // every subsequent step; resuming under different ones silently breaks
    // the bitwise-resume guarantee, so any mismatch is fatal by default.
    const CheckpointConfig resumed{
        to_string(sim.kernel_kind_), to_string(sim.precision_),
        sim.simd_isa_ ? simd::to_string(*sim.simd_isa_) : "none"};
    const CheckpointConfig& saved = *checkpoint.config;
    std::string mismatches;
    auto compare = [&](const char* what, const std::string& was,
                       const std::string& now) {
      if (was == now) return;
      if (!mismatches.empty()) mismatches += ", ";
      mismatches += std::string(what) + " '" + was + "' vs resumed '" + now + "'";
    };
    compare("kernel", saved.kernel, resumed.kernel);
    compare("precision", saved.precision, resumed.precision);
    compare("simd", saved.simd, resumed.simd);
    if (!mismatches.empty()) {
      throw RuntimeFailure(
          "checkpoint: run configuration mismatch on resume (" + mismatches +
          "); rerun with the recorded flags, or override explicitly "
          "(--resume-force / Options::ignore_checkpoint_config)");
    }
  }
  sim.pending_langevin_rng_ = checkpoint.langevin_rng;
  if (checkpoint.list_ref && sim.list_control_ != nullptr) {
    // Reseed the neighbour list from the captured reference positions.  The
    // build is a pure function of (positions, box, cutoff), so this
    // reproduces the list the saved run was using and the resumed run
    // continues bit-identically with it.
    sim.list_control_->seed_list(*checkpoint.list_ref, checkpoint.box_edge,
                                 checkpoint.list_ref_cutoff);
  }
  return sim;
}

ForceKernel& Simulation::active_kernel() {
  return composite_ ? *composite_ : *lj_kernel_;
}

std::string Simulation::kernel_name() const { return lj_kernel_->name(); }

std::uint64_t Simulation::n2_live_block_pairs() const {
  return cull_stats_ != nullptr ? cull_stats_->live_block_pairs() : 0;
}

std::uint64_t Simulation::n2_block_pairs() const {
  return cull_stats_ != nullptr ? cull_stats_->block_pairs() : 0;
}

ListStats Simulation::list_stats() const {
  return list_control_ != nullptr ? list_control_->list_stats() : ListStats{};
}

void Simulation::prime() {
  last_energies_ =
      integrator_.prime(system_, box_, lj_, active_kernel(), &phase_seconds_);
  ++force_evaluations_;
}

void Simulation::rebuild_composite() {
  composite_ = std::make_unique<CompositeKernel>(*lj_kernel_, bonds_, angles_);
  prime();  // accelerations must include the new forces
}

void Simulation::set_bonds(BondTopology bonds) {
  bonds_ = std::move(bonds);
  rebuild_composite();
}

void Simulation::set_angles(AngleTopology angles) {
  angles_ = std::move(angles);
  rebuild_composite();
}

void Simulation::set_thermostat(const BerendsenThermostat& thermostat) {
  thermostat_ = thermostat;
  langevin_.reset();
  pending_langevin_rng_.reset();
}

void Simulation::set_thermostat(LangevinThermostat thermostat) {
  langevin_ = std::move(thermostat);
  thermostat_.reset();
  if (pending_langevin_rng_) {
    // Resumed run: continue the checkpointed noise sequence.  The freshly
    // constructed thermostat's seed is discarded — the stream position is
    // state, and re-seeding it would diverge from the uninterrupted run.
    langevin_->restore_rng(*pending_langevin_rng_);
    pending_langevin_rng_.reset();
  }
}

void Simulation::clear_thermostat() {
  thermostat_.reset();
  langevin_.reset();
  pending_langevin_rng_.reset();
}

MinimizeResult Simulation::minimize(const MinimizeOptions& options) {
  const MinimizeResult result =
      minimize_energy(system_, box_, lj_, active_kernel(), options);
  prime();
  return result;
}

StepEnergies Simulation::step_once() {
  // Deterministic divergence source for the bisection harness: at the armed
  // step, kick one velocity component by one ulp before integrating.  Keyed
  // to the absolute step number (injected_at, not injected) so a replay that
  // restores a snapshot and re-runs this step window perturbs the exact same
  // step again — the property the bisect self-test rests on.
  if (!system_.velocities().empty() &&
      fault::injected_at("md.step_perturb",
                         static_cast<std::uint64_t>(step_ + 1))) {
    double& vx = system_.velocities()[0].x;
    vx = std::nextafter(vx, std::numeric_limits<double>::infinity());
  }
  try {
    last_energies_ = integrator_.step(system_, box_, lj_, active_kernel(),
                                      &phase_seconds_);
  } catch (RuntimeFailure& e) {
    // Annotate what this layer knows (the kernel threw mid-step, so the
    // failing step is the one about to complete) and let it unwind.
    if (e.context().step < 0) e.context().step = step_ + 1;
    if (e.context().kernel.empty()) e.context().kernel = to_string(kernel_kind_);
    throw;
  }
  ++force_evaluations_;
  if (thermostat_) thermostat_->apply(system_);
  if (langevin_) langevin_->apply(system_, integrator_.dt());
  ++step_;
  if (health_ && health_->due(step_)) {
    health_->check(step_, system_, last_energies_, integrator_.dt(),
                   to_string(kernel_kind_),
                   /*conserves_energy=*/!thermostat_ && !langevin_);
  }
  return last_energies_;
}

void Simulation::degrade_now() {
  kernel_kind_ = SimKernel::kReference;
  list_control_ = nullptr;
  cull_stats_ = nullptr;
  simd_isa_.reset();
  simd_width_ = 1;
  // The composite (if any) holds a reference to the old kernel; rebuild it
  // against the replacement before anything evaluates forces again.
  lj_kernel_ = std::make_unique<ReferenceKernel>();
  degraded_ = true;
  if (bonds_ || angles_) {
    rebuild_composite();  // re-primes internally
  } else {
    composite_.reset();
    prime();
  }
  // Fresh baseline: the reference kernel's summation order shifts the total
  // energy by rounding, and the pre-failure baseline may itself be drifted.
  if (health_) health_->reset_baseline(last_energies_);
}

StepEnergies Simulation::step() {
  const bool can_degrade = degrade_enabled_ && !degraded_ &&
                           kernel_kind_ == SimKernel::kNeighborList;
  if (!can_degrade) return step_once();

  // Snapshot so a failed step can be retried cleanly on the fallback kernel
  // (the failure may surface mid-step, after positions already advanced).
  // The copies land in retained buffers: no allocation after the first step.
  pre_step_positions_ = system_.positions();
  pre_step_velocities_ = system_.velocities();
  pre_step_accelerations_ = system_.accelerations();
  const StepEnergies energies = last_energies_;
  const long step_before = step_;
  try {
    return step_once();
  } catch (const RuntimeFailure&) {
    system_.positions() = pre_step_positions_;
    system_.velocities() = pre_step_velocities_;
    system_.accelerations() = pre_step_accelerations_;
    last_energies_ = energies;
    step_ = step_before;
    if (!state_is_finite(system_)) throw;  // nothing trustworthy to retry from
    degrade_now();
    return step_once();
  }
}

void Simulation::run(int steps, const Observer& observer) {
  EMDPA_REQUIRE(steps >= 0, "cannot run a negative number of steps");
  for (int s = 0; s < steps; ++s) {
    const StepEnergies e = step();
    if (observer) observer(step_, e);
  }
}

void Simulation::save(std::ostream& out) const {
  save_checkpoint(out, snapshot());
}

Checkpoint Simulation::snapshot() const {
  Checkpoint cp;
  cp.system = system_;
  cp.box_edge = box_.edge();
  cp.step = step_;
  cp.potential = last_energies_.potential;
  // Record the arithmetic-determining configuration (resolved, never kAuto;
  // a degraded run records the reference kernel it actually executes) so a
  // resume under different flags fails loudly instead of silently diverging.
  cp.config =
      CheckpointConfig{to_string(kernel_kind_), to_string(precision_),
                       simd_isa_ ? simd::to_string(*simd_isa_) : "none"};
  if (langevin_) cp.langevin_rng = langevin_->rng_state();
  // Pure observer: capture the positions the live neighbour list was built
  // from so a restore can reseed the identical list.
  if (list_control_ != nullptr && list_control_->has_list()) {
    cp.list_ref = list_control_->list_reference_positions();
    cp.list_ref_cutoff = list_control_->list_build_cutoff();
  }
  return cp;
}

Simulation::Options simulation_options_from(const RunConfig& config,
                                            ThreadPool* pool) {
  Simulation::Options options;
  options.workload = config.workload;
  options.lj = config.lj;
  options.dt = config.dt;
  options.kernel = to_sim_kernel(config.host_kernel);
  options.pool = pool;
  options.precision = config.precision;
  options.simd_isa = config.simd_isa;
  options.degrade_to_reference = config.degrade;
  options.ignore_checkpoint_config = config.resume_force;
  if (config.drift_tolerance > 0.0) {
    HealthPolicy policy;
    policy.max_energy_drift = config.drift_tolerance;
    options.health = policy;
  }
  return options;
}

}  // namespace emdpa::md
