// High-level simulation facade.
//
// Composes the library's pieces — workload, periodic box, LJ force kernel,
// optional bonded topology, optional thermostat, velocity-Verlet — behind
// one object with step/run/observe/checkpoint operations.  The lower-level
// pieces remain the public API for anyone who needs control (the device
// backends use them directly); Simulation is the convenient front door the
// examples and the host-parallel backend use.
//
// The force evaluation under the integrator is pluggable (SimKernel): the
// scalar reference kernel (ground truth), the SoA/SIMD N^2 batch kernel, or
// the pool-parallel neighbour-list path whose skin logic pays off precisely
// across the timesteps this loop drives.  kAuto picks the host execution
// layer's fast path for the workload size.
#pragma once

#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>

#include "core/thread_pool.h"
#include "md/angles.h"
#include "md/backend.h"
#include "md/bonded.h"
#include "md/checkpoint.h"
#include "md/force_kernel.h"
#include "md/health.h"
#include "md/integrator.h"
#include "md/langevin.h"
#include "md/minimize.h"
#include "md/parallel_neighbor.h"
#include "md/precision.h"
#include "md/thermostat.h"
#include "md/workload.h"

namespace emdpa::md {

/// Which LJ force kernel drives the simulation loop.  kAuto resolves at
/// construction: the SoA N^2 batch kernel below the host layer's measured
/// list crossover (HostParallelBackend::kListCrossoverAtoms) and the
/// parallel neighbour-list path at or above it.  The values are the ones
/// from before the serial cell-list kernel (2) was removed: test suites
/// print them in their registered names.
enum class SimKernel {
  kAuto = 0,
  kReference = 1,
  kSoaN2 = 3,
  kNeighborList = 4,
};

const char* to_string(SimKernel kernel);

/// Map the backend-facing HostKernel choice (--kernel) onto the simulation
/// seam: auto -> kAuto, n2 -> kSoaN2, list -> kNeighborList.
SimKernel to_sim_kernel(HostKernel kernel);

struct RunConfig;
class BlockCullStats;

class Simulation {
 public:
  struct Options {
    WorkloadSpec workload;
    LjParams lj{};
    double dt = 0.005;
    /// Force-kernel strategy for every evaluation (prime, step, minimize).
    SimKernel kernel = SimKernel::kAuto;
    /// Neighbour-list skin radius (kNeighborList only).
    double skin = 0.3;
    /// Neighbour-list staleness policy; tests inject kNeverRebuild to prove
    /// the displacement check matters.  (kNeighborList only.)
    SkinPolicy skin_policy = SkinPolicy::kHalfSkinDisplacement;
    /// Pool for the SoA/list kernels' row parallelism and the integrator's
    /// O(N) passes; nullptr runs serial.  Results are bitwise identical at
    /// any thread count either way.
    ThreadPool* pool = nullptr;
    /// Numeric precision of the LJ fast path (md/precision.h): dp runs
    /// double end to end, sp runs the lane math and its sums in float,
    /// mixed narrows the lane math but accumulates in double.  Only the
    /// SIMD kernels (kSoaN2 / kNeighborList, or kAuto which resolves to one
    /// of them) support non-dp; combining sp/mixed with kReference throws
    /// at construction.
    PrecisionMode precision = PrecisionMode::kDouble;
    /// Force the SIMD instruction set of the fast-path kernels (throws at
    /// construction when it cannot run here); empty resolves the EMDPA_SIMD
    /// environment override, then the fastest this CPU supports.
    std::optional<simd::SimdType> simd_isa;
    /// Numerical-health watchdog (md/health.h): engaged when set, consulted
    /// every policy.check_every steps after the step completes.  Violations
    /// raise NumericalFailure with step/kernel context.
    std::optional<HealthPolicy> health;
    /// When a step fails under the neighbour-list kernel (injected rebuild
    /// fault, or a watchdog violation while the state is still finite),
    /// restore the pre-step state and fall back to the reference N^2 kernel
    /// for the remainder of the run instead of aborting.
    bool degrade_to_reference = false;
    /// Resume normally fails loudly when the checkpoint records a different
    /// kernel/precision/ISA than this run resolves to (the arithmetic would
    /// silently change and break the bitwise-resume guarantee).  True skips
    /// the check — an explicit operator decision (--resume-force).
    bool ignore_checkpoint_config = false;
  };

  explicit Simulation(const Options& options);

  /// Restore from a checkpoint stream written by save().  The LJ/dt options
  /// must be supplied again (they are simulation parameters, not state).
  static Simulation resume(std::istream& checkpoint, const Options& options);

  /// Restore from an already-parsed checkpoint (e.g. via CheckpointManager's
  /// verified, fallback-aware load).  Version-2+ checkpoints carry the
  /// stored potential energy, so the restored accelerations are trusted as
  /// the primed state and NO re-priming force evaluation runs — the property
  /// that makes a resumed run continue bit-identically.  Version-1
  /// checkpoints re-prime as before.
  ///
  /// When the checkpoint records its producing run's configuration (v3+),
  /// the resolved kernel/precision/ISA of this resume must match it; any
  /// mismatch throws RuntimeFailure unless Options::ignore_checkpoint_config
  /// is set.  The kernel token "sharded-list/<N>" of older checkpoints names
  /// the neighbor-list kernel: that build wrote the same CSR bytes.  A
  /// recorded Langevin RNG state is held until the caller
  /// re-attaches a Langevin thermostat (set_thermostat), which then
  /// continues the checkpointed noise sequence instead of re-seeding.
  static Simulation resume(Checkpoint checkpoint, const Options& options);

  const ParticleSystem& system() const { return system_; }
  ParticleSystem& system() { return system_; }
  const PeriodicBox& box() const { return box_; }
  long current_step() const { return step_; }
  const StepEnergies& last_energies() const { return last_energies_; }

  /// The kernel kAuto resolved to (or the explicitly requested one).
  SimKernel kernel() const { return kernel_kind_; }
  /// The driving LJ kernel's self-reported name (includes SIMD/thread info).
  std::string kernel_name() const;
  /// Precision mode the run was configured with (Options::precision).
  PrecisionMode precision() const { return precision_; }
  /// Instruction set the fast-path kernel dispatched to at construction;
  /// empty for the scalar reference kernel and after a degrade-to-reference
  /// fallback.
  std::optional<simd::SimdType> simd_isa() const { return simd_isa_; }
  /// SIMD lane count the dispatched kernel executes per pack — a runtime
  /// property of the selected ISA, NOT the compile-time native width.
  /// 1 for the scalar reference kernel.
  std::size_t simd_width() const { return simd_width_; }
  /// Neighbour-list rebuilds so far; 0 for the stateless kernels.
  std::uint64_t list_rebuilds() const;
  /// The N^2 kernel's j-block cull in the last force evaluation: the
  /// (i-block, j-block) pairs it swept, and all of them (blocks squared).
  /// Both 0 for the other kernels.  The host-parallel backend reports the
  /// ratio as metadata key n2_live_block_frac.
  std::uint64_t n2_live_block_pairs() const;
  std::uint64_t n2_block_pairs() const;
  /// The neighbour-list kernel's counters (ListStats: builds, refills, the
  /// last build's entries and distance tests, cumulative bin / fill /
  /// staleness-check / sweep seconds, the bytes it holds); all zero for the
  /// stateless kernels.  The host-parallel backend reports them as the
  /// list_* and phase_sweep_ms / phase_list_check_ms metadata keys.
  ListStats list_stats() const;
  /// Integrator-driven LJ force evaluations so far (primes + steps; the
  /// minimizer's internal probes are not counted).
  std::uint64_t force_evaluations() const { return force_evaluations_; }
  /// Cumulative steady-clock seconds the integrator spent in the force call
  /// and in its own passes (kicks, drift, kinetic energy), primes included.
  /// Observers only.  The host-parallel backend reports them as metadata
  /// keys phase_force_ms / phase_integrate_ms.
  const StepPhaseSeconds& phase_seconds() const { return phase_seconds_; }
  /// True once a failure made the run fall back to the reference kernel
  /// (Options::degrade_to_reference).
  bool degraded() const { return degraded_; }
  /// Watchdog checks performed so far (0 when no health policy is set).
  std::uint64_t health_checks() const {
    return health_ ? health_->checks_run() : 0;
  }

  /// Attach harmonic bonds (their forces are added to the LJ forces).
  void set_bonds(BondTopology bonds);

  /// Attach harmonic angles (forces added alongside bonds and LJ).
  void set_angles(AngleTopology angles);

  /// Attach (or replace) a thermostat applied after every step.  The two
  /// flavours are mutually exclusive; setting one clears the other.
  void set_thermostat(const BerendsenThermostat& thermostat);
  void set_thermostat(LangevinThermostat thermostat);
  void clear_thermostat();

  /// Relax the positions toward a local energy minimum using the full force
  /// field (LJ + any attached bonds), then re-prime the integrator.
  MinimizeResult minimize(const MinimizeOptions& options = {});

  /// Advance one step; returns the post-step energies (bonded PE included).
  StepEnergies step();

  /// Advance `steps` steps, invoking `observer` (if given) after each.
  using Observer = std::function<void(long step, const StepEnergies&)>;
  void run(int steps, const Observer& observer = {});

  /// Serialise the full state (checkpoint format v5: potential energy,
  /// per-section CRC-32, the resolved kernel/precision/ISA configuration, and
  /// the Langevin thermostat RNG state when one is attached).  Non-const
  /// because saving is a bitwise synchronisation point: the neighbour list
  /// is invalidated so the continuing run and any future resume from this
  /// checkpoint both rebuild it from exactly the state written — the
  /// trajectories stay bit-identical.
  void save(std::ostream& out);

  /// Capture the full state as a Checkpoint WITHOUT perturbing the run — the
  /// trajectory store's seam.  Unlike save(), no neighbour-list invalidation
  /// happens; instead the checkpoint carries the live list's reference
  /// positions (the listref section), so a resume() from it reseeds the
  /// identical list and continues bit-exactly, while the observed run itself
  /// proceeds as if nothing was captured.  Store-enabled runs therefore stay
  /// bitwise identical to store-disabled runs.
  Checkpoint snapshot() const;

 private:
  /// `restored_potential` non-null restores a checkpointed state verbatim:
  /// the stored accelerations are the primed state, so prime() is skipped
  /// and *restored_potential supplies the potential energy.
  Simulation(ParticleSystem system, PeriodicBox box, long step,
             const Options& options, const double* restored_potential = nullptr);
  void prime();
  void rebuild_composite();
  StepEnergies step_once();
  void degrade_now();
  ForceKernel& active_kernel();

  PeriodicBox box_;
  ParticleSystem system_;
  LjParams lj_;
  VelocityVerlet integrator_;
  SimKernel kernel_kind_;                   ///< resolved, never kAuto
  PrecisionMode precision_ = PrecisionMode::kDouble;
  std::optional<simd::SimdType> simd_isa_;  ///< dispatched ISA; see simd_isa()
  std::size_t simd_width_ = 1;
  /// Non-owning control view of lj_kernel_ when it is one of the
  /// neighbour-list kernels (dp, sp or mixed): rebuild statistics plus the
  /// checkpoint-time invalidation sync point.  nullptr otherwise.
  NeighborListControl* list_control_ = nullptr;
  /// Non-owning view of lj_kernel_'s cull counters when it is one of the
  /// SoA N^2 kernels; nullptr otherwise.
  const BlockCullStats* cull_stats_ = nullptr;
  std::unique_ptr<ForceKernel> lj_kernel_;
  std::unique_ptr<ForceKernel> composite_;  ///< LJ + bonds/angles, if any
  std::optional<BondTopology> bonds_;
  std::optional<AngleTopology> angles_;
  std::optional<BerendsenThermostat> thermostat_;
  std::optional<LangevinThermostat> langevin_;
  /// Checkpointed Langevin RNG state awaiting re-attachment of the
  /// thermostat after a resume; consumed by set_thermostat(Langevin).
  std::optional<Rng::State> pending_langevin_rng_;
  std::optional<HealthMonitor> health_;
  bool degrade_enabled_ = false;
  bool degraded_ = false;
  /// step()'s pre-step state while degrade_to_reference is armed, kept
  /// across steps so the copy reuses their capacity.
  std::vector<Vec3d> pre_step_positions_;
  std::vector<Vec3d> pre_step_velocities_;
  std::vector<Vec3d> pre_step_accelerations_;
  StepEnergies last_energies_{};
  long step_ = 0;
  std::uint64_t force_evaluations_ = 0;
  StepPhaseSeconds phase_seconds_{};
};

/// Map the backend-facing RunConfig onto Simulation options: workload, LJ
/// parameters, dt, kernel choice, precision, ISA, degrade flag, health
/// policy (drift_tolerance > 0) and the resume-force override.  One mapping
/// shared by the host-parallel backend, the job scheduler and the tests that
/// must construct bitwise-equivalent standalone runs.
Simulation::Options simulation_options_from(const RunConfig& config,
                                            ThreadPool* pool);

}  // namespace emdpa::md
