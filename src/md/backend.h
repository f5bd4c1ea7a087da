// MdBackend: the top-level "run this MD workload on this device" interface.
//
// A backend owns a device model (or the plain host) and runs the full MD
// kernel of the paper — prime, then `steps` velocity-Verlet steps — on it,
// reporting modelled device time with a per-component breakdown (compute,
// data transfer, thread-launch overhead, …) plus the physics outputs so
// tests can verify every backend computes the same trajectory.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/op_counter.h"
#include "core/simd/pack_fwd.h"
#include "core/time_model.h"
#include "md/integrator.h"
#include "md/lj_potential.h"
#include "md/particle_system.h"
#include "md/precision.h"
#include "md/workload.h"

namespace emdpa::md {

/// Force-kernel selection for backends that execute on the real host
/// (currently host-parallel).  kAuto picks the N^2 SoA batch kernel below
/// the measured crossover atom count and the O(N) neighbour-list path above
/// it; device-model backends ignore the choice entirely.
enum class HostKernel { kAuto, kN2, kList };

const char* to_string(HostKernel kernel);

struct RunConfig {
  WorkloadSpec workload;
  LjParams lj{};        ///< epsilon=sigma=1, cutoff=2.5 by default
  double dt = 0.005;
  int steps = 10;       ///< the paper's experiments run 10 time steps
  HostKernel host_kernel = HostKernel::kAuto;
  /// Numeric precision of the host fast-path kernels (--precision; honoured
  /// by the host-parallel backend, the device models keep the precisions
  /// the paper mandates for them).
  PrecisionMode precision = PrecisionMode::kDouble;
  /// Force the SIMD instruction set of the host fast-path kernels (--simd;
  /// host-parallel backend only).  Empty resolves the EMDPA_SIMD
  /// environment override, then the fastest this CPU supports.
  std::optional<simd::SimdType> simd_isa;

  // Resilience knobs, honoured by the host-parallel backend (the device
  // timing models ignore them — they replay a fixed workload, not a
  // long-running production job).
  /// Save a checkpoint to checkpoint_path every N completed steps (0 = off).
  /// Writes are atomic (temp file + CRC-32 footer + rename) and a transient
  /// I/O failure skips the interval and retries at the next one.
  int checkpoint_every = 0;
  /// Destination for periodic checkpoints and for the emergency checkpoint
  /// written when a run aborts on a NumericalFailure with finite state.
  std::string checkpoint_path;
  /// Resume from this checkpoint (latest generation, falling back to the
  /// rotated previous one on corruption).  `steps` is then the TOTAL step
  /// target: a run resumed at step 250 with steps=500 executes 250 more.
  std::string resume_path;
  /// Resume even when the checkpoint records a different kernel/precision/
  /// ISA than this run resolves to (--resume-force).  Default: mismatch
  /// fails loudly — continuing under different arithmetic silently breaks
  /// the bitwise-resume guarantee.
  bool resume_force = false;
  /// On a neighbour-list kernel failure, restore the pre-step state and fall
  /// back to the reference N^2 kernel instead of aborting.
  bool degrade = false;
  /// >0 arms the numerical-health watchdog with this relative energy-drift
  /// tolerance (plus the default finite/displacement checks).
  double drift_tolerance = 0.0;

  // Time-travel trajectory store (md/trajectory_store.h), honoured by the
  // host-parallel backend.  Snapshots are pure observers: a store-enabled
  // run's trajectory is bitwise identical to a store-disabled one.
  /// Directory for the snapshot ring; empty = no store.
  std::string store_dir;
  /// Snapshot every N completed steps (plus step 0 and the final step).
  /// 0 with a store_dir set still snapshots the endpoints.
  int store_every = 0;
  /// ignored: every frame is a keyframe; remove with perfbench's next change (ROADMAP item 7)
  int store_keyframe_every = 1;
  /// Disk budget across all frames (ring eviction of the oldest frames);
  /// 0 = unbounded.
  std::uint64_t store_max_bytes = 0;

  // Streaming observables channel (md/watch.h; --watch energy,max_disp).
  /// Comma-separated observable list; empty = off.
  std::string watch;
  /// Emit on steps divisible by this (the baseline state also emits).
  int watch_every = 1;
  /// Where watch lines go; the CLI points this at std::cout.  Ignored when
  /// `watch` is empty; must be non-null when it is not.
  std::ostream* watch_stream = nullptr;
};

struct RunResult {
  std::string backend_name;

  /// Modelled end-to-end device runtime for the `steps` steps (the quantity
  /// the paper's tables and figures report): the sum of step_times.  Zero
  /// for the host backends, which have no device model.
  ModelTime device_time;

  /// Named time components (e.g. "compute", "spe_launch", "host_wall").
  /// They need not sum to device_time: an entry may include a one-time cost
  /// outside the timed steps (GPU "startup") or add up parallel units (Cell
  /// "spe_compute" and "dma" sum every SPE's time).
  std::map<std::string, ModelTime> breakdown;

  /// Dimensionless execution-layer facts (thread count, SIMD width,
  /// neighbour-list rebuilds, ...).  Kept apart from `breakdown` so reports
  /// never render a thread count with an "s" unit.
  std::map<std::string, double> metadata;

  /// Textual execution-layer facts (simd_isa, precision, ...) — the
  /// non-numeric companions of `metadata`, rendered in the same report
  /// section.
  std::map<std::string, std::string> labels;

  /// Modelled time of each integration step (size == steps).  Benches use
  /// these to extrapolate long runs from short ones at large atom counts.
  std::vector<ModelTime> step_times;

  /// Energies after priming (step 0) followed by one entry per step.
  std::vector<StepEnergies> energies;

  /// Final state, converted back to double precision at the host boundary.
  ParticleSystem final_state;

  /// Event counts the timing model priced (pairs, DMA bytes, misses, …).
  OpCounter ops;

  ModelTime breakdown_component(const std::string& key) const;
};

class MdBackend {
 public:
  virtual ~MdBackend() = default;

  virtual std::string name() const = 0;

  /// "single" or "double" — the arithmetic precision of the device kernels
  /// (the paper runs Cell/GPU single, MTA-2/Opteron double).
  virtual std::string precision() const = 0;

  virtual RunResult run(const RunConfig& config) = 0;
};

/// Plain host reference backend: double precision, reference N^2 kernel, no
/// device timing model.  Ground truth for the physics tests.
class HostReferenceBackend final : public MdBackend {
 public:
  std::string name() const override { return "host-reference"; }
  std::string precision() const override { return "double"; }
  RunResult run(const RunConfig& config) override;
};

/// Real parallel host backend: SoA/SIMD force kernels with atom rows spread
/// over the shared thread pool.  No device timing model — this backend
/// exists to run the physics as fast as the build machine allows.  Per
/// RunConfig::host_kernel it runs either the N^2 SoA batch kernel or the
/// O(N) neighbour-list path (kAuto crosses over at kListCrossoverAtoms);
/// RunConfig::precision / simd_isa pick the kernels' numeric mode and
/// instruction set (runtime-dispatched, not compile-time).  Wall-clock time
/// lands in breakdown["host_wall"], the numeric execution facts (threads,
/// the dispatched kernel's actual simd_width, kernel_list; for the list
/// kernel list_rebuilds, the build-phase times and the list_*_bytes memory
/// counters; for the N^2 kernel n2_live_block_frac) in RunResult::metadata,
/// and the textual ones (simd_isa, precision) in RunResult::labels.  In dp mode energies match host-reference to
/// double-precision reduction tolerance and are bit-identical run to run at
/// any thread count — and across dispatched ISAs.
class HostParallelBackend final : public MdBackend {
 public:
  /// Atom count at which kAuto switches from the N^2 SoA kernel to the
  /// neighbour-list path.  Measured, not guessed: in the CI native-bench
  /// artifacts (Release, -march=native) BM_NeighborListParallel already
  /// edges out BM_SoaKernelParallel at 1024 atoms (~0.6x the N^2 time),
  /// is ~3x faster by 2048 and ~10x by 4096, while at 512 the N^2 sweep's
  /// perfect streaming still wins.  Those rows predate the N^2 sweep's
  /// j-block cull, which made the lattice sweep several times faster; the
  /// boundary stays where it is until they are re-measured.  Re-measure
  /// before moving this; tests/md/kernel_crossover_test.cpp pins it.
  static constexpr std::size_t kListCrossoverAtoms = 1024;

  std::string name() const override { return "host-parallel"; }
  std::string precision() const override { return "double"; }
  RunResult run(const RunConfig& config) override;
};

}  // namespace emdpa::md
