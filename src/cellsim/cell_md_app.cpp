#include "cellsim/cell_md_app.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "cellsim/ppe_kernel.h"
#include "core/aligned_buffer.h"
#include "core/error.h"
#include "core/thread_pool.h"
#include "md/device_model.h"

namespace emdpa::cell {

namespace {

/// One SPE's per-step offload: DMA positions in, run the kernel, DMA its
/// acceleration slice out.  Returns the modelled busy time of that SPE.
struct SpeStepOutcome {
  ModelTime busy;
  ModelTime dma;
  SpeKernelResult kernel;
};

/// Streaming per-step offload: the owned slice is resident; the j-atoms
/// arrive in double-buffered DMA tiles, each transfer overlapped with the
/// previous tile's compute.
SpeStepOutcome run_spe_step_tiled(SpeContext& spe, const CellConfig& config,
                                  SimdVariant variant,
                                  const SpeKernelParams& params,
                                  std::size_t tile_atoms, LsAddr ls_own,
                                  LsAddr ls_tile_a, LsAddr ls_tile_b,
                                  LsAddr ls_acc,
                                  const AlignedBuffer<emdpa::Vec4f>& host_pos,
                                  AlignedBuffer<emdpa::Vec4f>& host_acc) {
  const std::size_t n = params.n_atoms;
  const std::uint32_t n_own = params.i_end - params.i_begin;
  constexpr int kTagOwn = 1;
  constexpr int kTagOut = 2;
  constexpr int kTagTile[2] = {3, 4};
  const LsAddr tile_buffers[2] = {ls_tile_a, ls_tile_b};
  const ClockDomain spe_clock(config.spe_clock_hz);

  SpeStepOutcome outcome;

  // Resident slice in.
  spe.dma().get_large(spe.local_store(), ls_own,
                      host_pos.data() + params.i_begin,
                      n_own * sizeof(emdpa::Vec4f), kTagOwn);
  ModelTime stalls = spe.dma().wait_on_tags(1u << kTagOwn, ModelTime::zero());

  const std::size_t n_tiles = (n + tile_atoms - 1) / tile_atoms;
  auto tile_extent = [&](std::size_t k) {
    const std::size_t begin = k * tile_atoms;
    return std::min(tile_atoms, n - begin);
  };

  // Prefetch tile 0, then ping-pong: issue tile k+1 while computing tile k.
  spe.dma().get_large(spe.local_store(), tile_buffers[0], host_pos.data(),
                      tile_extent(0) * sizeof(emdpa::Vec4f), kTagTile[0]);
  stalls += spe.dma().wait_on_tags(1u << kTagTile[0], ModelTime::zero());

  ModelTime compute_total;
  for (std::size_t k = 0; k < n_tiles; ++k) {
    const int current = static_cast<int>(k % 2);
    const int other = 1 - current;
    if (k + 1 < n_tiles) {
      spe.dma().get_large(spe.local_store(), tile_buffers[other],
                          host_pos.data() + (k + 1) * tile_atoms,
                          tile_extent(k + 1) * sizeof(emdpa::Vec4f),
                          kTagTile[other]);
    }

    const SpeKernelResult kr = run_spe_accel_kernel_tile(
        variant, params, spe.local_store(), ls_own, tile_buffers[current],
        static_cast<std::uint32_t>(k * tile_atoms),
        static_cast<std::uint32_t>(tile_extent(k)), ls_acc, /*first_tile=*/k == 0);
    const ModelTime tile_compute = spe_clock.to_time(kr.work.cycles(config.spe_costs));
    compute_total += tile_compute;
    outcome.kernel.work += kr.work;
    outcome.kernel.stats += kr.stats;

    if (k + 1 < n_tiles) {
      // The next tile's transfer ran behind this tile's compute.
      stalls += spe.dma().wait_on_tags(1u << kTagTile[other], tile_compute);
    }
  }

  spe.dma().put_large(spe.local_store(), ls_acc, host_acc.data() + params.i_begin,
                      n_own * sizeof(emdpa::Vec4f), kTagOut);
  stalls += spe.dma().wait_on_tags(1u << kTagOut, ModelTime::zero());

  outcome.dma = stalls;
  outcome.busy = stalls + compute_total;
  return outcome;
}

SpeStepOutcome run_spe_step(SpeContext& spe, const CellConfig& config,
                            SimdVariant variant, const SpeKernelParams& params,
                            LsAddr ls_pos, LsAddr ls_acc,
                            const AlignedBuffer<emdpa::Vec4f>& host_pos,
                            AlignedBuffer<emdpa::Vec4f>& host_acc) {
  const std::size_t n = params.n_atoms;
  constexpr int kTagIn = 1;
  constexpr int kTagOut = 2;

  // DMA the full position array into the local store.
  spe.dma().get_large(spe.local_store(), ls_pos, host_pos.data(),
                      n * sizeof(emdpa::Vec4f), kTagIn);
  const ModelTime dma_in =
      spe.dma().wait_on_tags(1u << kTagIn, ModelTime::zero());

  // Compute this SPE's share of the pairs.
  SpeStepOutcome outcome;
  outcome.kernel = run_spe_accel_kernel(variant, params, spe.local_store(),
                                        ls_pos, ls_acc);
  const ModelTime compute = ClockDomain(config.spe_clock_hz)
                                .to_time(outcome.kernel.work.cycles(config.spe_costs));

  // DMA the owned acceleration slice back.
  const std::size_t slice_offset = params.i_begin * sizeof(emdpa::Vec4f);
  const std::size_t slice_bytes =
      (params.i_end - params.i_begin) * sizeof(emdpa::Vec4f);
  spe.dma().put_large(
      spe.local_store(),
      LsAddr{ls_acc.offset + static_cast<std::uint32_t>(slice_offset)},
      host_acc.data() + params.i_begin, slice_bytes, kTagOut);
  const ModelTime dma_out =
      spe.dma().wait_on_tags(1u << kTagOut, ModelTime::zero());

  outcome.dma = dma_in + dma_out;
  outcome.busy = dma_in + compute + dma_out;
  return outcome;
}

}  // namespace

const char* to_string(LaunchMode m) {
  switch (m) {
    case LaunchMode::kRespawnEveryStep: return "respawn-every-step";
    case LaunchMode::kPersistent: return "persistent-mailbox";
  }
  return "unknown";
}

const char* to_string(SpeDataLayout l) {
  switch (l) {
    case SpeDataLayout::kResident: return "resident";
    case SpeDataLayout::kTiledStreaming: return "tiled-streaming";
  }
  return "unknown";
}

CellMdApp::CellMdApp(const CellConfig& config, const CellRunOptions& options)
    : config_(config), options_(options) {
  EMDPA_REQUIRE(options.n_spes >= 0 && options.n_spes <= config.n_spes,
                "n_spes out of range for this Cell configuration");
  EMDPA_REQUIRE(options.tile_atoms > 0, "streaming tile must hold atoms");
}

md::RunResult CellMdApp::run(const md::RunConfig& run_config) {
  EMDPA_REQUIRE(!run_config.lj.shifted,
                "the Cell port implements the paper's truncated LJ only");

  // The canonical workload crosses the host -> device boundary into single
  // precision (as the paper's Cell port does).
  auto workload = md::make_device_workload<float>(run_config);
  const std::size_t n = workload.system.size();

  const ClockDomain ppe_clock(config_.ppe_clock_hz);
  const bool ppe_only = options_.n_spes == 0;

  // Main-memory quadword arrays (the PPE marshals to/from these); DMA
  // requires them 16-byte aligned.
  AlignedBuffer<emdpa::Vec4f> host_pos(n), host_acc(n);

  // Set up SPE contexts and their static work partition.
  std::vector<std::unique_ptr<SpeContext>> spes;
  std::vector<SpeKernelParams> params(static_cast<std::size_t>(
      std::max(options_.n_spes, 0)));
  std::vector<LsAddr> ls_pos(params.size()), ls_acc(params.size());
  for (int s = 0; s < options_.n_spes; ++s) {
    spes.push_back(std::make_unique<SpeContext>(s, config_));
    auto& p = params[static_cast<std::size_t>(s)];
    p.box_edge = workload.box.edge();
    p.cutoff_sq = workload.lj.cutoff_squared();
    p.epsilon = workload.lj.epsilon;
    p.sigma = workload.lj.sigma;
    p.inv_mass = 1.0f / workload.system.mass();
    p.n_atoms = static_cast<std::uint32_t>(n);
    p.i_begin = static_cast<std::uint32_t>(n * static_cast<std::size_t>(s) /
                                           static_cast<std::size_t>(options_.n_spes));
    p.i_end = static_cast<std::uint32_t>(n * (static_cast<std::size_t>(s) + 1) /
                                         static_cast<std::size_t>(options_.n_spes));
  }

  md::RunResult result;
  result.backend_name = "cell";
  ModelTime t_launch, t_compute, t_dma, t_mailbox, t_ppe;

  // Per-SPE tile buffers (streaming layout only).
  std::vector<std::array<LsAddr, 2>> ls_tiles(params.size());

  // Allocate LS buffers for a running thread.  Resident layout: positions
  // for all atoms plus the full acceleration array (owned slice at its
  // natural offset).  Streaming layout: the owned slices plus two DMA tile
  // buffers.
  auto setup_ls = [&](int s) {
    auto& spe = *spes[static_cast<std::size_t>(s)];
    // Program image + stack resident in the LS before data.
    spe.local_store().allocate(kSpeProgramImageBytes,
                               "spe program image + stack");
    if (options_.data_layout == SpeDataLayout::kResident) {
      ls_pos[static_cast<std::size_t>(s)] =
          spe.local_store().allocate(n * sizeof(emdpa::Vec4f), "positions");
      ls_acc[static_cast<std::size_t>(s)] =
          spe.local_store().allocate(n * sizeof(emdpa::Vec4f), "accelerations");
    } else {
      const auto& p = params[static_cast<std::size_t>(s)];
      const std::size_t n_own = p.i_end - p.i_begin;
      ls_pos[static_cast<std::size_t>(s)] = spe.local_store().allocate(
          n_own * sizeof(emdpa::Vec4f), "own positions");
      ls_acc[static_cast<std::size_t>(s)] = spe.local_store().allocate(
          n_own * sizeof(emdpa::Vec4f), "own accelerations");
      for (int b = 0; b < 2; ++b) {
        ls_tiles[static_cast<std::size_t>(s)][static_cast<std::size_t>(b)] =
            spe.local_store().allocate(
                options_.tile_atoms * sizeof(emdpa::Vec4f), "position tile");
      }
    }
  };

  // Acceleration evaluation at the current positions.  The prime's
  // evaluation is the first step: it launches the persistent SPE threads,
  // then clears first_step.
  bool first_step = true;
  auto force = [&](ModelTime& elapsed, const auto& x, const auto& box,
                   const auto& lj, float mass) {
    elapsed = ModelTime::zero();

    // Marshal positions (PPE-side, priced within integration ops).
    md::pack_positions(x, host_pos.data());

    if (ppe_only) {
      PpeKernelResult ppe = run_ppe_accel_kernel(
          box.edge(), lj.cutoff_squared(), lj.epsilon, lj.sigma, 1.0f / mass,
          host_pos.data(), host_acc.data(), n);
      const ModelTime t =
          ppe_clock.to_time(CycleCount(ppe.scalar_ops * config_.ppe_cpi));
      t_ppe += t;
      elapsed += t;
      result.ops.add("cell.pair_candidates", ppe.stats.candidates);
      result.ops.add("cell.pair_interactions", ppe.stats.interacting);
    } else {
      // Launch or signal the SPE threads.
      for (int s = 0; s < options_.n_spes; ++s) {
        auto& spe = *spes[static_cast<std::size_t>(s)];
        if (options_.launch_mode == LaunchMode::kRespawnEveryStep ||
            (first_step && !spe.thread_running())) {
          const ModelTime launch = spe.launch_thread();
          setup_ls(s);
          t_launch += launch;
          elapsed += launch;
          result.ops.add("cell.spe_launches");
        } else {
          const ModelTime sig = spe.signal(1 /* "more data" */);
          t_mailbox += sig;
          elapsed += sig;
          result.ops.add("cell.mailbox_signals");
        }
      }

      // SPEs run concurrently — for real, one pool worker per SPE.  Each
      // SPE touches only its own context (local store, DMA engine,
      // mailboxes) and a disjoint slice of host_acc, so the workers are
      // independent; the shared accumulators are updated afterwards in SPE
      // order so the totals stay deterministic.
      std::vector<SpeStepOutcome> outcomes(
          static_cast<std::size_t>(options_.n_spes));
      ThreadPool::global().parallel_for(
          0, static_cast<std::size_t>(options_.n_spes), 1,
          [&](std::size_t s_begin, std::size_t s_end) {
            for (std::size_t s = s_begin; s < s_end; ++s) {
              auto& spe = *spes[s];
              if (options_.launch_mode == LaunchMode::kPersistent &&
                  !first_step) {
                // Drain the "more data" token the PPE just mailed.
                spe.mailboxes().inbound.pop();
              }
              outcomes[s] =
                  options_.data_layout == SpeDataLayout::kResident
                      ? run_spe_step(spe, config_, options_.variant, params[s],
                                     ls_pos[s], ls_acc[s], host_pos, host_acc)
                      : run_spe_step_tiled(spe, config_, options_.variant,
                                           params[s], options_.tile_atoms,
                                           ls_pos[s], ls_tiles[s][0],
                                           ls_tiles[s][1], ls_acc[s], host_pos,
                                           host_acc);

              // Completion notification back to the PPE.
              spe.mailboxes().outbound.push(0xD0E);
              spe.mailboxes().outbound.pop();

              if (options_.launch_mode == LaunchMode::kRespawnEveryStep) {
                spe.terminate_thread();
              }
            }
          });

      // The modelled step completes with the slowest SPE.
      ModelTime slowest;
      for (int s = 0; s < options_.n_spes; ++s) {
        const SpeStepOutcome& outcome = outcomes[static_cast<std::size_t>(s)];
        slowest = std::max(slowest, outcome.busy);
        t_dma += outcome.dma;
        t_compute += outcome.busy - outcome.dma;
        result.ops.add("cell.pair_candidates", outcome.kernel.stats.candidates);
        result.ops.add("cell.pair_interactions",
                       outcome.kernel.stats.interacting);
      }
      elapsed += slowest;

      // PPE per-step orchestration (thread/completion management).
      t_ppe += config_.ppe_step_overhead;
      elapsed += config_.ppe_step_overhead;
    }

    // Unmarshal accelerations and reduce PE linearly on the PPE.
    first_step = false;
    return md::unpack_forces(host_acc.data(), n);
  };

  // Fig 6 counts the persistent threads' one-time launches, which the untimed
  // prime made: re-charge them at the start of the timed region.
  const ModelTime relaunch =
      options_.launch_mode == LaunchMode::kPersistent && !ppe_only
          ? config_.thread_launch * static_cast<double>(options_.n_spes)
          : ModelTime::zero();
  const ModelTime t_integration = ppe_integration_time(config_, n);
  md::run_timed_region(
      std::move(workload), run_config,
      {.force = force,
       .charge_step =
           [&] {
             t_ppe += t_integration;
             return t_integration;
           },
       .launch = relaunch,
       .reset =
           [&] {
             t_compute = t_dma = t_mailbox = t_ppe = ModelTime::zero();
             t_launch = relaunch;
           }},
      result);

  result.breakdown["spe_launch"] = t_launch;
  result.breakdown["spe_compute"] = t_compute;
  result.breakdown["dma"] = t_dma;
  result.breakdown["mailbox"] = t_mailbox;
  result.breakdown["ppe"] = t_ppe;
  for (const auto& spe : spes) {
    result.ops.add("cell.dma_bytes", spe->dma().bytes_transferred());
    result.ops.add("cell.dma_retries", spe->dma().retries());
    result.ops.add("cell.mailbox_retries", spe->signal_retries());
  }
  return result;
}

CellBackend::CellBackend(const CellRunOptions& options, const CellConfig& config)
    : config_(config), options_(options) {}

std::string CellBackend::name() const {
  if (options_.n_spes == 0) return "cell-ppe-only";
  std::string name = "cell-" + std::to_string(options_.n_spes) + "spe[" +
                     to_string(options_.launch_mode) + "]";
  if (options_.data_layout == SpeDataLayout::kTiledStreaming) {
    name += "[tiled]";
  }
  return name;
}

md::RunResult CellBackend::run(const md::RunConfig& run_config) {
  CellMdApp app(config_, options_);
  md::RunResult result = app.run(run_config);
  result.backend_name = name();
  return result;
}

}  // namespace emdpa::cell
