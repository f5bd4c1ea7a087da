#include "cellsim/cell_cluster.h"

#include <algorithm>

#include "cellsim/spe_kernel.h"
#include "core/aligned_buffer.h"
#include "core/error.h"
#include "md/device_model.h"

namespace emdpa::cell {

ModelTime ring_allgather_time(const InterconnectConfig& config,
                              std::size_t bytes_per_rank, int ranks) {
  EMDPA_REQUIRE(ranks >= 1, "allgather needs at least one rank");
  if (ranks == 1) return ModelTime::zero();
  // (ranks-1) rounds; each round every rank sends one slice in parallel, so
  // the round time is one slice's transfer.
  const ModelTime per_round =
      config.message_latency +
      ModelTime::seconds(static_cast<double>(bytes_per_rank) /
                         config.bandwidth_bytes_per_s);
  return per_round * static_cast<double>(ranks - 1);
}

CellClusterBackend::CellClusterBackend(const ClusterOptions& options,
                                       const CellConfig& blade_config)
    : options_(options), blade_config_(blade_config) {
  EMDPA_REQUIRE(options.n_blades >= 1 && options.n_blades <= 64,
                "cluster model covers 1..64 blades");
  EMDPA_REQUIRE(options.spes_per_blade >= 1 &&
                    options.spes_per_blade <= blade_config.n_spes,
                "spes_per_blade out of range");
}

std::string CellClusterBackend::name() const {
  return "cell-cluster[" + std::to_string(options_.n_blades) + "x" +
         std::to_string(options_.spes_per_blade) + "spe]";
}

md::RunResult CellClusterBackend::run(const md::RunConfig& run_config) {
  EMDPA_REQUIRE(!run_config.lj.shifted,
                "the Cell port implements the paper's truncated LJ only");

  auto workload = md::make_device_workload<float>(run_config);
  const std::size_t n = workload.system.size();

  const int blades = options_.n_blades;
  const int spes = options_.spes_per_blade;
  const int total_slices = blades * spes;
  const ClockDomain spe_clock(blade_config_.spe_clock_hz);

  // One shared local store image per slice evaluation (the simulator runs
  // slices sequentially; each "SPE" sees the same resident layout).
  LocalStore ls(blade_config_.local_store_bytes);
  ls.allocate(kSpeProgramImageBytes, "spe program image + stack");
  const LsAddr ls_pos = ls.allocate(n * sizeof(emdpa::Vec4f), "positions");
  const LsAddr ls_acc = ls.allocate(n * sizeof(emdpa::Vec4f), "accelerations");

  AlignedBuffer<emdpa::Vec4f> host_pos(n);
  DmaEngine dma(blade_config_.dma);

  md::RunResult result;
  result.backend_name = name();
  ModelTime t_comm, t_compute, t_overhead;

  auto force = [&](ModelTime& time, const auto& x, const auto& box,
                   const auto& lj, float mass) {
    md::pack_positions(x, host_pos.data());
    dma.get_large(ls, ls_pos, host_pos.data(), n * sizeof(emdpa::Vec4f), 1);
    const ModelTime dma_in = dma.wait_on_tags(1u << 1, ModelTime::zero());

    // Every blade computes its slice bundle; the step waits for the slowest
    // blade (its SPEs run concurrently within the blade).
    ModelTime slowest_blade;
    for (int blade = 0; blade < blades; ++blade) {
      ModelTime slowest_spe;
      for (int s = 0; s < spes; ++s) {
        const int slice = blade * spes + s;
        SpeKernelParams params;
        params.box_edge = box.edge();
        params.cutoff_sq = lj.cutoff_squared();
        params.epsilon = lj.epsilon;
        params.sigma = lj.sigma;
        params.inv_mass = 1.0f / mass;
        params.n_atoms = static_cast<std::uint32_t>(n);
        params.i_begin = static_cast<std::uint32_t>(
            n * static_cast<std::size_t>(slice) /
            static_cast<std::size_t>(total_slices));
        params.i_end = static_cast<std::uint32_t>(
            n * (static_cast<std::size_t>(slice) + 1) /
            static_cast<std::size_t>(total_slices));

        const SpeKernelResult kr = run_spe_accel_kernel(
            options_.variant, params, ls, ls_pos, ls_acc);
        slowest_spe = std::max(
            slowest_spe, spe_clock.to_time(kr.work.cycles(blade_config_.spe_costs)));
        result.ops.add("cluster.pair_candidates", kr.stats.candidates);
      }
      slowest_blade = std::max(slowest_blade, slowest_spe);
    }
    t_compute += slowest_blade;
    // Each blade's PPE orchestrates its own SPEs; blades run concurrently,
    // so the per-step overhead is paid once, not per blade.
    t_overhead += blade_config_.ppe_step_overhead;

    // Ring allgather so every blade sees all updated positions next step
    // (accelerations travel the same wire the other way; the symmetric cost
    // is folded into the same call).
    const std::size_t bytes_per_blade =
        (n / static_cast<std::size_t>(blades) + 1) * sizeof(emdpa::Vec4f);
    const ModelTime comm =
        ring_allgather_time(options_.interconnect, bytes_per_blade, blades) *
        2.0;
    t_comm += comm;

    time = dma_in + slowest_blade + blade_config_.ppe_step_overhead + comm;
    // Collect accelerations + PE from the LS image (physics side).
    return md::unpack_forces(ls.data_at<emdpa::Vec4f>(ls_acc, n), n);
  };

  const ModelTime launch = blade_config_.thread_launch *
                           static_cast<double>(spes);  // per blade, parallel
  const ModelTime t_integration = ppe_integration_time(blade_config_, n);
  md::run_timed_region(
      std::move(workload), run_config,
      {.force = force,
       .charge_step = [&] { return t_integration; },
       .launch = launch,
       .reset = [&] { t_comm = t_compute = t_overhead = ModelTime::zero(); }},
      result);

  result.breakdown["interconnect"] = t_comm;
  result.breakdown["compute"] = t_compute;
  result.breakdown["blade_overhead"] = t_overhead;
  result.breakdown["spe_launch"] = launch;
  return result;
}

}  // namespace emdpa::cell
