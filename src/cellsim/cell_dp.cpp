#include "cellsim/cell_dp.h"

#include <cmath>

#include "core/aligned_buffer.h"
#include "core/error.h"
#include "core/vec4.h"
#include "md/device_model.h"

namespace emdpa::cell {

namespace {

/// Closest periodic image, per axis — identical candidate order to the
/// single-precision kernels, in double.
inline double closest_image_dp(double d, double edge) {
  double best = d;
  double best_abs = std::fabs(d);
  for (const double shift : {edge, -edge}) {
    const double cand = d + shift;
    const double cand_abs = std::fabs(cand);
    if (cand_abs < best_abs) {
      best = cand;
      best_abs = cand_abs;
    }
  }
  return best;
}

}  // namespace

SpeDpKernelResult run_spe_accel_kernel_dp(const SpeDpKernelParams& params,
                                          const SpeDpCosts& dp_costs,
                                          LocalStore& ls, LsAddr positions,
                                          LsAddr accel_out) {
  EMDPA_REQUIRE(params.i_begin <= params.i_end && params.i_end <= params.n_atoms,
                "SPE atom range out of bounds");
  const auto* pos = ls.data_at<emdpa::Vec4d>(positions, params.n_atoms);
  auto* acc = ls.data_at<emdpa::Vec4d>(accel_out, params.n_atoms);

  SpeDpKernelResult result;
  SpeWork& work = result.work;
  const double sm = dp_costs.simd_multiplier;      // per DP vector op
  const double cm = dp_costs.scalar_multiplier;    // per DP scalar op
  auto dp_simd = [&](double n) {
    work.simd += static_cast<std::uint64_t>(n * sm);
  };
  auto dp_scalar = [&](double n) {
    work.scalar += static_cast<std::uint64_t>(n * cm);
  };

  const double sigma2 = params.sigma * params.sigma;
  const double eps24 = 24.0 * params.epsilon;
  const double eps2 = 2.0 * params.epsilon;

  for (std::uint32_t i = params.i_begin; i < params.i_end; ++i) {
    work.loop_iter += 1;
    work.branch_taken += 1;
    work.load_store += 2;  // DP position is two quadwords
    const emdpa::Vec4d pi = pos[i];

    double acc_x = 0, acc_y = 0, acc_z = 0, pe_i = 0;

    for (std::uint32_t j = 0; j < params.n_atoms; ++j) {
      work.loop_iter += 1;
      work.branch_taken += 1;
      if (j == i) {
        work.branch_taken += 1;
        continue;
      }
      work.load_store += 2;

      // Direction (one DP vector sub covers 2 lanes; 2 ops for 3 comps).
      const double rx = pi.x - pos[j].x;
      const double ry = pi.y - pos[j].y;
      const double rz = pi.z - pos[j].z;
      dp_simd(2);

      // SIMD unit-cell search, 2-wide: twice the single-precision op count.
      const double dx = closest_image_dp(rx, params.box_edge);
      const double dy = closest_image_dp(ry, params.box_edge);
      const double dz = closest_image_dp(rz, params.box_edge);
      dp_simd(2 * 7);
      work.shuffle += 8;

      // Length.
      const double r2 = dx * dx + dy * dy + dz * dz;
      dp_simd(2);
      work.shuffle += 2;
      dp_scalar(2);

      ++result.stats.candidates;
      dp_scalar(1);  // cutoff compare
      if (!(r2 < params.cutoff_sq)) {
        work.branch_taken += 1;
        continue;
      }
      ++result.stats.interacting;

      const double inv_r2 = 1.0 / r2;
      const double s2 = sigma2 * inv_r2;
      const double s6 = s2 * s2 * s2;
      const double f_over_r = eps24 * inv_r2 * s6 * (2.0 * s6 - 1.0);
      pe_i += eps2 * s6 * (s6 - 1.0);
      work.fdiv_scalar += 2;  // DP divide: double the Newton refinement
      dp_scalar(12);

      acc_x += f_over_r * dx;
      acc_y += f_over_r * dy;
      acc_z += f_over_r * dz;
      dp_simd(2 + 2);  // splat-f multiply + accumulate across 2 registers
      work.shuffle += 1;
    }

    acc[i] = {acc_x * params.inv_mass, acc_y * params.inv_mass,
              acc_z * params.inv_mass, pe_i};
    dp_scalar(3);
    work.load_store += 2;
  }
  return result;
}

CellDpBackend::CellDpBackend(int n_spes, const CellConfig& config,
                             const SpeDpCosts& dp_costs)
    : n_spes_(n_spes), config_(config), dp_costs_(dp_costs) {
  EMDPA_REQUIRE(n_spes >= 1 && n_spes <= config.n_spes,
                "n_spes out of range for this Cell configuration");
}

std::string CellDpBackend::name() const {
  return "cell-" + std::to_string(n_spes_) + "spe[double-precision]";
}

md::RunResult CellDpBackend::run(const md::RunConfig& run_config) {
  EMDPA_REQUIRE(!run_config.lj.shifted,
                "the Cell port implements the paper's truncated LJ only");

  auto workload = md::make_device_workload<double>(run_config);
  const std::size_t n = workload.system.size();

  const ClockDomain spe_clock(config_.spe_clock_hz);

  AlignedBuffer<emdpa::Vec4d> host_pos(n), host_acc(n);

  // Per-SPE local stores: DP arrays are 32 B/atom, so the LS constraint
  // bites at half the atom count of the single-precision port.
  std::vector<LocalStore> stores;
  std::vector<SpeDpKernelParams> params(static_cast<std::size_t>(n_spes_));
  std::vector<LsAddr> ls_pos(params.size()), ls_acc(params.size());
  for (int s = 0; s < n_spes_; ++s) {
    stores.emplace_back(config_.local_store_bytes);
    auto& store = stores.back();
    store.allocate(kSpeProgramImageBytes, "spe program image + stack");
    ls_pos[static_cast<std::size_t>(s)] =
        store.allocate(n * sizeof(emdpa::Vec4d), "positions (dp)");
    ls_acc[static_cast<std::size_t>(s)] =
        store.allocate(n * sizeof(emdpa::Vec4d), "accelerations (dp)");
    auto& p = params[static_cast<std::size_t>(s)];
    p.box_edge = workload.box.edge();
    p.cutoff_sq = run_config.lj.cutoff_squared();
    p.epsilon = run_config.lj.epsilon;
    p.sigma = run_config.lj.sigma;
    p.inv_mass = 1.0 / workload.system.mass();
    p.n_atoms = static_cast<std::uint32_t>(n);
    p.i_begin = static_cast<std::uint32_t>(
        n * static_cast<std::size_t>(s) / static_cast<std::size_t>(n_spes_));
    p.i_end = static_cast<std::uint32_t>(n * (static_cast<std::size_t>(s) + 1) /
                                         static_cast<std::size_t>(n_spes_));
  }

  md::RunResult result;
  result.backend_name = name();
  ModelTime t_compute, t_dma;

  DmaEngine dma(config_.dma);

  auto force = [&](ModelTime& time, const auto& x, const auto&, const auto&,
                   double) {
    md::pack_positions(x, host_pos.data());
    ModelTime slowest;
    for (int s = 0; s < n_spes_; ++s) {
      auto& store = stores[static_cast<std::size_t>(s)];
      const auto& p = params[static_cast<std::size_t>(s)];
      dma.get_large(store, ls_pos[static_cast<std::size_t>(s)], host_pos.data(),
                    n * sizeof(emdpa::Vec4d), 1);
      const ModelTime dma_in = dma.wait_on_tags(1u << 1, ModelTime::zero());

      const SpeDpKernelResult kr = run_spe_accel_kernel_dp(
          p, dp_costs_, store, ls_pos[static_cast<std::size_t>(s)],
          ls_acc[static_cast<std::size_t>(s)]);
      const ModelTime compute =
          spe_clock.to_time(kr.work.cycles(config_.spe_costs));

      const std::size_t off = p.i_begin * sizeof(emdpa::Vec4d);
      dma.put_large(store,
                    LsAddr{ls_acc[static_cast<std::size_t>(s)].offset +
                           static_cast<std::uint32_t>(off)},
                    host_acc.data() + p.i_begin,
                    (p.i_end - p.i_begin) * sizeof(emdpa::Vec4d), 2);
      const ModelTime dma_out = dma.wait_on_tags(1u << 2, ModelTime::zero());

      slowest = std::max(slowest, dma_in + compute + dma_out);
      t_dma += dma_in + dma_out;
      t_compute += compute;
      result.ops.add("cell_dp.pair_candidates", kr.stats.candidates);
    }
    time = slowest + config_.ppe_step_overhead;
    return md::unpack_forces(host_acc.data(), n);
  };

  const ModelTime launch =
      config_.thread_launch * static_cast<double>(n_spes_);
  const ModelTime t_integration = ppe_integration_time(config_, n);
  md::run_timed_region(
      std::move(workload), run_config,
      {.force = force,
       .charge_step = [&] { return t_integration; },
       .launch = launch,
       .reset = [&] { t_compute = t_dma = ModelTime::zero(); }},
      result);

  result.breakdown["spe_launch"] = launch;
  result.breakdown["spe_compute"] = t_compute;
  result.breakdown["dma"] = t_dma;
  return result;
}

}  // namespace emdpa::cell
