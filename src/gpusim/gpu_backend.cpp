#include "gpusim/gpu_backend.h"

#include "gpusim/md_shader.h"
#include "gpusim/reduction.h"
#include "md/device_model.h"

namespace emdpa::gpu {

const char* to_string(PeStrategy s) {
  switch (s) {
    case PeStrategy::kReadbackInW: return "pe-readback-in-w";
    case PeStrategy::kGpuReduction: return "pe-gpu-reduction";
  }
  return "unknown";
}

GpuBackend::GpuBackend(const GpuRunOptions& options,
                       const GpuDeviceConfig& device, const PcieConfig& pcie)
    : options_(options), device_config_(device), pcie_config_(pcie) {}

std::string GpuBackend::name() const {
  std::string n = "gpu-7900gtx";
  if (options_.pe_strategy == PeStrategy::kGpuReduction) n += "[reduction]";
  return n;
}

md::RunResult GpuBackend::run(const md::RunConfig& run_config) {
  EMDPA_REQUIRE(!run_config.lj.shifted,
                "the GPU port implements the paper's truncated LJ only");

  auto workload = md::make_device_workload<float>(run_config);
  const std::size_t n = workload.system.size();

  GpuDevice device(device_config_);
  PcieBus pcie(pcie_config_);
  const ClockDomain host_clock(host_.clock_hz);

  // One-time startup: GPU context + JIT compile with the constants baked in.
  MdShaderConstants constants;
  constants.box_edge = workload.box.edge();
  constants.cutoff_sq = workload.lj.cutoff_squared();
  constants.epsilon = workload.lj.epsilon;
  constants.sigma = workload.lj.sigma;
  constants.inv_mass = 1.0f / workload.system.mass();
  constants.n_atoms = static_cast<std::uint32_t>(n);

  MdAccelShader shader(constants);
  const CompiledShader compiled =
      device.compiler().compile(shader, shader.static_instruction_estimate());
  const ModelTime startup =
      ModelTime::milliseconds(300.0) + compiled.compile_time;  // context + JIT

  Texture2D positions = Texture2D::for_elements(n, "positions");
  Texture2D accelerations = Texture2D::for_elements(n, "accelerations");

  md::RunResult result;
  result.backend_name = name();
  ModelTime t_upload, t_pass, t_readback, t_host, t_reduction;

  // One acceleration evaluation at the current positions.  Box and LJ
  // constants are baked into the compiled shader.
  auto force = [&](ModelTime& elapsed, const auto& x, const auto&,
                   const auto&, float) {
    elapsed = ModelTime::zero();

    // Upload positions.
    {
      md::pack_positions(x, positions.host_data().data());
      const ModelTime t = pcie.upload(n * sizeof(emdpa::Vec4f));
      t_upload += t;
      elapsed += t;
    }

    // The acceleration pass.
    {
      const PassResult pass = device.run_pass(compiled, {&positions},
                                              accelerations, n);
      t_pass += pass.total();
      elapsed += pass.total();
      result.ops.add("gpu.fetches", pass.work.fetches);
      result.ops.add("gpu.alu_vec4", pass.work.alu_vec4);
      result.ops.add("gpu.passes");
    }

    float reduced_pe = 0.0f;
    if (options_.pe_strategy == PeStrategy::kGpuReduction) {
      // Rejected alternative: sum PE on the GPU first (extra passes), then
      // read back both the scalar and the accelerations.
      const ReductionOutcome red = reduce_w_on_gpu(device, pcie, accelerations, n);
      t_reduction += red.gpu_time + red.readback_time;
      elapsed += red.gpu_time + red.readback_time;
      result.ops.add("gpu.reduction_passes",
                     static_cast<std::uint64_t>(red.passes));
      reduced_pe = red.sum;
    }

    // Read the accelerations back (needed by the CPU integrator either way).
    const ModelTime t = pcie.readback(n * sizeof(emdpa::Vec4f));
    t_readback += t;
    elapsed += t;
    md::ForceResultF forces =
        md::unpack_forces(accelerations.host_data().data(), n);
    if (options_.pe_strategy == PeStrategy::kReadbackInW) {
      // The free ride: PE contributions arrive in w; the CPU sums them in
      // linear time (it is "well suited to this scalar task").
      const ModelTime t_sum = host_clock.to_time(CycleCount(
          static_cast<double>(n) * host_.pe_sum_flops_per_atom * host_.cpi));
      t_host += t_sum;
      elapsed += t_sum;
    } else {
      forces.potential_energy = reduced_pe;
    }
    return forces;
  };

  // The host's half kicks, drift and energy sums each step.
  const ModelTime t_int = host_clock.to_time(CycleCount(
      static_cast<double>(n) * host_.integration_flops_per_atom * host_.cpi));
  md::run_timed_region(
      std::move(workload), run_config,
      {.force = force,
       .charge_step =
           [&] {
             t_host += t_int;
             return t_int;
           },
       .reset =
           [&] {
             t_upload = t_pass = t_readback = t_host = t_reduction =
                 ModelTime::zero();
           }},
      result);

  result.breakdown["startup"] = startup;  // excluded from device_time (paper)
  result.breakdown["pcie_upload"] = t_upload;
  result.breakdown["gpu_pass"] = t_pass;
  result.breakdown["pcie_readback"] = t_readback;
  result.breakdown["host"] = t_host;
  if (options_.pe_strategy == PeStrategy::kGpuReduction) {
    result.breakdown["pe_reduction"] = t_reduction;
  }
  result.ops.add("pcie.bytes_up", pcie.bytes_uploaded());
  result.ops.add("pcie.bytes_down", pcie.bytes_read_back());
  return result;
}

}  // namespace emdpa::gpu
