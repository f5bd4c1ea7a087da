// Device-model goldens: every modelled RunResult pinned bit for bit.
//
// Each device backend in the factory (plus the Cell cluster model, which is
// not in it) runs 500 atoms for 4 steps, and every number it reports is
// compared exactly, as hexfloat: device_time, each step time, each breakdown
// entry, each energy, every op counter, and an FNV-1a hash of the final
// positions, velocities and accelerations.  The other integration suites
// compare backends with each other or with tolerances; this one catches any
// change that moves a single modelled bit, whatever the thread count.  Each
// run is also checked to report device_time as the sum of its step times.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>

#include "cellsim/cell_cluster.h"
#include "driver/backend_factory.h"
#include "md/backend.h"

namespace emdpa {
namespace {

std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// FNV-1a over the bytes of every component of the final state.
std::uint64_t state_hash(const md::ParticleSystem& system) {
  std::uint64_t h = 14695981039346656037ull;
  auto mix = [&h](double v) {
    unsigned char bytes[sizeof v];
    std::memcpy(bytes, &v, sizeof v);
    for (const unsigned char b : bytes) {
      h ^= b;
      h *= 1099511628211ull;
    }
  };
  for (const auto* array : {&system.positions(), &system.velocities(),
                            &system.accelerations()}) {
    for (const auto& v : *array) {
      mix(v.x);
      mix(v.y);
      mix(v.z);
    }
  }
  return h;
}

std::string fingerprint(const md::RunResult& r) {
  std::string out = "device_time " + hex(r.device_time.to_seconds()) + "\n";
  for (std::size_t s = 0; s < r.step_times.size(); ++s) {
    out += "step_time[" + std::to_string(s) + "] " +
           hex(r.step_times[s].to_seconds()) + "\n";
  }
  for (const auto& [key, t] : r.breakdown) {
    out += "breakdown:" + key + " " + hex(t.to_seconds()) + "\n";
  }
  for (std::size_t s = 0; s < r.energies.size(); ++s) {
    out += "energy[" + std::to_string(s) + "] " + hex(r.energies[s].kinetic) +
           " " + hex(r.energies[s].potential) + "\n";
  }
  for (const auto& [key, n] : r.ops.entries()) {
    out += "ops:" + key + " " + std::to_string(n) + "\n";
  }
  char hash[32];
  std::snprintf(hash, sizeof hash, "%016llx",
                static_cast<unsigned long long>(state_hash(r.final_state)));
  return out + "state_hash " + hash + "\n";
}

md::RunConfig golden_config() {
  md::RunConfig cfg;
  cfg.workload.n_atoms = 500;
  cfg.steps = 4;
  return cfg;
}

const std::map<std::string, std::string>& goldens() {
  static const std::map<std::string, std::string> table = {
      {"host",
       "device_time 0x0p+0\n"
       "energy[0] 0x1.0e00000000001p+10 -0x1.3c2a433be7741p+11\n"
       "energy[1] 0x1.0ba5d5587218p+10 -0x1.3afcce4877185p+11\n"
       "energy[2] 0x1.04887cb2728d6p+10 -0x1.376dafa43d3d8p+11\n"
       "energy[3] 0x1.f1a99b33ba3f1p+9 -0x1.3199ffaf48eeep+11\n"
       "energy[4] 0x1.d1e11ceabb372p+9 -0x1.29c93760068cbp+11\n"
       "state_hash 103e640a6ced3991\n"},
      {"opteron",
       "device_time 0x1.946688c40e094p-4\n"
       "step_time[0] 0x1.94f985b1b80aep-6\n"
       "step_time[1] 0x1.9430ce446d36ap-6\n"
       "step_time[2] 0x1.9432df92bd838p-6\n"
       "step_time[3] 0x1.943cef87556p-6\n"
       "breakdown:compute 0x1.946688c40e094p-4\n"
       "energy[0] 0x1.0e00000000001p+10 -0x1.3c2a433be7741p+11\n"
       "energy[1] 0x1.0ba5d5587218p+10 -0x1.3afcce4877185p+11\n"
       "energy[2] 0x1.04887cb2728d6p+10 -0x1.376dafa43d3d8p+11\n"
       "energy[3] 0x1.f1a99b33ba3f1p+9 -0x1.3199ffaf48eeep+11\n"
       "energy[4] 0x1.d1e11ceabb372p+9 -0x1.29c93760068cbp+11\n"
       "ops:opteron.divides 109846\n"
       "ops:opteron.flops 252653074\n"
       "ops:opteron.l1_misses 7688\n"
       "ops:opteron.l2_misses 564\n"
       "ops:opteron.pair_candidates 499000\n"
       "ops:opteron.pair_interactions 54923\n"
       "state_hash 103e640a6ced3991\n"},
      {"cell-1spe",
       "device_time 0x1.4aee61f509fa2p-3\n"
       "step_time[0] 0x1.eaa972aa976dcp-5\n"
       "step_time[1] 0x1.15ab7ef451cbfp-5\n"
       "step_time[2] 0x1.15ad79cb48127p-5\n"
       "step_time[3] 0x1.15b71c69f69c6p-5\n"
       "breakdown:dma 0x1.ad7f29abcaf48p-18\n"
       "breakdown:mailbox 0x1.0c6f7a0b5ed8dp-18\n"
       "breakdown:ppe 0x1.8a94bbe4473cep-5\n"
       "breakdown:spe_compute 0x1.660884623ea84p-4\n"
       "breakdown:spe_launch 0x1.a9fbe76c8b43ap-6\n"
       "energy[0] 0x1.0e0002p+10 -0x1.3c2a48p+11\n"
       "energy[1] 0x1.0ba5dcp+10 -0x1.3afcbcp+11\n"
       "energy[2] 0x1.048878p+10 -0x1.376db2p+11\n"
       "energy[3] 0x1.f1a996p+9 -0x1.3199fcp+11\n"
       "energy[4] 0x1.d1e11cp+9 -0x1.29c92cp+11\n"
       "ops:cell.dma_bytes 80000\n"
       "ops:cell.dma_retries 0\n"
       "ops:cell.mailbox_retries 0\n"
       "ops:cell.mailbox_signals 4\n"
       "ops:cell.pair_candidates 1247500\n"
       "ops:cell.pair_interactions 137256\n"
       "ops:cell.spe_launches 1\n"
       "state_hash d89da073c7e90f58\n"},
      {"cell-2spe",
       "device_time 0x1.26b210db91d9p-3\n"
       "step_time[0] 0x1.3316e0d3502fep-4\n"
       "step_time[1] 0x1.7863b4742a382p-6\n"
       "step_time[2] 0x1.78652822ded24p-6\n"
       "step_time[3] 0x1.786c26f844fe4p-6\n"
       "breakdown:dma 0x1.6a634b28f33e6p-17\n"
       "breakdown:mailbox 0x1.0c6f7a0b5ed8dp-17\n"
       "breakdown:ppe 0x1.8a94bbe4473cep-5\n"
       "breakdown:spe_compute 0x1.660884623ea84p-4\n"
       "breakdown:spe_launch 0x1.a9fbe76c8b43ap-5\n"
       "energy[0] 0x1.0e0002p+10 -0x1.3c2a48p+11\n"
       "energy[1] 0x1.0ba5dcp+10 -0x1.3afcbcp+11\n"
       "energy[2] 0x1.048878p+10 -0x1.376db2p+11\n"
       "energy[3] 0x1.f1a996p+9 -0x1.3199fcp+11\n"
       "energy[4] 0x1.d1e11cp+9 -0x1.29c92cp+11\n"
       "ops:cell.dma_bytes 120000\n"
       "ops:cell.dma_retries 0\n"
       "ops:cell.mailbox_retries 0\n"
       "ops:cell.mailbox_signals 8\n"
       "ops:cell.pair_candidates 1247500\n"
       "ops:cell.pair_interactions 137256\n"
       "ops:cell.spe_launches 2\n"
       "state_hash d89da073c7e90f58\n"},
      {"cell-4spe",
       "device_time 0x1.6477d3eb3deaep-3\n"
       "step_time[0] 0x1.f1b88d9d037dep-4\n"
       "step_time[1] 0x1.1ef298c1e0e92p-6\n"
       "step_time[2] 0x1.1ef2dc5601bf5p-6\n"
       "step_time[3] 0x1.1ef6f3cdfeb74p-6\n"
       "breakdown:dma 0x1.48d55be787632p-16\n"
       "breakdown:mailbox 0x1.0c6f7a0b5ed8ep-16\n"
       "breakdown:ppe 0x1.8a94bbe4473cep-5\n"
       "breakdown:spe_compute 0x1.660884623ea85p-4\n"
       "breakdown:spe_launch 0x1.a9fbe76c8b43ap-4\n"
       "energy[0] 0x1.0e0002p+10 -0x1.3c2a48p+11\n"
       "energy[1] 0x1.0ba5dcp+10 -0x1.3afcbcp+11\n"
       "energy[2] 0x1.048878p+10 -0x1.376db2p+11\n"
       "energy[3] 0x1.f1a996p+9 -0x1.3199fcp+11\n"
       "energy[4] 0x1.d1e11cp+9 -0x1.29c92cp+11\n"
       "ops:cell.dma_bytes 200000\n"
       "ops:cell.dma_retries 0\n"
       "ops:cell.mailbox_retries 0\n"
       "ops:cell.mailbox_signals 16\n"
       "ops:cell.pair_candidates 1247500\n"
       "ops:cell.pair_interactions 137256\n"
       "ops:cell.spe_launches 4\n"
       "state_hash d89da073c7e90f58\n"},
      {"cell-8spe",
       "device_time 0x1.11a3bc6c463e1p-2\n"
       "step_time[0] 0x1.c84eb6a9414edp-3\n"
       "step_time[1] 0x1.e52cf3cb60b37p-7\n"
       "step_time[2] 0x1.e52d7af3a25fdp-7\n"
       "step_time[3] 0x1.e531b435afc2dp-7\n"
       "breakdown:dma 0x1.380e6446d175bp-15\n"
       "breakdown:mailbox 0x1.0c6f7a0b5ed8ep-15\n"
       "breakdown:ppe 0x1.8a94bbe4473cep-5\n"
       "breakdown:spe_compute 0x1.660884623ea83p-4\n"
       "breakdown:spe_launch 0x1.a9fbe76c8b43ap-3\n"
       "energy[0] 0x1.0e0002p+10 -0x1.3c2a48p+11\n"
       "energy[1] 0x1.0ba5dcp+10 -0x1.3afcbcp+11\n"
       "energy[2] 0x1.048878p+10 -0x1.376db2p+11\n"
       "energy[3] 0x1.f1a996p+9 -0x1.3199fcp+11\n"
       "energy[4] 0x1.d1e11cp+9 -0x1.29c92cp+11\n"
       "ops:cell.dma_bytes 360000\n"
       "ops:cell.dma_retries 0\n"
       "ops:cell.mailbox_retries 0\n"
       "ops:cell.mailbox_signals 32\n"
       "ops:cell.pair_candidates 1247500\n"
       "ops:cell.pair_interactions 137256\n"
       "ops:cell.spe_launches 8\n"
       "state_hash d89da073c7e90f58\n"},
      {"cell-8spe-respawn",
       "device_time 0x1.c84a9a09a3644p-1\n"
       "step_time[0] 0x1.c84a84eb59215p-3\n"
       "step_time[1] 0x1.c84a84eb59215p-3\n"
       "step_time[2] 0x1.c84a8d5ddd3c1p-3\n"
       "step_time[3] 0x1.c84ad0f1fe124p-3\n"
       "breakdown:dma 0x1.380e6446d175bp-15\n"
       "breakdown:mailbox 0x0p+0\n"
       "breakdown:ppe 0x1.8a94bbe4473cep-5\n"
       "breakdown:spe_compute 0x1.660884623ea83p-4\n"
       "breakdown:spe_launch 0x1.a9fbe76c8b43ep-1\n"
       "energy[0] 0x1.0e0002p+10 -0x1.3c2a48p+11\n"
       "energy[1] 0x1.0ba5dcp+10 -0x1.3afcbcp+11\n"
       "energy[2] 0x1.048878p+10 -0x1.376db2p+11\n"
       "energy[3] 0x1.f1a996p+9 -0x1.3199fcp+11\n"
       "energy[4] 0x1.d1e11cp+9 -0x1.29c92cp+11\n"
       "ops:cell.dma_bytes 360000\n"
       "ops:cell.dma_retries 0\n"
       "ops:cell.mailbox_retries 0\n"
       "ops:cell.pair_candidates 1247500\n"
       "ops:cell.pair_interactions 137256\n"
       "ops:cell.spe_launches 40\n"
       "state_hash d89da073c7e90f58\n"},
      {"cell-8spe-tiled",
       "device_time 0x1.11a41ddd71c6dp-2\n"
       "step_time[0] 0x1.c84ee761d7133p-3\n"
       "step_time[1] 0x1.e52fff54bcf95p-7\n"
       "step_time[2] 0x1.e530867cfea5bp-7\n"
       "step_time[3] 0x1.e534bfbf0c08bp-7\n"
       "breakdown:dma 0x1.995d33b7bd71p-15\n"
       "breakdown:mailbox 0x1.0c6f7a0b5ed8ep-15\n"
       "breakdown:ppe 0x1.8a94bbe4473cep-5\n"
       "breakdown:spe_compute 0x1.660884623ea83p-4\n"
       "breakdown:spe_launch 0x1.a9fbe76c8b43ap-3\n"
       "energy[0] 0x1.0e0002p+10 -0x1.3c2a48p+11\n"
       "energy[1] 0x1.0ba5dcp+10 -0x1.3afcbcp+11\n"
       "energy[2] 0x1.048878p+10 -0x1.376db2p+11\n"
       "energy[3] 0x1.f1a996p+9 -0x1.3199fcp+11\n"
       "energy[4] 0x1.d1e11cp+9 -0x1.29c92cp+11\n"
       "ops:cell.dma_bytes 400000\n"
       "ops:cell.dma_retries 0\n"
       "ops:cell.mailbox_retries 0\n"
       "ops:cell.mailbox_signals 32\n"
       "ops:cell.pair_candidates 1247500\n"
       "ops:cell.pair_interactions 137256\n"
       "ops:cell.spe_launches 8\n"
       "state_hash d89da073c7e90f58\n"},
      {"cell-ppe",
       "device_time 0x1.f7b25a4545da5p-2\n"
       "step_time[0] 0x1.f7af36b9d070cp-4\n"
       "step_time[1] 0x1.f7af36b9d070cp-4\n"
       "step_time[2] 0x1.f7b10acf66dbp-4\n"
       "step_time[3] 0x1.f7b9f0d20faccp-4\n"
       "breakdown:dma 0x0p+0\n"
       "breakdown:mailbox 0x0p+0\n"
       "breakdown:ppe 0x1.f7b25a4545da6p-2\n"
       "breakdown:spe_compute 0x0p+0\n"
       "breakdown:spe_launch 0x0p+0\n"
       "energy[0] 0x1.0e0002p+10 -0x1.3c2a48p+11\n"
       "energy[1] 0x1.0ba5dcp+10 -0x1.3afcbcp+11\n"
       "energy[2] 0x1.048878p+10 -0x1.376db2p+11\n"
       "energy[3] 0x1.f1a996p+9 -0x1.3199fcp+11\n"
       "energy[4] 0x1.d1e11cp+9 -0x1.29c92cp+11\n"
       "ops:cell.pair_candidates 1247500\n"
       "ops:cell.pair_interactions 137256\n"
       "state_hash d89da073c7e90f58\n"},
      {"cell-8spe-dp",
       "device_time 0x1.9112efc4a7171p-2\n"
       "step_time[0] 0x1.0402bd30efd96p-2\n"
       "step_time[1] 0x1.78264bd551bcdp-5\n"
       "step_time[2] 0x1.7827c3f1e568bp-5\n"
       "step_time[3] 0x1.783384d682c7fp-5\n"
       "breakdown:dma 0x1.cf0d18ed36cf5p-15\n"
       "breakdown:spe_compute 0x1.13184191ce51bp+0\n"
       "breakdown:spe_launch 0x1.a9fbe76c8b43ap-3\n"
       "energy[0] 0x1.0e00000000001p+10 -0x1.3c2a433be7741p+11\n"
       "energy[1] 0x1.0ba5d5587218p+10 -0x1.3afcce4877185p+11\n"
       "energy[2] 0x1.04887cb2728d6p+10 -0x1.376dafa43d3d8p+11\n"
       "energy[3] 0x1.f1a99b33ba3f1p+9 -0x1.3199ffaf48eeep+11\n"
       "energy[4] 0x1.d1e11ceabb372p+9 -0x1.29c93760068cbp+11\n"
       "ops:cell_dp.pair_candidates 1247500\n"
       "state_hash 103e640a6ced3991\n"},
      {"gpu",
       "device_time 0x1.258c4c3e07722p-5\n"
       "step_time[0] 0x1.258c4c3e07722p-7\n"
       "step_time[1] 0x1.258c4c3e07722p-7\n"
       "step_time[2] 0x1.258c4c3e07722p-7\n"
       "step_time[3] 0x1.258c4c3e07722p-7\n"
       "breakdown:gpu_pass 0x1.74b709e7672aap-6\n"
       "breakdown:host 0x1.16bb065c88aa9p-15\n"
       "breakdown:pcie_readback 0x1.8a618ec009e74p-7\n"
       "breakdown:pcie_upload 0x1.0a569b17481b2p-10\n"
       "breakdown:startup 0x1.5e9e1b089a027p-2\n"
       "energy[0] 0x1.0e0002p+10 -0x1.3c2a48p+11\n"
       "energy[1] 0x1.0ba5dcp+10 -0x1.3afcbcp+11\n"
       "energy[2] 0x1.048878p+10 -0x1.376db2p+11\n"
       "energy[3] 0x1.f1a996p+9 -0x1.3199fcp+11\n"
       "energy[4] 0x1.d1e11cp+9 -0x1.29c92cp+11\n"
       "ops:gpu.alu_vec4 28750000\n"
       "ops:gpu.fetches 1252500\n"
       "ops:gpu.passes 5\n"
       "ops:pcie.bytes_down 40000\n"
       "ops:pcie.bytes_up 40000\n"
       "state_hash d89da073c7e90f58\n"},
      {"gpu-reduction",
       "device_time 0x1.67cc1c015b0f1p-4\n"
       "step_time[0] 0x1.67cc1c015b0f1p-6\n"
       "step_time[1] 0x1.67cc1c015b0f1p-6\n"
       "step_time[2] 0x1.67cc1c015b0f1p-6\n"
       "step_time[3] 0x1.67cc1c015b0f1p-6\n"
       "breakdown:gpu_pass 0x1.74b709e7672aap-6\n"
       "breakdown:host 0x1.103f9b0cfc8edp-15\n"
       "breakdown:pcie_readback 0x1.8a618ec009e74p-7\n"
       "breakdown:pcie_upload 0x1.0a569b17481b2p-10\n"
       "breakdown:pe_reduction 0x1.aa0d8a9f828f2p-5\n"
       "breakdown:startup 0x1.5e9e1b089a027p-2\n"
       "energy[0] 0x1.0e0002p+10 -0x1.3c2a4p+11\n"
       "energy[1] 0x1.0ba5dcp+10 -0x1.3afccep+11\n"
       "energy[2] 0x1.048878p+10 -0x1.376dbp+11\n"
       "energy[3] 0x1.f1a996p+9 -0x1.319ap+11\n"
       "energy[4] 0x1.d1e11cp+9 -0x1.29c934p+11\n"
       "ops:gpu.alu_vec4 28750000\n"
       "ops:gpu.fetches 1252500\n"
       "ops:gpu.passes 5\n"
       "ops:gpu.reduction_passes 25\n"
       "ops:pcie.bytes_down 40080\n"
       "ops:pcie.bytes_up 40000\n"
       "state_hash d89da073c7e90f58\n"},
      {"mta2",
       "device_time 0x1.44f68a357887dp+0\n"
       "step_time[0] 0x1.44f483cafb3b8p-2\n"
       "step_time[1] 0x1.44f483cafb3b8p-2\n"
       "step_time[2] 0x1.44f5b1c864884p-2\n"
       "step_time[3] 0x1.44fb6f77872p-2\n"
       "breakdown:force_loop 0x1.44e041f497163p+0\n"
       "breakdown:other_loops 0x1.64840e1719f8p-12\n"
       "energy[0] 0x1.0e00000000001p+10 -0x1.3c2a433be7741p+11\n"
       "energy[1] 0x1.0ba5d5587218p+10 -0x1.3afcce4877185p+11\n"
       "energy[2] 0x1.04887cb2728d6p+10 -0x1.376dafa43d3d8p+11\n"
       "energy[3] 0x1.f1a99b33ba3f1p+9 -0x1.3199ffaf48eeep+11\n"
       "energy[4] 0x1.d1e11ceabb372p+9 -0x1.29c93760068cbp+11\n"
       "ops:mta.fe_operations 2000\n"
       "ops:mta.force_loop_parallel 1\n"
       "ops:mta.pair_candidates 623750\n"
       "ops:mta.pair_interactions 68628\n"
       "ops:mta.parallel_instructions 253861380\n"
       "state_hash 103e640a6ced3991\n"},
      {"mta2-partial",
       "device_time 0x1.aa60d9798379ap+4\n"
       "step_time[0] 0x1.aa5e310dbf057p+2\n"
       "step_time[1] 0x1.aa5e310dbf057p+2\n"
       "step_time[2] 0x1.aa5fbd6a593a2p+2\n"
       "step_time[3] 0x1.aa67466036a18p+2\n"
       "breakdown:force_loop 0x1.aa5f74f575628p+4\n"
       "breakdown:other_loops 0x1.64840e1719f8p-12\n"
       "energy[0] 0x1.0e00000000001p+10 -0x1.3c2a433be7741p+11\n"
       "energy[1] 0x1.0ba5d5587218p+10 -0x1.3afcce4877185p+11\n"
       "energy[2] 0x1.04887cb2728d6p+10 -0x1.376dafa43d3d8p+11\n"
       "energy[3] 0x1.f1a99b33ba3f1p+9 -0x1.3199ffaf48eeep+11\n"
       "energy[4] 0x1.d1e11ceabb372p+9 -0x1.29c93760068cbp+11\n"
       "ops:mta.force_loop_serial 1\n"
       "ops:mta.pair_candidates 623750\n"
       "ops:mta.pair_interactions 68628\n"
       "ops:mta.parallel_instructions 68000\n"
       "ops:mta.serial_instructions 253793380\n"
       "state_hash 103e640a6ced3991\n"},
      {"xmt",
       "device_time 0x1.03f43cd3450cp-1\n"
       "step_time[0] 0x1.03f29e17ad9bbp-3\n"
       "step_time[1] 0x1.03f29e17ad9bbp-3\n"
       "step_time[2] 0x1.03f38faf350c5p-3\n"
       "step_time[3] 0x1.03f8276e83ec3p-3\n"
       "breakdown:compute 0x1.03f43cd3450cp-1\n"
       "energy[0] 0x1.0e00000000001p+10 -0x1.3c2a433be7741p+11\n"
       "energy[1] 0x1.0ba5d5587218p+10 -0x1.3afcce4877185p+11\n"
       "energy[2] 0x1.04887cb2728d6p+10 -0x1.376dafa43d3d8p+11\n"
       "energy[3] 0x1.f1a99b33ba3f1p+9 -0x1.3199ffaf48eeep+11\n"
       "energy[4] 0x1.d1e11ceabb372p+9 -0x1.29c93760068cbp+11\n"
       "ops:xmt.pair_candidates 623750\n"
       "state_hash 103e640a6ced3991\n"},
      {"cell-cluster",
       "device_time 0x1.0cc28dd689c36p-2\n"
       "step_time[0] 0x1.c5de26c296a8ep-3\n"
       "step_time[1] 0x1.be23f560b6547p-7\n"
       "step_time[2] 0x1.be247c88f800dp-7\n"
       "step_time[3] 0x1.be26dcbe1f889p-7\n"
       "breakdown:blade_overhead 0x1.89374bc6a7efap-5\n"
       "breakdown:compute 0x1.6eefeb4eb1d8ap-8\n"
       "breakdown:interconnect 0x1.6ad86dd7395e6p-11\n"
       "breakdown:spe_launch 0x1.a9fbe76c8b43ap-3\n"
       "energy[0] 0x1.0e0002p+10 -0x1.3c2a48p+11\n"
       "energy[1] 0x1.0ba5dcp+10 -0x1.3afcbcp+11\n"
       "energy[2] 0x1.048878p+10 -0x1.376db2p+11\n"
       "energy[3] 0x1.f1a996p+9 -0x1.3199fcp+11\n"
       "energy[4] 0x1.d1e11cp+9 -0x1.29c92cp+11\n"
       "ops:cluster.pair_candidates 1247500\n"
       "state_hash d89da073c7e90f58\n"},
  };
  return table;
}

void expect_golden(const std::string& key, md::MdBackend& backend) {
  const md::RunResult result = backend.run(golden_config());

  // device_time is the left-to-right sum of the step times, bit for bit:
  // the one-time launches charged to step 0 count in both.
  ModelTime sum;
  for (const ModelTime t : result.step_times) sum += t;
  EXPECT_EQ(hex(result.device_time.to_seconds()), hex(sum.to_seconds()))
      << key << ": device_time is not the sum of its step times";

  const std::string actual = fingerprint(result);
  const auto it = goldens().find(key);
  if (it == goldens().end()) {
    ADD_FAILURE() << "no golden for " << key << "; actual:\n" << actual;
    return;
  }
  EXPECT_EQ(it->second, actual) << key << " actual:\n" << actual;
}

TEST(DeviceModelGolden, EveryFactoryBackend) {
  for (const auto& info : driver::available_backends()) {
    // host-parallel dispatches per CPU (ISA, thread count) and reports wall
    // time; its bitwise contracts live in the md and trajectory suites.
    if (info.key == "host-parallel") continue;
    SCOPED_TRACE(info.key);
    const auto backend = driver::make_backend(info.key);
    expect_golden(info.key, *backend);
  }
}

TEST(DeviceModelGolden, CellCluster) {
  cell::CellClusterBackend backend;
  expect_golden("cell-cluster", backend);
}

}  // namespace
}  // namespace emdpa
