#include <gtest/gtest.h>

#include "core/error.h"
#include "driver/cli_options.h"

namespace emdpa::driver {
namespace {

TEST(CliOptions, NoArgsIsHelp) {
  EXPECT_EQ(parse_cli({}).command, CliCommand::kHelp);
  EXPECT_EQ(parse_cli({"help"}).command, CliCommand::kHelp);
  EXPECT_EQ(parse_cli({"--help"}).command, CliCommand::kHelp);
}

TEST(CliOptions, ListCommand) {
  EXPECT_EQ(parse_cli({"list"}).command, CliCommand::kList);
}

TEST(CliOptions, RunRequiresBackend) {
  EXPECT_THROW(parse_cli({"run"}), RuntimeFailure);
  const auto options = parse_cli({"run", "--backend", "gpu"});
  EXPECT_EQ(options.command, CliCommand::kRun);
  EXPECT_EQ(options.backend, "gpu");
}

TEST(CliOptions, DefaultsMatchRunConfig) {
  const auto options = parse_cli({"run", "--backend", "host"});
  const md::RunConfig defaults;
  EXPECT_EQ(options.run_config.workload.n_atoms, defaults.workload.n_atoms);
  EXPECT_EQ(options.run_config.steps, defaults.steps);
  EXPECT_FALSE(options.csv);
}

TEST(CliOptions, AllFlagsParsed) {
  const auto options = parse_cli(
      {"run", "--backend", "opteron", "--atoms", "2048", "--steps", "10",
       "--density", "0.9", "--temperature", "1.2", "--dt", "0.002",
       "--cutoff", "3.0", "--seed", "99", "--csv"});
  EXPECT_EQ(options.run_config.workload.n_atoms, 2048u);
  EXPECT_EQ(options.run_config.steps, 10);
  EXPECT_DOUBLE_EQ(options.run_config.workload.density, 0.9);
  EXPECT_DOUBLE_EQ(options.run_config.workload.temperature, 1.2);
  EXPECT_DOUBLE_EQ(options.run_config.dt, 0.002);
  EXPECT_DOUBLE_EQ(options.run_config.lj.cutoff, 3.0);
  EXPECT_EQ(options.run_config.workload.seed, 99u);
  EXPECT_TRUE(options.csv);
}

TEST(CliOptions, CompareCommandTakesWorkloadFlags) {
  const auto options = parse_cli({"compare", "--atoms", "512"});
  EXPECT_EQ(options.command, CliCommand::kCompare);
  EXPECT_EQ(options.run_config.workload.n_atoms, 512u);
}

TEST(CliOptions, KernelFlagSelectsHostKernel) {
  EXPECT_EQ(parse_cli({"run", "--backend", "host-parallel"})
                .run_config.host_kernel,
            md::HostKernel::kAuto);
  EXPECT_EQ(parse_cli({"run", "--backend", "host-parallel", "--kernel", "n2"})
                .run_config.host_kernel,
            md::HostKernel::kN2);
  EXPECT_EQ(parse_cli({"run", "--backend", "host-parallel", "--kernel", "list"})
                .run_config.host_kernel,
            md::HostKernel::kList);
  EXPECT_EQ(parse_cli({"run", "--backend", "host-parallel", "--kernel", "auto"})
                .run_config.host_kernel,
            md::HostKernel::kAuto);
}

TEST(CliOptions, KernelFlagRejectsUnknownMode) {
  EXPECT_THROW(
      parse_cli({"run", "--backend", "host-parallel", "--kernel", "verlet"}),
      RuntimeFailure);
  EXPECT_THROW(parse_cli({"run", "--backend", "host-parallel", "--kernel"}),
               RuntimeFailure);
}

TEST(CliOptions, RejectsBadInput) {
  EXPECT_THROW(parse_cli({"frobnicate"}), RuntimeFailure);
  EXPECT_THROW(parse_cli({"run", "--backend"}), RuntimeFailure);
  EXPECT_THROW(parse_cli({"run", "--backend", "gpu", "--atoms", "many"}),
               RuntimeFailure);
  EXPECT_THROW(parse_cli({"run", "--backend", "gpu", "--atoms", "0"}),
               RuntimeFailure);
  EXPECT_THROW(parse_cli({"run", "--backend", "gpu", "--atoms", "2.5"}),
               RuntimeFailure);
  EXPECT_THROW(parse_cli({"run", "--backend", "gpu", "--steps", "-3"}),
               RuntimeFailure);
  EXPECT_THROW(parse_cli({"run", "--backend", "gpu", "--wat"}), RuntimeFailure);
}

TEST(CliOptions, UsageMentionsEveryBackend) {
  const std::string usage = cli_usage();
  EXPECT_NE(usage.find("cell-8spe"), std::string::npos);
  EXPECT_NE(usage.find("mta2"), std::string::npos);
  EXPECT_NE(usage.find("--atoms"), std::string::npos);
  EXPECT_NE(usage.find("--kernel"), std::string::npos);
}

TEST(CliOptions, ResilienceFlagsPopulateRunConfig) {
  const CliOptions options = parse_cli(
      {"run", "--backend", "host-parallel", "--checkpoint", "run.ckpt",
       "--checkpoint-every", "50", "--resume", "old.ckpt", "--degrade",
       "--drift-tol", "0.01"});
  EXPECT_EQ(options.run_config.checkpoint_path, "run.ckpt");
  EXPECT_EQ(options.run_config.checkpoint_every, 50);
  EXPECT_EQ(options.run_config.resume_path, "old.ckpt");
  EXPECT_TRUE(options.run_config.degrade);
  EXPECT_EQ(options.run_config.drift_tolerance, 0.01);
}

TEST(CliOptions, ResilienceDefaultsAreOff) {
  const CliOptions options = parse_cli({"run", "--backend", "host-parallel"});
  EXPECT_TRUE(options.run_config.checkpoint_path.empty());
  EXPECT_EQ(options.run_config.checkpoint_every, 0);
  EXPECT_TRUE(options.run_config.resume_path.empty());
  EXPECT_FALSE(options.run_config.degrade);
  EXPECT_EQ(options.run_config.drift_tolerance, 0.0);
}

TEST(CliOptions, ResilienceFlagsRejectBadInput) {
  EXPECT_THROW(parse_cli({"run", "--backend", "x", "--checkpoint-every", "0",
                          "--checkpoint", "c"}),
               RuntimeFailure);
  EXPECT_THROW(parse_cli({"run", "--backend", "x", "--drift-tol", "-1"}),
               RuntimeFailure);
  // Periodic saves need somewhere to go.
  EXPECT_THROW(parse_cli({"run", "--backend", "x", "--checkpoint-every", "5"}),
               RuntimeFailure);
}

TEST(CliOptions, SimdAndPrecisionFlagsPopulateRunConfig) {
  const CliOptions defaults = parse_cli({"run", "--backend", "host-parallel"});
  EXPECT_FALSE(defaults.run_config.simd_isa.has_value());
  EXPECT_EQ(defaults.run_config.precision, md::PrecisionMode::kDouble);

  const CliOptions options =
      parse_cli({"run", "--backend", "host-parallel", "--simd", "sse2",
                 "--precision", "mixed"});
  ASSERT_TRUE(options.run_config.simd_isa.has_value());
  EXPECT_EQ(*options.run_config.simd_isa, simd::SimdType::kSse2);
  EXPECT_EQ(options.run_config.precision, md::PrecisionMode::kMixed);
}

TEST(CliOptions, SimdAndPrecisionFlagsRejectBadInput) {
  EXPECT_THROW(parse_cli({"run", "--backend", "x", "--simd", "altivec"}),
               RuntimeFailure);
  EXPECT_THROW(parse_cli({"run", "--backend", "x", "--simd"}), RuntimeFailure);
  EXPECT_THROW(parse_cli({"run", "--backend", "x", "--precision", "fp16"}),
               RuntimeFailure);
  EXPECT_THROW(parse_cli({"run", "--backend", "x", "--precision"}),
               RuntimeFailure);
}

TEST(CliOptions, UsageDocumentsSimdAndPrecision) {
  const std::string usage = cli_usage();
  EXPECT_NE(usage.find("--simd"), std::string::npos);
  EXPECT_NE(usage.find("--precision"), std::string::npos);
  EXPECT_NE(usage.find("EMDPA_SIMD"), std::string::npos);
}

TEST(CliOptions, UsageDocumentsResilience) {
  const std::string usage = cli_usage();
  EXPECT_NE(usage.find("--checkpoint-every"), std::string::npos);
  EXPECT_NE(usage.find("--resume"), std::string::npos);
  EXPECT_NE(usage.find("--degrade"), std::string::npos);
  EXPECT_NE(usage.find("--drift-tol"), std::string::npos);
  EXPECT_NE(usage.find("EMDPA_FAULTS"), std::string::npos);
}

TEST(CliOptions, ResumeForceFlag) {
  const CliOptions options = parse_cli(
      {"run", "--backend", "host-parallel", "--resume", "x.ckpt",
       "--resume-force"});
  EXPECT_TRUE(options.run_config.resume_force);
  // Forcing without a resume source is meaningless in run mode.
  EXPECT_THROW(
      parse_cli({"run", "--backend", "host-parallel", "--resume-force"}),
      RuntimeFailure);
}

TEST(CliOptions, BatchCommandParsesItsFlags) {
  const CliOptions options = parse_cli(
      {"batch", "--manifest", "jobs.txt", "--checkpoint-dir", "ck",
       "--slice", "50", "--max-in-flight", "2", "--threads", "4", "--csv"});
  EXPECT_EQ(options.command, CliCommand::kBatch);
  EXPECT_EQ(options.manifest_path, "jobs.txt");
  EXPECT_EQ(options.checkpoint_dir, "ck");
  EXPECT_EQ(options.slice_steps, 50);
  EXPECT_EQ(options.max_in_flight, 2u);
  EXPECT_EQ(options.threads, 4u);
  EXPECT_TRUE(options.csv);
}

TEST(CliOptions, BatchDefaultsAndValidation) {
  const CliOptions options = parse_cli(
      {"batch", "--manifest", "jobs.txt", "--checkpoint-dir", "ck"});
  EXPECT_EQ(options.slice_steps, 100);
  EXPECT_EQ(options.max_in_flight, 4u);

  EXPECT_THROW(parse_cli({"batch", "--checkpoint-dir", "ck"}), RuntimeFailure);
  EXPECT_THROW(parse_cli({"batch", "--manifest", "jobs.txt"}), RuntimeFailure);
  EXPECT_THROW(parse_cli({"batch", "--manifest", "jobs.txt",
                          "--checkpoint-dir", "ck", "--slice", "0"}),
               RuntimeFailure);
  EXPECT_THROW(parse_cli({"batch", "--manifest", "jobs.txt",
                          "--checkpoint-dir", "ck", "--max-in-flight", "-1"}),
               RuntimeFailure);
}

TEST(CliOptions, StoreAndWatchFlagsPopulateRunConfig) {
  const CliOptions options = parse_cli(
      {"run", "--backend", "host-parallel", "--store-dir", "traj",
       "--snapshot-every", "10", "--store-max-bytes", "1000000", "--watch",
       "energy,max_disp", "--watch-every", "5"});
  EXPECT_EQ(options.run_config.store_dir, "traj");
  EXPECT_EQ(options.run_config.store_every, 10);
  EXPECT_EQ(options.run_config.store_max_bytes, 1000000u);
  EXPECT_EQ(options.run_config.watch, "energy,max_disp");
  EXPECT_EQ(options.run_config.watch_every, 5);
}

TEST(CliOptions, StoreAndWatchFlagsRejectBadInput) {
  // A snapshot stride without a store directory has nowhere to write.
  EXPECT_THROW(parse_cli({"run", "--backend", "x", "--snapshot-every", "10"}),
               RuntimeFailure);
  EXPECT_THROW(parse_cli({"run", "--backend", "x", "--store-dir", "d",
                          "--snapshot-every", "0"}),
               RuntimeFailure);
  // Every frame is a keyframe: the old interval flag is an unknown flag.
  try {
    parse_cli({"run", "--backend", "x", "--store-dir", "d",
               "--keyframe-every", "4"});
    FAIL() << "--keyframe-every must be rejected";
  } catch (const RuntimeFailure& e) {
    EXPECT_NE(std::string(e.what()).find("unknown flag '--keyframe-every'"),
              std::string::npos)
        << e.what();
  }
  // Unknown observables fail at parse time, not steps into the run.
  EXPECT_THROW(parse_cli({"run", "--backend", "x", "--watch", "entropy"}),
               RuntimeFailure);
  EXPECT_THROW(parse_cli({"run", "--backend", "x", "--watch-every", "0",
                          "--watch", "energy"}),
               RuntimeFailure);
}

TEST(CliOptions, BisectCommandParsesSideOverrides) {
  const CliOptions options = parse_cli(
      {"bisect", "--store-dir", "traj", "--atoms", "64", "--steps", "48",
       "--snapshot-every", "8", "--a-kernel", "n2", "--b-kernel", "list",
       "--a-precision", "dp", "--b-precision", "sp", "--a-simd", "sse2",
       "--b-simd", "avx2", "--a-threads", "1", "--b-threads", "3",
       "--b-faults", "md.step_perturb:17"});
  EXPECT_EQ(options.command, CliCommand::kBisect);
  EXPECT_EQ(options.run_config.store_dir, "traj");
  EXPECT_EQ(options.run_config.store_every, 8);
  ASSERT_TRUE(options.bisect_a.kernel.has_value());
  EXPECT_EQ(*options.bisect_a.kernel, md::HostKernel::kN2);
  ASSERT_TRUE(options.bisect_b.kernel.has_value());
  EXPECT_EQ(*options.bisect_b.kernel, md::HostKernel::kList);
  ASSERT_TRUE(options.bisect_a.precision.has_value());
  EXPECT_EQ(*options.bisect_a.precision, md::PrecisionMode::kDouble);
  ASSERT_TRUE(options.bisect_b.precision.has_value());
  EXPECT_EQ(*options.bisect_b.precision, md::PrecisionMode::kSingle);
  ASSERT_TRUE(options.bisect_a.simd_isa.has_value());
  EXPECT_EQ(*options.bisect_a.simd_isa, simd::SimdType::kSse2);
  EXPECT_EQ(options.bisect_a.threads, 1u);
  EXPECT_EQ(options.bisect_b.threads, 3u);
  EXPECT_TRUE(options.bisect_a.faults.empty());
  EXPECT_EQ(options.bisect_b.faults, "md.step_perturb:17");
}

TEST(CliOptions, BisectValidation) {
  // bisect without a store directory has nowhere to record the two sides.
  EXPECT_THROW(parse_cli({"bisect", "--atoms", "64"}), RuntimeFailure);
  // Side overrides outside bisect are a usage error, not silently ignored.
  EXPECT_THROW(
      parse_cli({"run", "--backend", "x", "--a-precision", "sp"}),
      RuntimeFailure);
  EXPECT_THROW(parse_cli({"compare", "--b-faults", "md.step_perturb:1"}),
               RuntimeFailure);
  // Side flags validate their values like the shared ones do.
  EXPECT_THROW(parse_cli({"bisect", "--store-dir", "d", "--a-kernel", "wat"}),
               RuntimeFailure);
  EXPECT_THROW(parse_cli({"bisect", "--store-dir", "d", "--b-threads", "0"}),
               RuntimeFailure);
}

TEST(CliOptions, UsageDocumentsStoreWatchAndBisect) {
  const std::string usage = cli_usage();
  EXPECT_NE(usage.find("emdpa bisect"), std::string::npos);
  EXPECT_NE(usage.find("--store-dir"), std::string::npos);
  EXPECT_NE(usage.find("--snapshot-every"), std::string::npos);
  EXPECT_EQ(usage.find("--keyframe-every"), std::string::npos);
  EXPECT_NE(usage.find("--store-max-bytes"), std::string::npos);
  EXPECT_NE(usage.find("--watch"), std::string::npos);
  EXPECT_NE(usage.find("md.step_perturb"), std::string::npos);
  EXPECT_NE(usage.find("--a-precision"), std::string::npos);
}

TEST(CliOptions, UsageDocumentsBatchMode) {
  const std::string usage = cli_usage();
  EXPECT_NE(usage.find("emdpa batch"), std::string::npos);
  EXPECT_NE(usage.find("--manifest"), std::string::npos);
  EXPECT_NE(usage.find("--checkpoint-dir"), std::string::npos);
  EXPECT_NE(usage.find("--max-in-flight"), std::string::npos);
  EXPECT_NE(usage.find("--resume-force"), std::string::npos);
}

TEST(CliOptions, SupervisionFlagsPopulateBatchOptions) {
  const CliOptions defaults = parse_cli(
      {"batch", "--manifest", "jobs.txt", "--checkpoint-dir", "ck"});
  EXPECT_EQ(defaults.max_retries, 0);  // pre-supervision behaviour by default
  EXPECT_EQ(defaults.job_deadline, 0.0);
  EXPECT_EQ(defaults.job_slice_budget, 0u);
  EXPECT_TRUE(defaults.journal_path.empty());

  const CliOptions options = parse_cli(
      {"batch", "--manifest", "jobs.txt", "--checkpoint-dir", "ck",
       "--max-retries", "3", "--job-deadline", "2.5", "--job-slice-budget",
       "40", "--journal", "batch.wal"});
  EXPECT_EQ(options.max_retries, 3);
  EXPECT_DOUBLE_EQ(options.job_deadline, 2.5);
  EXPECT_EQ(options.job_slice_budget, 40u);
  EXPECT_EQ(options.journal_path, "batch.wal");
}

TEST(CliOptions, SupervisionFlagsRejectBadInput) {
  EXPECT_THROW(parse_cli({"batch", "--manifest", "j", "--checkpoint-dir", "c",
                          "--max-retries", "-1"}),
               RuntimeFailure);
  EXPECT_THROW(parse_cli({"batch", "--manifest", "j", "--checkpoint-dir", "c",
                          "--job-deadline", "0"}),
               RuntimeFailure);
  EXPECT_THROW(parse_cli({"batch", "--manifest", "j", "--checkpoint-dir", "c",
                          "--job-slice-budget", "0"}),
               RuntimeFailure);
}

TEST(CliOptions, SupervisionFlagsAreBatchOnly) {
  EXPECT_THROW(parse_cli({"run", "--backend", "x", "--max-retries", "2"}),
               RuntimeFailure);
  EXPECT_THROW(parse_cli({"run", "--backend", "x", "--job-deadline", "1"}),
               RuntimeFailure);
  EXPECT_THROW(parse_cli({"compare", "--journal", "batch.wal"}),
               RuntimeFailure);
}

TEST(CliOptions, UsageDocumentsSupervision) {
  const std::string usage = cli_usage();
  EXPECT_NE(usage.find("--max-retries"), std::string::npos);
  EXPECT_NE(usage.find("--job-deadline"), std::string::npos);
  EXPECT_NE(usage.find("--job-slice-budget"), std::string::npos);
  EXPECT_NE(usage.find("--journal"), std::string::npos);
  EXPECT_NE(usage.find("quarantined"), std::string::npos);
}

}  // namespace
}  // namespace emdpa::driver
