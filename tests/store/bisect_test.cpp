// emdpa bisect self-tests: the differential harness must localise a known
// injected divergence to its exact step within the advertised replay bound,
// report sp-vs-dp divergence stably across reruns, and call bitwise-equal
// pairs clean.
#include "driver/bisect.h"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <string>

#include "core/error.h"
#include "core/random.h"
#include "md/precision.h"

namespace emdpa::driver {
namespace {

namespace fs = std::filesystem;

class BisectTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::path(::testing::TempDir()) /
            (std::string("bisect_") +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// A small fast dp pair: 64 atoms (N^2 kernel), 48 steps, snapshot
  /// stride 8 — 6 snapshot intervals, so the replay bound is
  /// ceil(log2(6)) + 1 = 4.
  BisectOptions base_pair(const std::string& subdir) {
    BisectOptions options;
    options.store_dir = dir_ + "/" + subdir;
    for (BisectSide* side : {&options.a, &options.b}) {
      side->config.workload.n_atoms = 64;
      side->config.steps = 48;
      side->config.store_every = 8;
    }
    options.a.label = "a";
    options.b.label = "b";
    return options;
  }

  std::string dir_;
};

TEST(BisectUlp, UlpDistanceIsBitAccurate) {
  EXPECT_EQ(ulp_distance(1.0, 1.0), 0u);
  EXPECT_EQ(ulp_distance(-2.5, -2.5), 0u);
  const double up = std::nextafter(1.0, 2.0);
  EXPECT_EQ(ulp_distance(1.0, up), 1u);
  EXPECT_EQ(ulp_distance(up, 1.0), 1u);
  // -0.0 and +0.0 are distinct bit patterns one rank apart.
  EXPECT_EQ(ulp_distance(0.0, -0.0), 1u);
  // Distance is symmetric across the sign boundary, not bit-pattern naive.
  const double neg = std::nextafter(0.0, -1.0);
  const double pos = std::nextafter(0.0, 1.0);
  EXPECT_EQ(ulp_distance(neg, pos), 3u);  // neg, -0.0, +0.0, pos
}

TEST_F(BisectTest, IdenticalDpSidesReportNoDivergence) {
  const BisectReport report = run_bisect(base_pair("self"));
  EXPECT_FALSE(report.diverged);
  EXPECT_EQ(report.first_divergence_step, -1);
  const std::string text = render_bisect_report(report);
  EXPECT_NE(text.find("bisect: no divergence"), std::string::npos);
}

TEST_F(BisectTest, DifferentThreadCountsReportNoDivergence) {
  // The determinism guarantee, demonstrated through the harness built to
  // catch its violation: thread count must not change the trajectory.
  BisectOptions options = base_pair("threads");
  options.a.threads = 1;
  options.b.threads = 3;
  EXPECT_FALSE(run_bisect(options).diverged);
}

TEST_F(BisectTest, InjectedFaultIsLocalizedExactlyWithinTheReplayBound) {
  // Random fault steps across the run — early, mid-window, on a snapshot
  // boundary, and at the very last step.  The one-ulp md.step_perturb kick
  // at step K first shows in the post-step state of step K, and bisect must
  // name exactly that step in at most ceil(log2(steps/stride)) + 1 replays.
  Rng rng(20070326);
  std::vector<long> fault_steps = {1, 8, 48};
  for (int i = 0; i < 3; ++i) {
    fault_steps.push_back(1 + static_cast<long>(rng.uniform_index(48)));
  }
  for (const long k : fault_steps) {
    BisectOptions options = base_pair("fault" + std::to_string(k));
    options.b.faults = "md.step_perturb:" + std::to_string(k);
    const BisectReport report = run_bisect(options);
    EXPECT_TRUE(report.diverged) << "fault step " << k;
    EXPECT_EQ(report.first_divergence_step, k) << "fault step " << k;
    EXPECT_EQ(report.replay_bound, 4) << "fault step " << k;  // ceil(lg 6)+1
    EXPECT_LE(report.replays_per_side, report.replay_bound)
        << "fault step " << k;
    EXPECT_GE(report.window_lo, 0L);
    EXPECT_GT(report.window_hi, report.window_lo);
    EXPECT_LE(report.window_lo, k - 1);
    EXPECT_GE(report.window_hi, k);
    // A one-ulp velocity kick is a one-ulp delta at the divergence step.
    EXPECT_EQ(report.atom, 0u) << "fault step " << k;
    EXPECT_EQ(report.component, "vel.x") << "fault step " << k;
    EXPECT_EQ(report.ulp_delta, 1u) << "fault step " << k;
  }
}

TEST_F(BisectTest, FaultReportIsGrepStable) {
  BisectOptions options = base_pair("grep");
  options.b.faults = "md.step_perturb:17";
  const std::string text = render_bisect_report(run_bisect(options));
  EXPECT_NE(text.find("bisect: first divergence at step 17"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("replays per side"), std::string::npos);
}

TEST_F(BisectTest, SpVsDpLocalizationIsStableAcrossReruns) {
  // sp-vs-dp divergence is physics, not noise: two independent bisections
  // (fresh stores, fresh replays) must name the same step, atom and
  // component.
  BisectOptions first = base_pair("spdp1");
  first.b.config.precision = md::PrecisionMode::kSingle;
  BisectOptions second = base_pair("spdp2");
  second.b.config.precision = md::PrecisionMode::kSingle;

  const BisectReport r1 = run_bisect(first);
  const BisectReport r2 = run_bisect(second);
  ASSERT_TRUE(r1.diverged);
  ASSERT_TRUE(r2.diverged);
  // Float arithmetic differs from the first force evaluation onward.
  EXPECT_EQ(r1.first_divergence_step, 1);
  EXPECT_EQ(r2.first_divergence_step, r1.first_divergence_step);
  EXPECT_EQ(r2.atom, r1.atom);
  EXPECT_EQ(r2.component, r1.component);
  EXPECT_EQ(r2.ulp_delta, r1.ulp_delta);
  EXPECT_LE(r1.replays_per_side, r1.replay_bound);
}

TEST_F(BisectTest, MismatchedPairsAreRejected) {
  BisectOptions no_dir = base_pair("x");
  no_dir.store_dir.clear();
  EXPECT_THROW(run_bisect(no_dir), RuntimeFailure);

  BisectOptions steps = base_pair("steps");
  steps.b.config.steps = 40;
  EXPECT_THROW(run_bisect(steps), RuntimeFailure);

  BisectOptions stride = base_pair("stride");
  stride.b.config.store_every = 4;
  EXPECT_THROW(run_bisect(stride), RuntimeFailure);

  // Different workloads diverge at step 0 — that is an input error, not a
  // divergence to bisect.
  BisectOptions workload = base_pair("workload");
  workload.b.config.workload.seed += 1;
  EXPECT_THROW(run_bisect(workload), RuntimeFailure);
}

}  // namespace
}  // namespace emdpa::driver
