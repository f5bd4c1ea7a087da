// Manifest parsing: the `emdpa batch` job-list grammar.
#include <gtest/gtest.h>

#include <sstream>

#include "core/error.h"
#include "core/fault_injection.h"
#include "driver/manifest.h"
#include "md/precision.h"

namespace emdpa::driver {
namespace {

std::vector<md::JobSpec> parse(const std::string& text) {
  std::istringstream in(text);
  return parse_manifest(in, "test");
}

TEST(ManifestTest, ParsesJobsWithDefaults) {
  const auto jobs = parse("alpha\nbeta steps=50\n");
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].name, "alpha");
  EXPECT_EQ(jobs[0].priority, 0);
  EXPECT_EQ(jobs[0].config.steps, 10);  // RunConfig default
  EXPECT_EQ(jobs[1].name, "beta");
  EXPECT_EQ(jobs[1].config.steps, 50);
}

TEST(ManifestTest, ParsesEveryKey) {
  const auto jobs = parse(
      "full priority=3 atoms=512 steps=200 density=0.9 temperature=1.2 "
      "dt=0.004 cutoff=3.0 seed=42 kernel=list precision=mixed "
      "degrade=1 drift_tol=0.05\n");
  ASSERT_EQ(jobs.size(), 1u);
  const md::JobSpec& job = jobs[0];
  EXPECT_EQ(job.priority, 3);
  EXPECT_EQ(job.config.workload.n_atoms, 512u);
  EXPECT_EQ(job.config.steps, 200);
  EXPECT_DOUBLE_EQ(job.config.workload.density, 0.9);
  EXPECT_DOUBLE_EQ(job.config.workload.temperature, 1.2);
  EXPECT_DOUBLE_EQ(job.config.dt, 0.004);
  EXPECT_DOUBLE_EQ(job.config.lj.cutoff, 3.0);
  EXPECT_EQ(job.config.workload.seed, 42u);
  EXPECT_EQ(job.config.host_kernel, md::HostKernel::kList);
  EXPECT_EQ(job.config.precision, md::PrecisionMode::kMixed);
  EXPECT_TRUE(job.config.degrade);
  EXPECT_DOUBLE_EQ(job.config.drift_tolerance, 0.05);
}

TEST(ManifestTest, SkipsCommentsAndBlankLines) {
  const auto jobs = parse("# a comment\n\n  \njob1\n# another\njob2\n");
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].name, "job1");
  EXPECT_EQ(jobs[1].name, "job2");
}

TEST(ManifestTest, ErrorsCarryLineNumbers) {
  try {
    parse("ok\nbad atoms=-4\n");
    FAIL() << "expected RuntimeFailure";
  } catch (const RuntimeFailure& e) {
    EXPECT_NE(std::string(e.what()).find("test:2"), std::string::npos)
        << e.what();
  }
}

TEST(ManifestTest, RejectsMalformedInput) {
  EXPECT_THROW(parse("job steps\n"), RuntimeFailure);          // no '='
  EXPECT_THROW(parse("job steps=\n"), RuntimeFailure);         // empty value
  EXPECT_THROW(parse("job =5\n"), RuntimeFailure);             // empty key
  EXPECT_THROW(parse("job steps=ten\n"), RuntimeFailure);      // not a number
  EXPECT_THROW(parse("job steps=2.5\n"), RuntimeFailure);      // not integral
  EXPECT_THROW(parse("job frobnicate=1\n"), RuntimeFailure);   // unknown key
  EXPECT_THROW(parse("job kernel=cuda\n"), RuntimeFailure);    // bad enum
  EXPECT_THROW(parse("job degrade=yes\n"), RuntimeFailure);    // bad bool
  EXPECT_THROW(parse("job drift_tol=0\n"), RuntimeFailure);    // must be > 0
  EXPECT_THROW(parse("dup\ndup\n"), RuntimeFailure);           // duplicate
  EXPECT_THROW(parse("# only comments\n"), RuntimeFailure);    // no jobs
  EXPECT_THROW(parse(""), RuntimeFailure);                     // empty
}

TEST(ManifestTest, RejectsNonPositiveOrNonFiniteTimeStep) {
  for (const char* dt : {"0", "-0.005", "nan", "inf"}) {
    SCOPED_TRACE(dt);
    try {
      parse(std::string("ok\njob dt=") + dt + "\n");
      FAIL() << "expected RuntimeFailure";
    } catch (const RuntimeFailure& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("test:2"), std::string::npos) << what;
      EXPECT_NE(what.find("dt must be positive"), std::string::npos) << what;
    }
  }
  EXPECT_DOUBLE_EQ(parse("job dt=0.002\n")[0].config.dt, 0.002);
}

TEST(ManifestTest, LoadManifestRejectsMissingFile) {
  EXPECT_THROW(load_manifest("/nonexistent/manifest.txt"), RuntimeFailure);
}

TEST(ManifestTest, ParsesSupervisionKeys) {
  const auto jobs =
      parse("guarded max_retries=2 deadline=1.5 slice_budget=7\nplain\n");
  ASSERT_EQ(jobs.size(), 2u);
  ASSERT_TRUE(jobs[0].max_retries.has_value());
  EXPECT_EQ(*jobs[0].max_retries, 2);
  ASSERT_TRUE(jobs[0].deadline_seconds.has_value());
  EXPECT_DOUBLE_EQ(*jobs[0].deadline_seconds, 1.5);
  ASSERT_TRUE(jobs[0].slice_budget.has_value());
  EXPECT_EQ(*jobs[0].slice_budget, 7u);
  // Absent keys stay absent so the batch-wide defaults apply.
  EXPECT_FALSE(jobs[1].max_retries.has_value());
  EXPECT_FALSE(jobs[1].deadline_seconds.has_value());
  EXPECT_FALSE(jobs[1].slice_budget.has_value());
}

TEST(ManifestTest, RejectsBadSupervisionValues) {
  EXPECT_THROW(parse("job max_retries=-1\n"), RuntimeFailure);
  EXPECT_THROW(parse("job max_retries=two\n"), RuntimeFailure);
  EXPECT_THROW(parse("job deadline=-0.5\n"), RuntimeFailure);
  EXPECT_THROW(parse("job slice_budget=-3\n"), RuntimeFailure);
}

TEST(ManifestTest, RejectsDuplicateKeysWithLineNumbers) {
  try {
    parse("ok\njob steps=10 steps=20\n");
    FAIL() << "expected RuntimeFailure";
  } catch (const RuntimeFailure& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("test:2"), std::string::npos) << what;
    EXPECT_NE(what.find("duplicate key 'steps'"), std::string::npos) << what;
  }
  EXPECT_THROW(parse("job priority=1 priority=1\n"), RuntimeFailure);
}

TEST(ManifestTest, InjectedReadFailureAbortsBeforeAdmittingJobs) {
  fault::Registry::instance().reset();
  {
    fault::Plan plan;
    fault::ScopedFault fault("md.manifest_parse", plan);
    EXPECT_THROW(parse("ok\n"), RuntimeFailure);
  }
  fault::Registry::instance().reset();
  EXPECT_EQ(parse("ok\n").size(), 1u);  // clean retry once the fault clears
}

TEST(ManifestTest, WhitespaceOnlyManifestSaysWhatItSaw) {
  try {
    parse("# comment\n\n   \n\t\n");
    FAIL() << "expected RuntimeFailure";
  } catch (const RuntimeFailure& e) {
    // The message distinguishes "file full of comments/blanks" from a
    // genuinely truncated manifest — it reports the line count it scanned.
    EXPECT_NE(std::string(e.what()).find("defines no jobs"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace emdpa::driver
