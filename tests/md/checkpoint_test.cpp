#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "core/error.h"
#include "md/checkpoint.h"
#include "md/workload.h"

namespace emdpa::md {
namespace {

ParticleSystem sample_system() {
  WorkloadSpec spec;
  spec.n_atoms = 27;
  Workload w = make_lattice_workload(spec);
  w.system.accelerations()[3] = {0.1, -0.2, 0.3};
  return std::move(w.system);
}

TEST(Checkpoint, RoundTripIsBitExact) {
  const ParticleSystem original = sample_system();
  PeriodicBox box(5.5);

  std::stringstream stream;
  save_checkpoint(stream, original, box, 42);
  const Checkpoint cp = load_checkpoint(stream);

  EXPECT_EQ(cp.step, 42);
  EXPECT_DOUBLE_EQ(cp.box_edge, 5.5);
  ASSERT_EQ(cp.system.size(), original.size());
  EXPECT_EQ(cp.system.mass(), original.mass());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(cp.system.positions()[i], original.positions()[i]);
    EXPECT_EQ(cp.system.velocities()[i], original.velocities()[i]);
    EXPECT_EQ(cp.system.accelerations()[i], original.accelerations()[i]);
  }
}

TEST(Checkpoint, PreservesExtremeValues) {
  ParticleSystem ps(1);
  ps.positions()[0] = {1e-300, -1e300, 0.1};  // 0.1 is not exact in binary
  ps.velocities()[0] = {-0.0, 3.14159265358979323846, 1e-17};
  std::stringstream stream;
  save_checkpoint(stream, ps, PeriodicBox(1.0), 0);
  const Checkpoint cp = load_checkpoint(stream);
  EXPECT_EQ(cp.system.positions()[0], ps.positions()[0]);
  EXPECT_EQ(cp.system.velocities()[0], ps.velocities()[0]);
  // Even the sign of zero survives the raw-bytes round trip.
  EXPECT_TRUE(std::signbit(cp.system.velocities()[0].x));
}

TEST(Checkpoint, DenormalsRoundTripExactly) {
  ParticleSystem ps(1);
  // 5e-324 is the smallest positive subnormal double; the others sit just
  // below the normal range.  The raw sections carry them through unchanged.
  ps.positions()[0] = {5e-324, -5e-324, 2.2250738585072009e-308};
  ps.velocities()[0] = {-2.2250738585072014e-308, 0.0, 1e-310};
  std::stringstream stream;
  save_checkpoint(stream, ps, PeriodicBox(1.0), 0);
  const Checkpoint cp = load_checkpoint(stream);
  EXPECT_EQ(cp.system.positions()[0], ps.positions()[0]);
  EXPECT_EQ(cp.system.velocities()[0], ps.velocities()[0]);
}

TEST(Checkpoint, NegativeZeroSignSurvivesEveryField) {
  ParticleSystem ps(1);
  ps.positions()[0] = {-0.0, 0.0, -0.0};
  ps.accelerations()[0] = {0.0, -0.0, 0.0};
  std::stringstream stream;
  save_checkpoint(stream, ps, PeriodicBox(1.0), 0);
  const Checkpoint cp = load_checkpoint(stream);
  EXPECT_TRUE(std::signbit(cp.system.positions()[0].x));
  EXPECT_FALSE(std::signbit(cp.system.positions()[0].y));
  EXPECT_TRUE(std::signbit(cp.system.positions()[0].z));
  EXPECT_TRUE(std::signbit(cp.system.accelerations()[0].y));
}

TEST(Checkpoint, RejectsBadMagic) {
  std::stringstream stream("not-a-checkpoint 1\n");
  EXPECT_THROW(load_checkpoint(stream), RuntimeFailure);
}

TEST(Checkpoint, RejectsWrongVersion) {
  // Only version 5 is read: the hexfloat text of versions 1–4 fails by its
  // version like any other, and the error names it.
  for (const int version : {0, 1, 2, 3, 4, 6, 99}) {
    const std::string named = "version " + std::to_string(version);
    std::stringstream stream("emdpa-checkpoint " + std::to_string(version) +
                             "\natoms 0 mass 1 box 1 step 0\n");
    try {
      load_checkpoint(stream);
      ADD_FAILURE() << named << " loaded";
    } catch (const RuntimeFailure& e) {
      EXPECT_NE(std::string(e.what()).find(named), std::string::npos)
          << e.what();
      EXPECT_NE(e.context().detail.find(named), std::string::npos)
          << e.context().detail;
    }
  }
}

TEST(Checkpoint, RejectsTruncatedAtoms) {
  const ParticleSystem original = sample_system();
  std::stringstream stream;
  save_checkpoint(stream, original, PeriodicBox(5.5), 0);
  std::string text = stream.str();
  text.resize(text.size() * 2 / 3);  // cut mid-atom
  std::stringstream cut(text);
  EXPECT_THROW(load_checkpoint(cut), RuntimeFailure);
}

TEST(Checkpoint, RejectsMissingHeader) {
  std::stringstream stream("");
  EXPECT_THROW(load_checkpoint(stream), RuntimeFailure);
}

TEST(Checkpoint, EmptySystemRoundTrips) {
  ParticleSystem ps(1);
  std::stringstream stream;
  save_checkpoint(stream, ps, PeriodicBox(2.0), 7);
  const Checkpoint cp = load_checkpoint(stream);
  EXPECT_EQ(cp.system.size(), 1u);
  EXPECT_EQ(cp.step, 7);
}

// --- Optional sections: run configuration, Langevin RNG, list reference --

TEST(Checkpoint, RawSaveRecordsNoConfigOrRng) {
  // The raw state overload has no configuration to record; the optional
  // sections stay absent so old callers keep their exact behaviour.
  std::stringstream stream;
  save_checkpoint(stream, sample_system(), PeriodicBox(5.5), 1);
  const Checkpoint cp = load_checkpoint(stream);
  EXPECT_FALSE(cp.config.has_value());
  EXPECT_FALSE(cp.langevin_rng.has_value());
}

TEST(Checkpoint, ConfigSectionRoundTrips) {
  Checkpoint original;
  original.system = sample_system();
  original.box_edge = 5.5;
  original.step = 99;
  original.potential = -123.456;
  original.config = CheckpointConfig{"neighbor-list", "mixed", "avx2"};

  std::stringstream stream;
  save_checkpoint(stream, original);
  const Checkpoint cp = load_checkpoint(stream);

  ASSERT_TRUE(cp.config.has_value());
  EXPECT_EQ(cp.config->kernel, "neighbor-list");
  EXPECT_EQ(cp.config->precision, "mixed");
  EXPECT_EQ(cp.config->simd, "avx2");
  EXPECT_EQ(cp.step, 99);
  EXPECT_DOUBLE_EQ(cp.potential, -123.456);
}

TEST(Checkpoint, LangevinRngSectionRoundTripsBitExact) {
  Checkpoint original;
  original.system = sample_system();
  original.box_edge = 5.5;
  original.step = 3;
  Rng::State rng;
  rng.s = {0xdeadbeefcafebabeull, 0x0123456789abcdefull,
           0xffffffffffffffffull, 0x1ull};
  rng.cached_gaussian = -0.73205080756887729;  // arbitrary, not exact binary
  rng.has_cached_gaussian = true;
  original.langevin_rng = rng;

  std::stringstream stream;
  save_checkpoint(stream, original);
  const Checkpoint cp = load_checkpoint(stream);

  ASSERT_TRUE(cp.langevin_rng.has_value());
  EXPECT_EQ(cp.langevin_rng->s, rng.s);
  EXPECT_EQ(cp.langevin_rng->cached_gaussian, rng.cached_gaussian);
  EXPECT_TRUE(cp.langevin_rng->has_cached_gaussian);
}

TEST(Checkpoint, ListrefSectionRoundTripsBitExact) {
  Checkpoint original;
  original.system = sample_system();
  original.box_edge = 5.5;
  original.step = 7;
  std::vector<Vec3d> ref(original.system.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ref[i] = {0.1 * static_cast<double>(i), -0.0, 1e-310};  // awkward values
  }
  original.list_ref = ref;
  original.list_ref_cutoff = 2.8;

  std::stringstream stream;
  save_checkpoint(stream, original);
  const Checkpoint cp = load_checkpoint(stream);

  ASSERT_TRUE(cp.list_ref.has_value());
  ASSERT_EQ(cp.list_ref->size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ((*cp.list_ref)[i], ref[i]) << "atom " << i;
  }
  EXPECT_TRUE(std::signbit((*cp.list_ref)[1].y));
  EXPECT_DOUBLE_EQ(cp.list_ref_cutoff, 2.8);
}

}  // namespace
}  // namespace emdpa::md
