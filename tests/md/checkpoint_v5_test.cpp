// Checkpoint format v5: the binary layout, and the corruption suite every
// malformed file must fail with RuntimeFailure — truncation at every byte,
// bad lengths (including ones that overflow against the atom count), a bad
// byte-order marker, unknown/duplicate/missing sections, trailing bytes,
// non-finite doubles in every double section, and a flipped bit in every
// byte of a file that carries all optional sections.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/crc32.h"
#include "core/error.h"
#include "md/checkpoint.h"
#include "md/checkpoint_manager.h"
#include "md/workload.h"

namespace emdpa::md {
namespace {

// --- A hand assembler for v5 files, independent of the library writer -----

std::string word32(std::uint32_t v) {
  std::string s(4, '\0');
  for (int i = 0; i < 4; ++i) s[i] = static_cast<char>(v >> (8 * i));
  return s;
}

std::string word64(std::uint64_t v) {
  std::string s(8, '\0');
  for (int i = 0; i < 8; ++i) s[i] = static_cast<char>(v >> (8 * i));
  return s;
}

std::string f64(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return word64(bits);
}

std::string vecs(const std::vector<Vec3d>& v) {
  std::string s;
  for (const Vec3d& p : v) s += f64(p.x) + f64(p.y) + f64(p.z);
  return s;
}

/// One framed section; `length` overrides the length field (the CRC still
/// covers what is written, so only the length check can catch it).
std::string section(const std::string& tag, const std::string& payload,
                    std::uint64_t length) {
  std::string tag4 = tag;
  tag4.resize(4, '\0');
  std::string framed = tag4 + word64(length) + payload;
  return framed + word32(crc32(framed));
}

std::string section(const std::string& tag, const std::string& payload) {
  return section(tag, payload, payload.size());
}

const std::string kHeader =
    std::string("emdpa-checkpoint 5\n") + f64(3.141592653589793);

std::string state_payload(std::uint64_t n, double mass, double box, long step,
                          double pe) {
  return word64(n) + f64(mass) + f64(box) +
         word64(static_cast<std::uint64_t>(step)) + f64(pe);
}

/// The pieces of the 3-atom sample file, each a full framed section, so a
/// test can drop, repeat, reorder or replace any of them.
struct Pieces {
  std::string state, conf, rng, lref, pos, vel, acc, end;
  std::string join() const {
    return kHeader + state + conf + rng + lref + pos + vel + acc + end;
  }
};

Checkpoint sample() {
  Checkpoint cp;
  cp.system = ParticleSystem(3);
  cp.system.set_mass(1.5);
  for (std::size_t i = 0; i < 3; ++i) {
    const double x = static_cast<double>(i);
    cp.system.positions()[i] = {0.1 + x, -0.0, 1e-310 * (x + 1)};
    cp.system.velocities()[i] = {-0.25 * x, 3.0, 1e300};
    cp.system.accelerations()[i] = {x, -x, 0.5};
  }
  cp.box_edge = 5.5;
  cp.step = 123;
  cp.potential = -7.25;
  cp.config = CheckpointConfig{"neighbor-list", "mixed", "avx2"};
  Rng::State rng;
  rng.s = {0xdeadbeefcafebabeull, 1, 2, 0xffffffffffffffffull};
  rng.cached_gaussian = -0.7320508075688772;
  rng.has_cached_gaussian = true;
  cp.langevin_rng = rng;
  cp.list_ref = std::vector<Vec3d>{{0.0, 0.5, 1.0}, {1.5, 2.0, 2.5},
                                   {3.0, -0.0, 4.5}};
  cp.list_ref_cutoff = 2.8;
  return cp;
}

std::string conf_payload(const CheckpointConfig& c) {
  std::string s;
  for (const std::string* f : {&c.kernel, &c.precision, &c.simd}) {
    s += word32(static_cast<std::uint32_t>(f->size())) + *f;
  }
  return s;
}

std::string rng_payload(const Rng::State& r) {
  return word64(r.s[0]) + word64(r.s[1]) + word64(r.s[2]) + word64(r.s[3]) +
         f64(r.cached_gaussian) + word64(r.has_cached_gaussian ? 1 : 0);
}

Pieces pieces_of(const Checkpoint& cp) {
  Pieces p;
  p.state = section("STAT", state_payload(cp.system.size(), cp.system.mass(),
                                          cp.box_edge, cp.step, cp.potential));
  p.conf = section("CONF", conf_payload(*cp.config));
  p.rng = section("RNG", rng_payload(*cp.langevin_rng));
  p.lref = section("LREF", f64(cp.list_ref_cutoff) + vecs(*cp.list_ref));
  p.pos = section("POS", vecs(cp.system.positions()));
  p.vel = section("VEL", vecs(cp.system.velocities()));
  p.acc = section("ACC", vecs(cp.system.accelerations()));
  p.end = section("END", "");
  return p;
}

void expect_same(const Checkpoint& a, const Checkpoint& b) {
  auto bits = [](double v) {
    std::uint64_t u = 0;
    std::memcpy(&u, &v, sizeof(u));
    return u;
  };
  auto same_vecs = [&](const std::vector<Vec3d>& x,
                       const std::vector<Vec3d>& y) {
    ASSERT_EQ(x.size(), y.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_EQ(bits(x[i].x), bits(y[i].x)) << i;
      EXPECT_EQ(bits(x[i].y), bits(y[i].y)) << i;
      EXPECT_EQ(bits(x[i].z), bits(y[i].z)) << i;
    }
  };
  EXPECT_EQ(a.step, b.step);
  EXPECT_EQ(bits(a.box_edge), bits(b.box_edge));
  EXPECT_EQ(bits(a.potential), bits(b.potential));
  EXPECT_EQ(bits(a.system.mass()), bits(b.system.mass()));
  same_vecs(a.system.positions(), b.system.positions());
  same_vecs(a.system.velocities(), b.system.velocities());
  same_vecs(a.system.accelerations(), b.system.accelerations());
  EXPECT_EQ(a.config, b.config);
  ASSERT_EQ(a.langevin_rng.has_value(), b.langevin_rng.has_value());
  if (a.langevin_rng) {
    EXPECT_EQ(a.langevin_rng->s, b.langevin_rng->s);
    EXPECT_EQ(bits(a.langevin_rng->cached_gaussian),
              bits(b.langevin_rng->cached_gaussian));
    EXPECT_EQ(a.langevin_rng->has_cached_gaussian,
              b.langevin_rng->has_cached_gaussian);
  }
  ASSERT_EQ(a.list_ref.has_value(), b.list_ref.has_value());
  if (a.list_ref) {
    same_vecs(*a.list_ref, *b.list_ref);
    EXPECT_EQ(bits(a.list_ref_cutoff), bits(b.list_ref_cutoff));
  }
}

#define EXPECT_REJECTED(bytes) \
  EXPECT_THROW(load_checkpoint(std::string_view(bytes)), RuntimeFailure)

// --- Layout ----------------------------------------------------------------

TEST(CheckpointV5, WriterMatchesTheDocumentedLayout) {
  const Checkpoint cp = sample();
  EXPECT_EQ(encode_checkpoint(cp), pieces_of(cp).join());
}

TEST(CheckpointV5, RoundTripsEverySectionBitExact) {
  const Checkpoint cp = sample();
  expect_same(load_checkpoint(encode_checkpoint(cp)), cp);
}

TEST(CheckpointV5, SameStateGivesTheSameBytes) {
  EXPECT_EQ(encode_checkpoint(sample()), encode_checkpoint(sample()));
}

TEST(CheckpointV5, StreamOverloadsWriteAndReadTheSameBytes) {
  const Checkpoint cp = sample();
  std::stringstream stream;
  save_checkpoint(stream, cp);
  EXPECT_EQ(stream.str(), encode_checkpoint(cp));
  expect_same(load_checkpoint(stream), cp);
}

TEST(CheckpointV5, FileIsRawStateSized) {
  // 72 bytes of state per atom plus fixed framing: no text expansion.
  WorkloadSpec spec;
  spec.n_atoms = 1000;
  Workload w = make_lattice_workload(spec);
  Checkpoint cp;
  cp.system = std::move(w.system);
  cp.box_edge = w.box.edge();
  const std::string bytes = encode_checkpoint(cp);
  EXPECT_EQ(bytes.size(), 19 + 8 + (16 + 40) + 3 * (16 + 72000 / 3) + 16);
}

// --- Truncation ------------------------------------------------------------

TEST(CheckpointV5, TruncationAtEveryByteIsRejected) {
  // Every prefix: each section boundary, each cut inside a section head,
  // payload or CRC, and the file minus its END section.
  const std::string bytes = encode_checkpoint(sample());
  for (std::size_t size = 0; size < bytes.size(); ++size) {
    EXPECT_REJECTED(bytes.substr(0, size)) << "cut at " << size;
  }
}

TEST(CheckpointV5, TruncationAtSectionBoundariesAndMidSection) {
  const Pieces p = pieces_of(sample());
  std::string prefix = kHeader;
  for (const std::string* s :
       {&p.state, &p.conf, &p.rng, &p.lref, &p.pos, &p.vel, &p.acc, &p.end}) {
    EXPECT_REJECTED(prefix) << "boundary at " << prefix.size();
    EXPECT_REJECTED(prefix + s->substr(0, s->size() / 2));
    prefix += *s;
  }
  EXPECT_NO_THROW(load_checkpoint(prefix));
}

// --- Lengths ---------------------------------------------------------------

TEST(CheckpointV5, LengthPastTheEndOfTheFileIsRejected) {
  Pieces p = pieces_of(sample());
  const std::string payload = vecs(sample().system.velocities());
  for (std::uint64_t length :
       {std::uint64_t{1} << 20, std::numeric_limits<std::uint64_t>::max(),
        std::numeric_limits<std::uint64_t>::max() - 11}) {
    p.vel = section("VEL", payload, length);
    EXPECT_REJECTED(p.join()) << length;
  }
}

TEST(CheckpointV5, SectionTooLargeOrTooSmallForTheAtomCountIsRejected) {
  const Checkpoint cp = sample();
  const std::string pos = vecs(cp.system.positions());
  Pieces p = pieces_of(cp);
  p.pos = section("POS", pos + f64(1.0) + f64(2.0) + f64(3.0));  // 4 atoms
  EXPECT_REJECTED(p.join());
  p.pos = section("POS", pos.substr(0, pos.size() - 24));  // 2 atoms
  EXPECT_REJECTED(p.join());
  p.pos = section("POS", pos.substr(0, pos.size() - 1));  // not whole atoms
  EXPECT_REJECTED(p.join());

  p = pieces_of(cp);
  p.lref = section("LREF", vecs(*cp.list_ref));  // cutoff word missing
  EXPECT_REJECTED(p.join());
  p = pieces_of(cp);
  p.rng = section("RNG", rng_payload(*cp.langevin_rng) + word64(0));
  EXPECT_REJECTED(p.join());
  p = pieces_of(cp);
  p.state = section("STAT", state_payload(3, 1.5, 5.5, 123, -7.25) + "x");
  EXPECT_REJECTED(p.join());
  p = pieces_of(cp);
  p.conf = section("CONF", conf_payload(*cp.config) + "x");
  EXPECT_REJECTED(p.join());
  p.conf = section("CONF", word32(1000) + "short");
  EXPECT_REJECTED(p.join());
}

TEST(CheckpointV5, AtomCountThatOverflowsTheSectionSizeThrowsBeforeAllocating) {
  // 24 * (2^61 + 1) wraps to 24 in uint64: unchecked arithmetic would accept
  // one-atom sections and then try to allocate 2^61 atoms.  The loader must
  // throw RuntimeFailure (not bad_alloc / length_error) first.
  const std::string one_atom = f64(0.0) + f64(0.0) + f64(0.0);
  for (std::uint64_t n : {(std::uint64_t{1} << 61) + 1,
                          std::numeric_limits<std::uint64_t>::max(),
                          std::uint64_t{1} << 62}) {
    Pieces p;
    p.state = section("STAT", state_payload(n, 1.0, 4.0, 0, 0.0));
    p.pos = section("POS", one_atom);
    p.vel = section("VEL", one_atom);
    p.acc = section("ACC", one_atom);
    p.end = section("END", "");
    EXPECT_REJECTED(p.join()) << n;
  }
}

TEST(CheckpointV5, EndWithAPayloadIsRejected) {
  Pieces p = pieces_of(sample());
  p.end = section("END", "x");
  EXPECT_REJECTED(p.join());
}

// --- Marker, header --------------------------------------------------------

TEST(CheckpointV5, BadByteOrderMarkerIsRejected) {
  const std::string bytes = encode_checkpoint(sample());
  std::string swapped = bytes;
  std::reverse(swapped.begin() + 19, swapped.begin() + 27);  // big-endian pi
  EXPECT_REJECTED(swapped);
  std::string other = bytes;
  other.replace(19, 8, f64(2.718281828459045));
  EXPECT_REJECTED(other);
  EXPECT_REJECTED(bytes.substr(0, 19) + bytes.substr(27));  // no marker
}

TEST(CheckpointV5, HeaderLineMustBeExact) {
  const std::string bytes = encode_checkpoint(sample());
  EXPECT_REJECTED("emdpa-checkpoint  5\n" + bytes.substr(19));
  EXPECT_REJECTED("emdpa-checkpoint 5\r\n" + bytes.substr(19));
  EXPECT_REJECTED("emdpa-checkpoint 6\n" + bytes.substr(19));
}

// --- Section set -----------------------------------------------------------

TEST(CheckpointV5, UnknownSectionIsRejected) {
  Pieces p = pieces_of(sample());
  p.acc += section("XTRA", "anything");
  EXPECT_REJECTED(p.join());
  p = pieces_of(sample());
  p.conf = section("conf", conf_payload(*sample().config));  // wrong case
  EXPECT_REJECTED(p.join());
}

TEST(CheckpointV5, DuplicateSectionIsRejected) {
  for (int which = 0; which < 7; ++which) {
    Pieces p = pieces_of(sample());
    std::string* s[] = {&p.state, &p.conf, &p.rng, &p.lref,
                        &p.pos,   &p.vel,  &p.acc};
    *s[which] += *s[which];
    EXPECT_REJECTED(p.join()) << which;
  }
}

TEST(CheckpointV5, MissingRequiredSectionIsRejected) {
  for (int which = 0; which < 5; ++which) {
    Pieces p = pieces_of(sample());
    std::string* s[] = {&p.state, &p.pos, &p.vel, &p.acc, &p.end};
    s[which]->clear();
    EXPECT_REJECTED(p.join()) << which;
  }
}

TEST(CheckpointV5, OptionalSectionsMayBeAbsent) {
  Checkpoint cp = sample();
  Pieces p = pieces_of(cp);
  p.conf.clear();
  p.rng.clear();
  p.lref.clear();
  cp.config.reset();
  cp.langevin_rng.reset();
  cp.list_ref.reset();
  const std::string bytes = p.join();
  EXPECT_EQ(bytes, encode_checkpoint(cp));
  expect_same(load_checkpoint(bytes), cp);
}

TEST(CheckpointV5, TrailingBytesAreRejected) {
  const std::string bytes = encode_checkpoint(sample());
  EXPECT_REJECTED(bytes + '\0');
  EXPECT_REJECTED(bytes + "\n");
  EXPECT_REJECTED(bytes + section("END", ""));
  EXPECT_REJECTED(bytes + bytes);
}

// --- Values ----------------------------------------------------------------

TEST(CheckpointV5, NonFiniteDoubleInEverySectionIsRejected) {
  const double bad_values[] = {std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity()};
  for (double bad : bad_values) {
    // STATE: mass, box, pe.
    for (int field = 0; field < 3; ++field) {
      Pieces p = pieces_of(sample());
      p.state = section("STAT", state_payload(3, field == 0 ? bad : 1.5,
                                              field == 1 ? bad : 5.5, 123,
                                              field == 2 ? bad : -7.25));
      EXPECT_REJECTED(p.join()) << "STATE field " << field << " = " << bad;
    }
    // RNG cached deviate.
    {
      Checkpoint cp = sample();
      cp.langevin_rng->cached_gaussian = bad;
      Pieces p = pieces_of(sample());
      p.rng = section("RNG", rng_payload(*cp.langevin_rng));
      EXPECT_REJECTED(p.join()) << "RNG = " << bad;
    }
    // LREF cutoff and coordinates.
    {
      Checkpoint cp = sample();
      Pieces p = pieces_of(cp);
      p.lref = section("LREF", f64(bad) + vecs(*cp.list_ref));
      EXPECT_REJECTED(p.join()) << "LREF cutoff = " << bad;
      (*cp.list_ref)[2].z = bad;
      p.lref = section("LREF", f64(cp.list_ref_cutoff) + vecs(*cp.list_ref));
      EXPECT_REJECTED(p.join()) << "LREF coordinate = " << bad;
    }
    // POS, VEL, ACC: every component of every atom.
    for (int which = 0; which < 3; ++which) {
      for (std::size_t atom = 0; atom < 3; ++atom) {
        for (int axis = 0; axis < 3; ++axis) {
          Checkpoint cp = sample();
          std::vector<Vec3d>* v[] = {&cp.system.positions(),
                                     &cp.system.velocities(),
                                     &cp.system.accelerations()};
          Vec3d& target = (*v[which])[atom];
          (axis == 0 ? target.x : axis == 1 ? target.y : target.z) = bad;
          EXPECT_REJECTED(pieces_of(cp).join())
              << "section " << which << " atom " << atom << " axis " << axis;
        }
      }
    }
  }
}

TEST(CheckpointV5, NonPositiveMassBoxOrCutoffIsRejected) {
  Pieces p = pieces_of(sample());
  p.state = section("STAT", state_payload(3, 0.0, 5.5, 123, -7.25));
  EXPECT_REJECTED(p.join());
  p.state = section("STAT", state_payload(3, 1.5, -5.5, 123, -7.25));
  EXPECT_REJECTED(p.join());
  p = pieces_of(sample());
  p.lref = section("LREF", f64(0.0) + vecs(*sample().list_ref));
  EXPECT_REJECTED(p.join());
  p = pieces_of(sample());
  Rng::State rng = *sample().langevin_rng;
  p.rng = section("RNG", rng_payload(rng).substr(0, 40) + word64(2));
  EXPECT_REJECTED(p.join());
}

// --- Bit flips ---------------------------------------------------------------

TEST(CheckpointV5, EveryFlippedBitInEveryByteIsRejected) {
  const std::string bytes = encode_checkpoint(sample());
  ASSERT_GT(bytes.size(), 400u);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = bytes;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
      EXPECT_REJECTED(flipped) << "byte " << i << " bit " << bit;
    }
  }
}

// --- CheckpointManager on v5 files ----------------------------------------

class CheckpointV5ManagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::path(::testing::TempDir()) /
             (std::string("v5_") +
              ::testing::UnitTest::GetInstance()->current_test_info()->name()))
                .string();
    std::filesystem::remove(path_);
    std::filesystem::remove(path_ + ".prev");
  }

  void save_step(CheckpointManager& manager, long step) {
    Checkpoint cp = sample();
    cp.step = step;
    manager.save([&](std::ostream& os) { save_checkpoint(os, cp); });
  }

  void corrupt_latest(const std::function<void(std::string&)>& damage) {
    std::string bytes;
    {
      std::ifstream in(path_, std::ios::binary);
      bytes.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
    }
    damage(bytes);
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  std::string path_;
};

TEST_F(CheckpointV5ManagerTest, CommittedFileIsV5AndLoadsBitExact) {
  CheckpointManager manager(path_);
  save_step(manager, 10);
  Checkpoint expected = sample();
  expected.step = 10;
  std::ifstream in(path_, std::ios::binary);
  std::string first_line;
  std::getline(in, first_line);
  EXPECT_EQ(first_line, "emdpa-checkpoint 5");
  expect_same(CheckpointManager::load_file(path_), expected);
}

TEST_F(CheckpointV5ManagerTest, FlippedPayloadBitFallsBackToPrevious) {
  CheckpointManager manager(path_);
  save_step(manager, 10);
  save_step(manager, 20);
  corrupt_latest([](std::string& b) { b[b.size() - 40] ^= 0x10; });
  const CheckpointLoad loaded = manager.load();
  EXPECT_TRUE(loaded.used_fallback);
  EXPECT_EQ(loaded.checkpoint.step, 10);
}

TEST_F(CheckpointV5ManagerTest, TruncatedLatestFallsBackToPrevious) {
  CheckpointManager manager(path_);
  save_step(manager, 10);
  save_step(manager, 20);
  corrupt_latest([](std::string& b) { b.resize(b.size() / 2); });
  const CheckpointLoad loaded = manager.load();
  EXPECT_TRUE(loaded.used_fallback);
  EXPECT_EQ(loaded.checkpoint.step, 10);
}

TEST_F(CheckpointV5ManagerTest, TrailingBytesOnLatestFallBackToPrevious) {
  CheckpointManager manager(path_);
  save_step(manager, 10);
  save_step(manager, 20);
  corrupt_latest([](std::string& b) { b += "garbage"; });
  const CheckpointLoad loaded = manager.load();
  EXPECT_TRUE(loaded.used_fallback);
  EXPECT_EQ(loaded.checkpoint.step, 10);
}

}  // namespace
}  // namespace emdpa::md
