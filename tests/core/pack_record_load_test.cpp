// Pack::load_xyz on every compiled ISA the CPU can run, in dp and sp: each
// x/y/z lane must hold exactly the bits of its record's field.  The
// payloads include -0.0, denormals and NaNs (and the pad field is a NaN no
// lane may pick up), so a transpose that moved values through arithmetic,
// or read the wrong field, fails here.  The record array is a heap block
// of exactly n records, so an ASan build flags any load past its end.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "core/simd_dispatch.h"
#include "pack_record_load.h"

namespace emdpa::simd::testing {
namespace {

constexpr std::size_t kMaxWidth = 16;
constexpr std::uint32_t kAtoms = 37;

template <typename Real>
using Bits = std::conditional_t<sizeof(Real) == 8, std::uint64_t,
                                std::uint32_t>;

/// A quiet NaN with a payload that is not the default one.
template <typename Real>
Real payload_nan(Bits<Real> payload) {
  return std::bit_cast<Real>(
      std::bit_cast<Bits<Real>>(std::numeric_limits<Real>::quiet_NaN()) |
      payload);
}

/// Field c of atom a: distinct bits within every record, a NaN in every
/// pad field, and on every fourth atom (and the last) a rotation of the
/// specials, so each of x, y and z meets each special in the patterns.
template <typename Real>
Real field(std::uint32_t a, std::size_t c) {
  using B = Bits<Real>;
  if (c == 3) return payload_nan<Real>(B{0x5} + a);
  if (a % 4 == 0 || a == kAtoms - 1) {
    const Real specials[] = {Real(-0.0),
                             std::numeric_limits<Real>::denorm_min() * Real(3),
                             payload_nan<Real>(B{0x3})};
    return specials[(a + c) % 3];
  }
  return static_cast<Real>(a) + static_cast<Real>(c) / Real(4);
}

template <typename Real>
std::vector<Real> make_records() {
  std::vector<Real> records(kRecordReals * kAtoms);
  for (std::uint32_t a = 0; a < kAtoms; ++a) {
    for (std::size_t c = 0; c < kRecordReals; ++c) {
      records[kRecordReals * a + c] = field<Real>(a, c);
    }
  }
  return records;
}

struct Pattern {
  std::string name;
  std::uint32_t idx[kMaxWidth];
};

std::vector<Pattern> patterns() {
  std::vector<Pattern> out;
  Pattern ascending{"ascending", {}}, descending{"descending", {}};
  Pattern equal{"all-equal", {}}, last{"n-1", {}};
  Pattern tail{"ascending to n-1", {}};
  for (std::uint32_t l = 0; l < kMaxWidth; ++l) {
    ascending.idx[l] = l;
    descending.idx[l] = kAtoms - 1 - l;
    equal.idx[l] = 8;  // a self-padded row tail
    last.idx[l] = kAtoms - 1;
    tail.idx[l] = kAtoms - kMaxWidth + l;
  }
  out.push_back(ascending);
  out.push_back(descending);
  out.push_back(equal);
  out.push_back(last);
  out.push_back(tail);
  return out;
}

struct Isa {
  SimdType type;
  const RecordLoaders* loaders;
};

/// The ISAs both compiled into the probes and executable on this CPU.
std::vector<Isa> runnable_isas() {
  const Isa all[] = {{SimdType::kScalar, record_loaders_scalar()},
                     {SimdType::kSse2, record_loaders_sse2()},
                     {SimdType::kAvx2, record_loaders_avx2()},
                     {SimdType::kAvx512, record_loaders_avx512()}};
  std::vector<Isa> out;
  for (const Isa& isa : all) {
    if (isa.loaders != nullptr && cpu_supports(isa.type)) out.push_back(isa);
  }
  return out;
}

template <typename Real>
void expect_lanes_are_record_bits(RecordLoadFn<Real> (RecordLoaders::*fn)) {
  // Exactly kAtoms records: the vector's heap block ends at the last one.
  const std::vector<Real> records = make_records<Real>();
  for (const Isa& isa : runnable_isas()) {
    for (const Pattern& pattern : patterns()) {
      SCOPED_TRACE(std::string(to_string(isa.type)) + " " + pattern.name);
      Real lanes[3][kMaxWidth];
      const std::size_t width = (isa.loaders->*fn)(
          records.data(), pattern.idx, lanes[0], lanes[1], lanes[2]);
      ASSERT_GE(width, 1u);
      ASSERT_LE(width, kMaxWidth);
      for (std::size_t l = 0; l < width; ++l) {
        for (std::size_t c = 0; c < 3; ++c) {
          EXPECT_EQ(std::bit_cast<Bits<Real>>(lanes[c][l]),
                    std::bit_cast<Bits<Real>>(
                        record_of(records.data(), pattern.idx[l])[c]))
              << "lane " << l << " field " << c;
        }
      }
    }
  }
}

TEST(PackRecordLoad, EveryRunnableIsaIsProbed) {
  const std::vector<Isa> isas = runnable_isas();
  ASSERT_FALSE(isas.empty());
  EXPECT_EQ(isas.front().type, SimdType::kScalar);
}

TEST(PackRecordLoad, DoubleLanesAreTheRecordBits) {
  expect_lanes_are_record_bits<double>(&RecordLoaders::dp);
}

TEST(PackRecordLoad, FloatLanesAreTheRecordBits) {
  expect_lanes_are_record_bits<float>(&RecordLoaders::sp);
}

}  // namespace
}  // namespace emdpa::simd::testing
