#include "core/hexio.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "../md/legacy_checkpoint_text.h"
#include "core/error.h"
#include "core/random.h"

namespace emdpa::hexio {
namespace {

using md::testing::format_double;
using md::testing::format_u64;

double round_trip(double value) {
  return parse_double(format_double(value), "test value");
}

std::uint64_t bits_of(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

TEST(Hexio, OrdinaryValuesRoundTripBitExact) {
  for (const double v : {0.1, -0.1, 1.0, -1.0, 3.141592653589793,
                         2.5e17, -7.25e-19, 1e300, -1e-300}) {
    EXPECT_EQ(bits_of(round_trip(v)), bits_of(v)) << v;
  }
}

TEST(Hexio, DenormalsRoundTripBitExact) {
  const double min_denormal = std::numeric_limits<double>::denorm_min();
  const double max_denormal =
      std::numeric_limits<double>::min() - min_denormal;
  for (const double v : {min_denormal, -min_denormal, max_denormal,
                         -max_denormal, 1234.0 * min_denormal}) {
    EXPECT_EQ(bits_of(round_trip(v)), bits_of(v)) << v;
  }
}

TEST(Hexio, SignOfZeroSurvives) {
  EXPECT_FALSE(std::signbit(round_trip(0.0)));
  EXPECT_TRUE(std::signbit(round_trip(-0.0)));
}

TEST(Hexio, ExtremesOfTheFiniteRangeRoundTrip) {
  const double max = std::numeric_limits<double>::max();
  const double min_normal = std::numeric_limits<double>::min();
  EXPECT_EQ(bits_of(round_trip(max)), bits_of(max));
  EXPECT_EQ(bits_of(round_trip(-max)), bits_of(-max));
  EXPECT_EQ(bits_of(round_trip(min_normal)), bits_of(min_normal));
}

TEST(Hexio, RandomBitPatternsRoundTripBitExact) {
  // Any finite double, not just friendly ones: draw raw 64-bit patterns and
  // keep the finite ones.
  Rng rng(20070326);
  int tested = 0;
  while (tested < 2000) {
    const std::uint64_t bits = rng.next_u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    if (!std::isfinite(v)) continue;
    ++tested;
    EXPECT_EQ(bits_of(round_trip(v)), bits) << "bits " << bits;
  }
}

TEST(Hexio, ParseRejectsNonFinite) {
  EXPECT_THROW(parse_double("inf", "x"), RuntimeFailure);
  EXPECT_THROW(parse_double("-inf", "x"), RuntimeFailure);
  EXPECT_THROW(parse_double("nan", "x"), RuntimeFailure);
  EXPECT_THROW(parse_double("1e999", "x"), RuntimeFailure);  // overflows to inf
}

TEST(Hexio, ParseRejectsMalformedTokens) {
  EXPECT_THROW(parse_double("", "x"), RuntimeFailure);
  EXPECT_THROW(parse_double("0x1.8p+z", "x"), RuntimeFailure);
  EXPECT_THROW(parse_double("1.5q", "x"), RuntimeFailure);
  EXPECT_THROW(parse_double("not-a-number", "x"), RuntimeFailure);
}

TEST(Hexio, ParseErrorNamesTheField) {
  try {
    parse_double("wat", "box edge");
    FAIL() << "expected RuntimeFailure";
  } catch (const RuntimeFailure& e) {
    EXPECT_NE(std::string(e.what()).find("box edge"), std::string::npos);
  }
}

TEST(Hexio, AcceptsPlainDecimalTokens) {
  EXPECT_DOUBLE_EQ(parse_double("2.5", "x"), 2.5);
  EXPECT_DOUBLE_EQ(parse_double("-17", "x"), -17.0);
}

TEST(Hexio, U64RoundTripsFixedWidth) {
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{0xdeadbeef},
        std::numeric_limits<std::uint64_t>::max()}) {
    const std::string token = format_u64(v);
    EXPECT_EQ(token.size(), 16u);
    EXPECT_EQ(parse_u64(token, "x"), v);
  }
}

TEST(Hexio, U64ParseRejectsMalformedTokens) {
  EXPECT_THROW(parse_u64("", "x"), RuntimeFailure);
  EXPECT_THROW(parse_u64("xyz", "x"), RuntimeFailure);
  EXPECT_THROW(parse_u64("123 ", "x"), RuntimeFailure);
}

}  // namespace
}  // namespace emdpa::hexio
