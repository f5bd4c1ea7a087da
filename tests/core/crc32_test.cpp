// CRC-32: the slicing-by-8 implementation must give exactly the values of
// the classic bytewise CRC-32 — checkpoint sections, WAL records, store
// frames and retry seeds all depend on them.
#include "core/crc32.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/error.h"
#include "core/random.h"

namespace emdpa {
namespace {

/// Textbook bytewise CRC-32 (reflected, polynomial 0xEDB88320), computed
/// bit by bit with no tables.
std::uint32_t reference_crc32(const std::uint8_t* data, std::size_t size,
                              std::uint32_t seed = 0) {
  std::uint32_t crc = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (0xEDB88320u ^ (crc >> 1)) : (crc >> 1);
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32, CheckValue) {
  EXPECT_EQ(crc32(std::string("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32(std::string()), 0u);
}

TEST(Crc32, MatchesBytewiseReferenceAtEveryAlignment) {
  Rng rng(20260117);
  std::vector<std::uint8_t> buffer(4096 + 8);
  for (auto& b : buffer) b = static_cast<std::uint8_t>(rng.next_u64());
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (int trial = 0; trial < 40; ++trial) {
      const std::size_t size =
          trial == 0 ? 0 : static_cast<std::size_t>(rng.uniform_index(4097));
      const std::uint8_t* data = buffer.data() + offset;
      ASSERT_EQ(crc32(data, size), reference_crc32(data, size))
          << "offset " << offset << " size " << size;
    }
  }
}

TEST(Crc32, EveryShortLengthMatchesReference) {
  // Lengths 0..64 cover every split between the 8-byte body and the tail.
  std::vector<std::uint8_t> data(64);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 37 + 11);
  }
  for (std::size_t size = 0; size <= data.size(); ++size) {
    EXPECT_EQ(crc32(data.data(), size), reference_crc32(data.data(), size))
        << size;
  }
}

TEST(Crc32, SeedChainsIncrementalComputations) {
  const std::string a = "emdpa-checkpoint 5\n";
  const std::string b(1000, '\x5a');
  EXPECT_EQ(crc32(b, crc32(a)), crc32(a + b));
  EXPECT_EQ(crc32(b, crc32(a)),
            reference_crc32(reinterpret_cast<const std::uint8_t*>(b.data()),
                            b.size(), crc32(a)));
}

TEST(Crc32, FooterRoundTripsAndCatchesAFlippedBit) {
  const std::string framed = with_crc_footer("body line\n");
  EXPECT_EQ(verify_crc_footer(framed, "test"), "body line\n");
  EXPECT_EQ(strip_crc_footer(framed, "test"), "body line\n");
  std::string flipped = framed;
  flipped[2] ^= 0x04;
  EXPECT_THROW(verify_crc_footer(flipped, "test"), RuntimeFailure);
}

}  // namespace
}  // namespace emdpa
