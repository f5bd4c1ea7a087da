// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) — the checksum guarding the
// checkpoint sections, WAL records and trajectory-store frames.  Computed
// slicing-by-8 (eight table lookups per eight bytes); the values are the
// standard bytewise CRC-32's.
//
// Chosen over a cryptographic hash deliberately: the threat model is bit
// rot, truncation and torn writes, not adversaries, and CRC-32 detects all
// burst errors up to 32 bits plus any odd number of bit flips at a few
// cycles per byte with zero dependencies.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace emdpa {

/// CRC of `size` bytes at `data`.  `seed` chains incremental computations:
/// crc32(b, crc32(a)) == crc32(a ++ b).
std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed = 0);

inline std::uint32_t crc32(const std::string& data, std::uint32_t seed = 0) {
  return crc32(data.data(), data.size(), seed);
}

/// Append the standard integrity footer — a final "crc <8 hex digits>\n"
/// line whose value covers every preceding byte — to a serialised body
/// (the trajectory-store index).
std::string with_crc_footer(std::string body);

/// Verify the trailing footer written by with_crc_footer and return a view of
/// the body without it (no copy).  Throws RuntimeFailure (naming `what`) when
/// the footer is missing, malformed, or does not match — a flipped bit, a
/// truncated tail or a torn write all land here.
std::string_view verify_crc_footer(std::string_view content, const char* what);

/// verify_crc_footer, returning the body as a copy.
std::string strip_crc_footer(const std::string& content, const char* what);

}  // namespace emdpa
