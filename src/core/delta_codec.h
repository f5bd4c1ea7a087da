// Byte-level XOR delta codec — the compression under trajectory-store delta
// frames.
//
// Two snapshots of the same simulation a few steps apart are numerically
// close: the sign, exponent and high mantissa bytes of most stored doubles
// agree, so the XOR of the two serialised states is mostly zero bytes with
// short bursts of low-mantissa noise.  The codec exploits exactly that and
// nothing more:
//
//   payload := token*            (whitespace-separated, newline-wrapped)
//   token   := 'z' <count>       a run of `count` zero XOR bytes
//            | <hex byte pairs>  a run of literal non-zero XOR bytes
//
// Applying a delta is XOR again (delta_apply(base, encode(base, next)) ==
// next, byte-exact, proven by the randomized store property harness).  The
// codec is deliberately text — it rides inside CRC-footered text frames,
// so a corrupt delta fails the same CRC check as the index does.
//
// The codec itself validates structure (malformed tokens, output-size
// mismatch); bit-level integrity of a frame on disk is the enclosing CRC-32
// footer's job.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace emdpa {

/// Encode `next` as a delta against `base`.  The buffers must be the same
/// size (snapshots of one run have a fixed layout); throws RuntimeFailure
/// otherwise.
std::string delta_encode(const std::vector<std::uint8_t>& base,
                         const std::vector<std::uint8_t>& next);

/// Reconstruct the `next` buffer from `base` and an encoded delta.  Throws
/// RuntimeFailure on malformed payload or when the delta does not cover
/// exactly base.size() bytes.
std::vector<std::uint8_t> delta_apply(const std::vector<std::uint8_t>& base,
                                      const std::string& delta);

}  // namespace emdpa
