// Hexfloat text parsing — the round-trip-exact number encoding of the text
// checkpoint formats v1–v4 (format v5 is binary; v1–v4 stay loadable, and
// nothing in the library writes text any more).
//
// Values were written with printf "%a" and are parsed with strtod: the hex
// mantissa/exponent form represents every finite double exactly, including
// denormals and the sign of zero, so a value survives any number of
// save/load cycles bit-identically — the property the bitwise resume and
// replay guarantees rest on.  Non-finite values are REJECTED at the parse
// boundary: "inf" and "nan" can only reach a state file through corruption
// or a blown-up run, and admitting them would silently poison every
// downstream kernel.
#pragma once

#include <cstdint>
#include <string>

namespace emdpa::hexio {

/// Parse a hexfloat token ("%a": e.g. "0x1.5bf0a8b145769p+1"; also accepts
/// plain decimal — strtod grammar).  Throws RuntimeFailure naming `what` on
/// malformed or partially-consumed input, and on any non-finite value.
double parse_double(const std::string& token, const char* what);

/// Parse a hex u64 token (v1–v4 wrote 16 fixed-width lowercase digits).
/// Throws RuntimeFailure naming `what` on malformed or partially-consumed
/// input.
std::uint64_t parse_u64(const std::string& token, const char* what);

}  // namespace emdpa::hexio
