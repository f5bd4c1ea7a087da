#include "core/crc32.h"

#include <array>
#include <cstdio>

#include "core/error.h"

namespace emdpa {

namespace {

using Table = std::array<std::uint32_t, 256>;

/// Slicing-by-8 tables: kTables[0] is the classic bytewise table, and
/// kTables[k][b] is the CRC of byte b followed by k zero bytes, so eight
/// lookups advance the register by eight bytes at once.
constexpr std::array<Table, 8> make_tables() {
  std::array<Table, 8> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }
  return tables;
}

constexpr std::array<Table, 8> kTables = make_tables();

/// Little-endian load, whatever the host order (compiles to one mov on x86).
std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  std::uint32_t crc = seed ^ 0xFFFFFFFFu;
  for (; size >= 8; size -= 8, bytes += 8) {
    const std::uint32_t lo = load_le32(bytes) ^ crc;
    const std::uint32_t hi = load_le32(bytes + 4);
    crc = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
          kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
          kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  for (; size > 0; --size, ++bytes) {
    crc = kTables[0][(crc ^ *bytes) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::string with_crc_footer(std::string body) {
  char footer[24];
  std::snprintf(footer, sizeof(footer), "crc %08x\n", crc32(body));
  body += footer;
  return body;
}

std::string_view verify_crc_footer(std::string_view content, const char* what) {
  // The footer is the last line; searching from the end keeps any body that
  // could legally contain "crc " unambiguous.
  const std::size_t pos = content.rfind("\ncrc ");
  if (pos == std::string_view::npos) {
    throw RuntimeFailure(std::string(what) +
                         ": missing crc footer (truncated file?)");
  }
  const std::string_view body = content.substr(0, pos + 1);
  const std::string_view footer = content.substr(pos + 1);
  // Exactly "crc " + 8 hex digits + newline; anything else is corruption.
  if (footer.size() != 13 || footer.substr(0, 4) != "crc " ||
      footer.back() != '\n') {
    throw RuntimeFailure(std::string(what) + ": malformed crc footer");
  }
  std::uint32_t stored = 0;
  for (int i = 0; i < 8; ++i) {
    const char c = footer[4 + i];
    std::uint32_t digit = 0;
    if (c >= '0' && c <= '9') {
      digit = static_cast<std::uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<std::uint32_t>(c - 'a' + 10);
    } else {
      throw RuntimeFailure(std::string(what) + ": malformed crc value");
    }
    stored = (stored << 4) | digit;
  }
  const std::uint32_t computed = crc32(body.data(), body.size());
  if (computed != stored) {
    char msg[96];
    std::snprintf(msg, sizeof(msg),
                  "%s: crc mismatch (stored %08x, computed %08x)", what,
                  stored, computed);
    throw RuntimeFailure(msg);
  }
  return body;
}

std::string strip_crc_footer(const std::string& content, const char* what) {
  return std::string(verify_crc_footer(content, what));
}

}  // namespace emdpa
