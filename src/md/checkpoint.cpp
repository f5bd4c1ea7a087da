#include "md/checkpoint.h"

#include <array>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <istream>
#include <iterator>
#include <limits>
#include <optional>
#include <ostream>
#include <streambuf>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/crc32.h"
#include "core/error.h"
#include "core/hexio.h"

namespace emdpa::md {

namespace {

constexpr const char* kMagic = "emdpa-checkpoint";
constexpr int kVersion = 5;
constexpr std::string_view kV5Header = "emdpa-checkpoint 5\n";

// v5 sections are raw host bytes; the marker word below lets a reader on a
// different host notice, but the writer only exists where the raw bytes ARE
// the little-endian IEEE-754 layout.
static_assert(std::endian::native == std::endian::little,
              "checkpoint v5 writes little-endian words");
static_assert(std::numeric_limits<double>::is_iec559,
              "checkpoint v5 writes IEEE-754 doubles");
static_assert(sizeof(emdpa::Vec3d) == 24 &&
                  std::is_trivially_copyable_v<emdpa::Vec3d>,
              "Vec3d must be three packed doubles: no padding reaches disk");

/// Endianness + IEEE-754 marker: pi as a double, written raw.  Its eight
/// bytes are all distinct, so any byte-order or float-format mismatch
/// changes them.
constexpr double kMarkerValue = 3.141592653589793;
constexpr std::array<unsigned char, 8> kMarkerBytes = {
    0x18, 0x2D, 0x44, 0x54, 0xFB, 0x21, 0x09, 0x40};
static_assert(std::bit_cast<std::array<unsigned char, 8>>(kMarkerValue) ==
              kMarkerBytes);

/// Section framing: tag u32, length u64, payload, crc32 u32 over all three.
constexpr std::size_t kSectionHead = 4 + 8;
constexpr std::size_t kSectionTail = 4;
constexpr std::size_t kStateBytes = 5 * 8;  // n, mass, box, step, pe
constexpr std::size_t kRngBytes = 6 * 8;    // s[4], cached, flag

constexpr std::uint32_t fourcc(std::string_view s) {
  std::uint32_t tag = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    tag |= static_cast<std::uint32_t>(static_cast<unsigned char>(s[i]))
           << (8 * i);
  }
  return tag;
}

enum Section : std::size_t { kState, kConf, kRng, kLref, kPos, kVel, kAcc,
                             kEnd, kSectionCount };
constexpr std::array<std::uint32_t, kSectionCount> kTags = {
    fourcc("STAT"), fourcc("CONF"), fourcc("RNG"), fourcc("LREF"),
    fourcc("POS"),  fourcc("VEL"),  fourcc("ACC"), fourcc("END")};
constexpr std::array<const char*, kSectionCount> kSectionNames = {
    "STATE", "CONF", "RNG", "LREF", "POS", "VEL", "ACC", "END"};

/// Read-only streambuf over bytes already in memory, so the v1–v4 text
/// parser reads the loaded file in place instead of through a copy.
class MemoryBuf : public std::streambuf {
 public:
  explicit MemoryBuf(std::string_view bytes) {
    char* begin = const_cast<char*>(bytes.data());
    setg(begin, begin, begin + bytes.size());
  }
};

/// Header + atom records (everything between the version line and the v2+
/// footer), shared by the v1–v4 text formats.
Checkpoint parse_body(std::istream& in, int version) {
  std::string kw_atoms, kw_mass, kw_box, kw_step;
  std::size_t n = 0;
  std::string mass_tok, box_tok;
  long step = 0;
  if (!(in >> kw_atoms >> n >> kw_mass >> mass_tok >> kw_box >> box_tok >>
        kw_step >> step) ||
      kw_atoms != "atoms" || kw_mass != "mass" || kw_box != "box" ||
      kw_step != "step") {
    throw RuntimeFailure("checkpoint: malformed state line");
  }

  Checkpoint cp;
  cp.system = ParticleSystem(n);
  cp.system.set_mass(hexio::parse_double(mass_tok, "mass"));
  cp.box_edge = hexio::parse_double(box_tok, "box edge");
  cp.step = step;
  EMDPA_REQUIRE(cp.box_edge > 0.0, "checkpoint box edge must be positive");

  if (version >= 2) {
    std::string kw_pe, pe_tok;
    if (!(in >> kw_pe >> pe_tok) || kw_pe != "pe") {
      throw RuntimeFailure("checkpoint: malformed state line (missing pe)");
    }
    cp.potential = hexio::parse_double(pe_tok, "potential energy");
    cp.has_potential = true;
  }

  // Versions 3 and 4 insert optional keyworded sections between the state
  // line and the atom records.  Token-wise reading means one token of
  // lookahead: the first non-section token is the leading coordinate of
  // atom 0.
  std::string pending;
  bool have_pending = false;
  if (version >= 3) {
    have_pending = static_cast<bool>(in >> pending);
    if (have_pending && pending == "config") {
      std::string kw_k, kernel, kw_p, precision, kw_s, simd;
      if (!(in >> kw_k >> kernel >> kw_p >> precision >> kw_s >> simd) ||
          kw_k != "kernel" || kw_p != "precision" || kw_s != "simd") {
        throw RuntimeFailure("checkpoint: malformed config line");
      }
      cp.config = CheckpointConfig{kernel, precision, simd};
      have_pending = static_cast<bool>(in >> pending);
    }
    if (have_pending && pending == "rng") {
      std::string kw, s0, s1, s2, s3, cached, flag;
      if (!(in >> kw >> s0 >> s1 >> s2 >> s3 >> cached >> flag) ||
          kw != "langevin" || (flag != "0" && flag != "1")) {
        throw RuntimeFailure("checkpoint: malformed rng line");
      }
      Rng::State state;
      state.s = {hexio::parse_u64(s0, "rng state"),
                 hexio::parse_u64(s1, "rng state"),
                 hexio::parse_u64(s2, "rng state"),
                 hexio::parse_u64(s3, "rng state")};
      state.cached_gaussian = hexio::parse_double(cached, "rng cached gaussian");
      state.has_cached_gaussian = flag == "1";
      cp.langevin_rng = state;
      have_pending = static_cast<bool>(in >> pending);
    }
    if (version >= 4 && have_pending && pending == "listref") {
      std::size_t ref_n = 0;
      std::string kw_cutoff, cutoff_tok;
      if (!(in >> ref_n >> kw_cutoff >> cutoff_tok) || kw_cutoff != "cutoff") {
        throw RuntimeFailure("checkpoint: malformed listref line");
      }
      if (ref_n != n) {
        throw RuntimeFailure("checkpoint: listref atom count mismatch");
      }
      cp.list_ref_cutoff = hexio::parse_double(cutoff_tok, "listref cutoff");
      if (!(cp.list_ref_cutoff > 0.0)) {
        throw RuntimeFailure("checkpoint: listref cutoff must be positive");
      }
      std::vector<emdpa::Vec3d> ref(ref_n);
      for (std::size_t i = 0; i < ref_n; ++i) {
        std::string x, y, z;
        if (!(in >> x >> y >> z)) {
          throw RuntimeFailure("checkpoint: truncated listref at atom " +
                               std::to_string(i));
        }
        ref[i] = {hexio::parse_double(x, "listref x"),
                  hexio::parse_double(y, "listref y"),
                  hexio::parse_double(z, "listref z")};
      }
      cp.list_ref = std::move(ref);
      have_pending = static_cast<bool>(in >> pending);
    }
  }

  auto next_token = [&](std::size_t atom) -> std::string {
    if (have_pending) {
      have_pending = false;
      return pending;
    }
    std::string token;
    if (!(in >> token)) {
      throw RuntimeFailure("checkpoint: truncated at atom " +
                           std::to_string(atom));
    }
    return token;
  };

  for (std::size_t i = 0; i < n; ++i) {
    std::string t[9];
    for (auto& tok : t) tok = next_token(i);
    cp.system.positions()[i] = {hexio::parse_double(t[0], "x"),
                                hexio::parse_double(t[1], "y"),
                                hexio::parse_double(t[2], "z")};
    cp.system.velocities()[i] = {hexio::parse_double(t[3], "vx"),
                                 hexio::parse_double(t[4], "vy"),
                                 hexio::parse_double(t[5], "vz")};
    cp.system.accelerations()[i] = {hexio::parse_double(t[6], "ax"),
                                    hexio::parse_double(t[7], "ay"),
                                    hexio::parse_double(t[8], "az")};
  }
  return cp;
}

// --- v5 writer --------------------------------------------------------------

void append_raw(std::string& buf, const void* data, std::size_t size) {
  buf.append(static_cast<const char*>(data), size);
}

template <typename T>
void append_word(std::string& buf, T value) {
  append_raw(buf, &value, sizeof(value));
}

std::size_t framed(std::size_t payload) {
  return kSectionHead + payload + kSectionTail;
}

std::size_t conf_bytes(const CheckpointConfig& config) {
  return 3 * 4 + config.kernel.size() + config.precision.size() +
         config.simd.size();
}

/// One section: tag, length, the payload `fill` appends, then the CRC-32 of
/// all three.
template <typename Fill>
void append_section(std::string& buf, Section section, std::size_t length,
                    Fill fill) {
  const std::size_t start = buf.size();
  append_word(buf, kTags[section]);
  append_word(buf, static_cast<std::uint64_t>(length));
  fill();
  EMDPA_ENSURE(buf.size() - start == kSectionHead + length,
               "checkpoint section payload does not match its length");
  append_word(buf, crc32(buf.data() + start, buf.size() - start));
}

void append_vectors(std::string& buf, const std::vector<emdpa::Vec3d>& v) {
  append_raw(buf, v.data(), v.size() * sizeof(emdpa::Vec3d));
}

}  // namespace

std::string encode_checkpoint(const Checkpoint& cp) {
  const std::size_t n = cp.system.size();
  const std::size_t vec_bytes = n * sizeof(emdpa::Vec3d);
  if (cp.list_ref) {
    EMDPA_REQUIRE(cp.list_ref->size() == n,
                  "checkpoint listref must cover every atom");
  }

  std::size_t total = kV5Header.size() + kMarkerBytes.size() +
                      framed(kStateBytes) + 3 * framed(vec_bytes) + framed(0);
  if (cp.config) total += framed(conf_bytes(*cp.config));
  if (cp.langevin_rng) total += framed(kRngBytes);
  if (cp.list_ref) total += framed(8 + vec_bytes);
  std::string buf;
  buf.reserve(total);

  buf.append(kV5Header);
  append_word(buf, kMarkerValue);
  append_section(buf, kState, kStateBytes, [&] {
    append_word(buf, static_cast<std::uint64_t>(n));
    append_word(buf, cp.system.mass());
    append_word(buf, cp.box_edge);
    append_word(buf, static_cast<std::int64_t>(cp.step));
    append_word(buf, cp.potential);
  });
  if (cp.config) {
    append_section(buf, kConf, conf_bytes(*cp.config), [&] {
      for (const std::string* s :
           {&cp.config->kernel, &cp.config->precision, &cp.config->simd}) {
        append_word(buf, static_cast<std::uint32_t>(s->size()));
        buf.append(*s);
      }
    });
  }
  if (cp.langevin_rng) {
    const Rng::State& rng = *cp.langevin_rng;
    append_section(buf, kRng, kRngBytes, [&] {
      for (std::uint64_t word : rng.s) append_word(buf, word);
      append_word(buf, rng.cached_gaussian);
      append_word(buf, std::uint64_t{rng.has_cached_gaussian ? 1u : 0u});
    });
  }
  if (cp.list_ref) {
    append_section(buf, kLref, 8 + vec_bytes, [&] {
      append_word(buf, cp.list_ref_cutoff);
      append_vectors(buf, *cp.list_ref);
    });
  }
  append_section(buf, kPos, vec_bytes,
                 [&] { append_vectors(buf, cp.system.positions()); });
  append_section(buf, kVel, vec_bytes,
                 [&] { append_vectors(buf, cp.system.velocities()); });
  append_section(buf, kAcc, vec_bytes,
                 [&] { append_vectors(buf, cp.system.accelerations()); });
  append_section(buf, kEnd, 0, [] {});
  EMDPA_ENSURE(buf.size() == total, "checkpoint size precomputation is off");
  return buf;
}

namespace {

// --- v5 reader --------------------------------------------------------------

template <typename T>
T load_word(const char* p) {
  T value;
  std::memcpy(&value, p, sizeof(value));
  return value;
}

/// True when every 8-byte word in `bytes` is a finite IEEE-754 double.
/// Branch-free over the whole span, so the check vectorises.
bool all_finite(std::string_view bytes) {
  constexpr std::uint64_t kExponent = 0x7FF0000000000000ull;
  bool finite = true;
  for (std::size_t i = 0; i + 8 <= bytes.size(); i += 8) {
    finite &= (load_word<std::uint64_t>(bytes.data() + i) & kExponent) !=
              kExponent;
  }
  return finite;
}

double finite_double(const char* p, const char* what) {
  const double value = load_word<double>(p);
  if (!std::isfinite(value)) {
    throw RuntimeFailure(std::string("checkpoint: non-finite ") + what);
  }
  return value;
}

std::uint64_t checked_mul(std::uint64_t a, std::uint64_t b) {
  if (b != 0 && a > std::numeric_limits<std::uint64_t>::max() / b) {
    throw RuntimeFailure("checkpoint: atom count " + std::to_string(a) +
                         " overflows the section size");
  }
  return a * b;
}

void expect_length(Section section, std::uint64_t length,
                   std::uint64_t expected) {
  if (length != expected) {
    throw RuntimeFailure(std::string("checkpoint: section ") +
                         kSectionNames[section] + " holds " +
                         std::to_string(length) + " bytes, expected " +
                         std::to_string(expected));
  }
}

/// Three u32-length-prefixed strings filling the CONF payload exactly.
CheckpointConfig parse_conf(std::string_view payload) {
  std::array<std::string, 3> fields;
  for (std::string& field : fields) {
    if (payload.size() < 4) {
      throw RuntimeFailure("checkpoint: truncated CONF section");
    }
    const std::uint32_t size = load_word<std::uint32_t>(payload.data());
    payload.remove_prefix(4);
    if (size > payload.size()) {
      throw RuntimeFailure("checkpoint: CONF string overruns its section");
    }
    field.assign(payload.substr(0, size));
    payload.remove_prefix(size);
  }
  if (!payload.empty()) {
    throw RuntimeFailure("checkpoint: trailing bytes in CONF section");
  }
  return {std::move(fields[0]), std::move(fields[1]), std::move(fields[2])};
}

void copy_vectors(std::vector<emdpa::Vec3d>& dst, std::string_view payload) {
  std::memcpy(dst.data(), payload.data(), payload.size());
}

/// Everything after the "emdpa-checkpoint 5\n" line.  Every section is
/// CRC-verified and every length is checked against the bytes left and then
/// against the atom count before anything is allocated.
Checkpoint parse_v5(std::string_view rest) {
  if (rest.size() < kMarkerBytes.size() ||
      std::memcmp(rest.data(), kMarkerBytes.data(), kMarkerBytes.size()) != 0) {
    throw RuntimeFailure(
        "checkpoint: bad byte-order/IEEE-754 marker (written on an "
        "incompatible host, or corrupt)");
  }
  rest.remove_prefix(kMarkerBytes.size());

  std::array<std::optional<std::string_view>, kSectionCount> payloads;
  while (true) {
    if (rest.size() < kSectionHead + kSectionTail) {
      throw RuntimeFailure("checkpoint: truncated section header (" +
                           std::to_string(rest.size()) + " bytes left)");
    }
    const auto tag = load_word<std::uint32_t>(rest.data());
    const auto length = load_word<std::uint64_t>(rest.data() + 4);
    const std::size_t left = rest.size() - kSectionHead - kSectionTail;
    if (length > left) {
      throw RuntimeFailure("checkpoint: section length " +
                           std::to_string(length) + " exceeds the " +
                           std::to_string(left) + " bytes left");
    }
    const std::size_t framed_bytes = kSectionHead + length;
    const auto stored = load_word<std::uint32_t>(rest.data() + framed_bytes);
    const std::uint32_t computed = crc32(rest.data(), framed_bytes);
    if (stored != computed) {
      char msg[96];
      std::snprintf(msg, sizeof(msg),
                    "checkpoint: crc mismatch (stored %08x, computed %08x)",
                    stored, computed);
      throw RuntimeFailure(msg);
    }
    const std::string_view payload = rest.substr(kSectionHead, length);
    rest.remove_prefix(framed_bytes + kSectionTail);
    std::size_t section = 0;
    while (section < kSectionCount && kTags[section] != tag) ++section;
    if (section == kSectionCount) {
      char msg[64];
      std::snprintf(msg, sizeof(msg), "checkpoint: unknown section tag %08x",
                    tag);
      throw RuntimeFailure(msg);
    }
    if (payloads[section]) {
      throw RuntimeFailure(std::string("checkpoint: duplicate section ") +
                           kSectionNames[section]);
    }
    payloads[section] = payload;
    if (section == kEnd) break;
  }
  if (!rest.empty()) {
    throw RuntimeFailure("checkpoint: " + std::to_string(rest.size()) +
                         " trailing bytes after END");
  }
  for (Section required : {kState, kPos, kVel, kAcc}) {
    if (!payloads[required]) {
      throw RuntimeFailure(std::string("checkpoint: missing section ") +
                           kSectionNames[required]);
    }
  }

  // Validate every size against the atom count before allocating.
  expect_length(kEnd, payloads[kEnd]->size(), 0);
  const std::string_view state = *payloads[kState];
  expect_length(kState, state.size(), kStateBytes);
  const auto n = load_word<std::uint64_t>(state.data());
  const std::uint64_t vec_bytes = checked_mul(n, sizeof(emdpa::Vec3d));
  for (Section s : {kPos, kVel, kAcc}) {
    expect_length(s, payloads[s]->size(), vec_bytes);
  }
  if (payloads[kLref]) expect_length(kLref, payloads[kLref]->size(), 8 + vec_bytes);
  if (payloads[kRng]) expect_length(kRng, payloads[kRng]->size(), kRngBytes);
  for (Section s : {kPos, kVel, kAcc, kLref}) {
    if (payloads[s] && !all_finite(*payloads[s])) {
      throw RuntimeFailure(std::string("checkpoint: non-finite value in ") +
                           kSectionNames[s] + " section");
    }
  }

  Checkpoint cp;
  const double mass = finite_double(state.data() + 8, "mass");
  cp.box_edge = finite_double(state.data() + 16, "box edge");
  cp.step = static_cast<long>(load_word<std::int64_t>(state.data() + 24));
  cp.potential = finite_double(state.data() + 32, "potential energy");
  cp.has_potential = true;
  if (!(mass > 0.0) || !(cp.box_edge > 0.0)) {
    throw RuntimeFailure("checkpoint: mass and box edge must be positive");
  }
  if (payloads[kConf]) cp.config = parse_conf(*payloads[kConf]);
  if (payloads[kRng]) {
    const char* p = payloads[kRng]->data();
    Rng::State rng;
    for (std::size_t i = 0; i < 4; ++i) {
      rng.s[i] = load_word<std::uint64_t>(p + 8 * i);
    }
    rng.cached_gaussian = finite_double(p + 32, "rng cached gaussian");
    const auto flag = load_word<std::uint64_t>(p + 40);
    if (flag > 1) throw RuntimeFailure("checkpoint: malformed rng flag");
    rng.has_cached_gaussian = flag == 1;
    cp.langevin_rng = rng;
  }
  if (payloads[kLref]) {
    const std::string_view lref = *payloads[kLref];
    cp.list_ref_cutoff = load_word<double>(lref.data());
    if (!(cp.list_ref_cutoff > 0.0)) {
      throw RuntimeFailure("checkpoint: listref cutoff must be positive");
    }
    cp.list_ref.emplace(n);
    copy_vectors(*cp.list_ref, lref.substr(8));
  }
  cp.system = ParticleSystem(n);
  cp.system.set_mass(mass);
  copy_vectors(cp.system.positions(), *payloads[kPos]);
  copy_vectors(cp.system.velocities(), *payloads[kVel]);
  copy_vectors(cp.system.accelerations(), *payloads[kAcc]);
  return cp;
}

}  // namespace

void save_checkpoint(std::ostream& out, const ParticleSystem& system,
                     const PeriodicBox& box, long step, double potential) {
  Checkpoint cp;
  cp.system = system;
  cp.box_edge = box.edge();
  cp.step = step;
  cp.potential = potential;
  save_checkpoint(out, cp);
}

void save_checkpoint(std::ostream& out, const Checkpoint& cp) {
  const std::string bytes = encode_checkpoint(cp);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) throw RuntimeFailure("checkpoint: write failed");
}

Checkpoint load_checkpoint(std::string_view content) {
  MemoryBuf header_buf(content);
  std::istream header(&header_buf);
  std::string magic;
  int version = 0;
  if (!(header >> magic >> version)) {
    throw RuntimeFailure("checkpoint: missing header");
  }
  if (magic != kMagic) {
    throw RuntimeFailure("checkpoint: bad magic '" + magic + "'");
  }
  if (version < 1 || version > kVersion) {
    throw RuntimeFailure("checkpoint: unsupported version " +
                         std::to_string(version));
  }
  if (version == 5) {
    if (!content.starts_with(kV5Header)) {
      throw RuntimeFailure("checkpoint: malformed v5 header line");
    }
    return parse_v5(content.substr(kV5Header.size()));
  }

  // Text formats: versions >= 2 verify the CRC footer before trusting any
  // field; the parser then reads the verified body in place.
  const std::string_view body =
      version >= 2 ? verify_crc_footer(content, "checkpoint") : content;
  MemoryBuf body_buf(body);
  std::istream in(&body_buf);
  std::string skip_magic;
  int skip_version = 0;
  in >> skip_magic >> skip_version;
  return parse_body(in, version);
}

Checkpoint load_checkpoint(std::istream& in) {
  const std::string bytes{std::istreambuf_iterator<char>(in),
                          std::istreambuf_iterator<char>()};
  return load_checkpoint(std::string_view(bytes));
}

}  // namespace emdpa::md
