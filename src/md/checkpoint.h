// Checkpointing: save and restore a complete simulation state (extension).
//
// Versioned and round-trip exact: a restored run continues bit-identically.
//
// The format is binary, version 5.  Its first line is ASCII:
//
//   "emdpa-checkpoint 5\n"
//   marker   8 bytes: the double pi, raw (byte order + IEEE-754 check)
//   sections, each:  tag u32 | length u64 | payload | crc32 u32
//     STAT  n u64, mass f64, box f64, step i64, pe f64
//     CONF  kernel, precision, simd: each u32 length + bytes   (optional)
//     RNG   langevin s[0..3] u64, cached f64, flag u64 (0/1)   (optional)
//     LREF  cutoff f64, then n x {x,y,z} f64                   (optional)
//     POS   n x {x,y,z} f64
//     VEL   n x {vx,vy,vz} f64
//     ACC   n x {ax,ay,az} f64
//     END   empty; nothing may follow it
//
// All words are little-endian; tags are four ASCII bytes ("STAT", "POS\0",
// ...).  Each section's CRC-32 covers its tag, length and payload.  POS, VEL
// and ACC are one memcpy each of the std::vector<Vec3d> (three packed
// doubles, no padding), so the same state always gives the same bytes and a
// 1M-atom file is 72 MB of raw state.
// The loader CRC-checks each section before using it, checks every length
// against the bytes left and against n (overflow-checked) before
// allocating, and rejects non-finite doubles, unknown, duplicate or missing
// sections, and trailing bytes — so a flipped bit, a truncated tail or a
// torn write fails loudly, which is what lets CheckpointManager fall back
// to the previous generation instead of resuming from silent corruption.
// A header naming any other version (the hexfloat text of versions 1–4
// included) fails by that version.
// The `pe` field carries the potential energy of the stored state so a
// resumed run can skip the re-priming force evaluation entirely — the
// stored accelerations ARE the primed state, the property the bitwise
// resume guarantee rests on.
//
// The optional sections:
//
//  * CONF records the force kernel, precision mode and dispatched SIMD
//    ISA that produced the state.  Without it, resuming an `sp`/`sse2` run
//    under different flags would silently continue with different
//    arithmetic — bitwise-identical-looking files, divergent trajectories.
//    Simulation::resume compares the recorded configuration against the
//    resumed run's resolved one and fails loudly on any mismatch
//    (Options::ignore_checkpoint_config / --resume-force overrides
//    explicitly).
//  * RNG carries the full Xoshiro256** state of the Langevin thermostat —
//    the four state words plus the cached Box–Muller second deviate — so a
//    resumed thermostatted run continues the identical noise sequence
//    instead of re-seeding and diverging.
//  * LREF carries the reference positions (and the LJ cutoff; the list adds
//    its own skin) the active neighbour list was built from.  The list
//    build is a pure function of (positions, box, cutoff), so a restore can
//    rebuild the IDENTICAL list from this section instead of rebuilding
//    from the current state.  That is what lets Simulation::snapshot() —
//    and save(), which writes it — be a pure observer: a checkpoint or
//    trajectory-store snapshot perturbs nothing (a run stays bitwise
//    identical to the same run with no captures), yet a resume or replay
//    restored from one continues bit-exactly.  Written whenever a list is
//    live.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/random.h"
#include "md/box.h"
#include "md/particle_system.h"

namespace emdpa::md {

/// Run configuration recorded in a checkpoint's CONF section: the three
/// knobs that change the arithmetic of the trajectory without changing the
/// state layout.  Stored as the report-facing strings (to_string(SimKernel),
/// to_string(PrecisionMode), simd::to_string or "none") so the file stays
/// self-describing.
struct CheckpointConfig {
  std::string kernel;
  std::string precision;
  std::string simd;

  bool operator==(const CheckpointConfig& other) const = default;
};

struct Checkpoint {
  ParticleSystem system;
  double box_edge = 0.0;
  long step = 0;
  /// Potential energy of the stored state.
  double potential = 0.0;
  /// Producing run's configuration, when the writer recorded it (files
  /// written by Simulation::save and snapshot; absent in raw-state saves,
  /// which resume unverified).
  std::optional<CheckpointConfig> config;
  /// Langevin thermostat RNG state, when one was attached at save time.
  std::optional<Rng::State> langevin_rng;
  /// Neighbour-list reference positions (the LREF section): the positions
  /// the active list was built from, widened to double (exact for the
  /// sp/mixed float lists).  Written by Simulation::snapshot() (and so by
  /// save()) whenever a list is live, consumed by Simulation::resume() to
  /// reseed an identical list; absent when no list was live.
  std::optional<std::vector<emdpa::Vec3d>> list_ref;
  /// The LJ cutoff the list was built for, without the skin, which the
  /// list adds itself (meaningful only when list_ref is set).
  double list_ref_cutoff = 0.0;
};

/// The format-v5 bytes of `cp`, optional sections included, built in one
/// preallocated buffer.
std::string encode_checkpoint(const Checkpoint& cp);

/// Serialise raw state to `out` (format version 5, no optional sections) in
/// one write.  Throws RuntimeFailure on stream errors.
void save_checkpoint(std::ostream& out, const ParticleSystem& system,
                     const PeriodicBox& box, long step, double potential = 0.0);

/// Write encode_checkpoint(cp) to `out` in one write.
void save_checkpoint(std::ostream& out, const Checkpoint& cp);

/// Parse a format-v5 checkpoint held in memory; every section is
/// CRC-verified.  Throws RuntimeFailure on malformed or corrupt input (bad
/// magic, truncated sections, bad lengths, checksum mismatch, non-finite
/// values), and on any other version, with an ErrorContext detail naming it.
Checkpoint load_checkpoint(std::string_view bytes);

/// Read `in` to its end and parse it as above.  Files are better read
/// whole first (read_file_bytes in core/wal.h), as CheckpointManager does.
Checkpoint load_checkpoint(std::istream& in);

}  // namespace emdpa::md
