// Checkpointing: save and restore a complete simulation state (extension).
//
// Versioned and round-trip exact: a restored run continues bit-identically.
//
// Version 5 (written by save_checkpoint) is binary.  Its first line is still
// ASCII, so magic/version dispatch is shared with the text versions:
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
// 1M-atom file is 72 MB of raw state instead of 191 MB of hexfloat text.
// The loader CRC-checks each section before using it, checks every length
// against the bytes left and against n (overflow-checked) before
// allocating, and rejects non-finite doubles, unknown, duplicate or missing
// sections, and trailing bytes — so a flipped bit, a truncated tail or a
// torn write fails loudly, which is what lets CheckpointManager fall back
// to the previous generation instead of resuming from silent corruption.
// The `pe` field carries the potential energy of the stored state so a
// resumed run can skip the re-priming force evaluation entirely — the
// stored accelerations ARE the primed state, the property the bitwise
// resume guarantee rests on.
//
// Versions 1–4 are hexfloat text and stay loadable, read-only:
//
//   emdpa-checkpoint 4
//   atoms <N> mass <m> box <edge> step <k> pe <pe>
//   config kernel <kernel> precision <mode> simd <isa>     (optional line)
//   rng langevin <s0> <s1> <s2> <s3> <cached> <flag>       (optional line)
//   listref <N> cutoff <c>                                 (optional section)
//   <x> <y> <z>                                            (N lines, if listref)
//   <x> <y> <z> <vx> <vy> <vz> <ax> <ay> <az>              (N lines)
//   crc <8 hex digits>
//
// (v1 has no pe and no footer, v2 adds them, v3 the config and rng lines,
// v4 the listref section.)  The optional sections, in either encoding:
//
//  * config records the force kernel, precision mode and dispatched SIMD
//    ISA that produced the state.  Formats before v3 stored none of it, so
//    resuming an `sp`/`sse2` run under different flags silently continued
//    with different arithmetic — bitwise-identical-looking files, divergent
//    trajectories.  Simulation::resume compares the recorded configuration
//    against the resumed run's resolved one and fails loudly on any
//    mismatch (Options::ignore_checkpoint_config / --resume-force
//    overrides explicitly).
//  * rng carries the full Xoshiro256** state of the Langevin thermostat —
//    the four state words plus the cached Box–Muller second deviate — so a
//    resumed thermostatted run continues the identical noise sequence
//    instead of re-seeding and diverging.
//  * listref carries the reference positions (and combined cutoff+skin
//    radius) the active neighbour list was built from.  The list build is a
//    pure function of (positions, box, cutoff), so a restore can rebuild
//    the IDENTICAL list from this section instead of forcing a sync-point
//    rebuild from the current state.  That is what lets
//    Simulation::snapshot() be a pure observer: a trajectory-store snapshot
//    perturbs nothing (store-enabled runs stay bitwise identical to
//    store-disabled runs), yet a replay restored from one continues
//    bit-exactly.  Simulation::save() deliberately does NOT write the
//    section — the checkpoint seam keeps its invalidate-on-save contract.
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

/// Run configuration recorded in a v3+ checkpoint: the three knobs that
/// change the arithmetic of the trajectory without changing the state
/// layout.  Stored as the report-facing strings (to_string(SimKernel),
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
  /// Potential energy of the stored state (version >= 2).
  double potential = 0.0;
  /// False for version-1 files, which predate the pe field; a resume from
  /// such a file must re-prime instead of trusting `potential`.
  bool has_potential = false;
  /// Producing run's configuration, when the writer recorded it (version 3+
  /// files written by Simulation::save; absent in raw-state saves and older
  /// files, which resume unverified as before).
  std::optional<CheckpointConfig> config;
  /// Langevin thermostat RNG state, when one was attached at save time.
  std::optional<Rng::State> langevin_rng;
  /// Neighbour-list reference positions (v4 `listref`, v5 LREF section): the
  /// positions the active list was built from, widened to double (exact for
  /// the sp/mixed float lists).  Written by Simulation::snapshot(), consumed
  /// by Simulation::resume() to reseed an identical list; absent in ordinary
  /// checkpoints, which keep the invalidate-on-save contract.
  std::optional<std::vector<emdpa::Vec3d>> list_ref;
  /// Combined cutoff+skin radius the list was built with (meaningful only
  /// when list_ref is set).
  double list_ref_cutoff = 0.0;
};

/// The format-v5 bytes of `cp`, optional sections included, built in one
/// preallocated buffer.  `cp.has_potential` is ignored: pe is always stored.
std::string encode_checkpoint(const Checkpoint& cp);

/// Serialise raw state to `out` (format version 5, no optional sections) in
/// one write.  Throws RuntimeFailure on stream errors.
void save_checkpoint(std::ostream& out, const ParticleSystem& system,
                     const PeriodicBox& box, long step, double potential = 0.0);

/// Write encode_checkpoint(cp) to `out` in one write.
void save_checkpoint(std::ostream& out, const Checkpoint& cp);

/// Parse a checkpoint held in memory.  Accepts versions 1–5; v5 sections and
/// the v2–v4 footer are CRC-verified.  Throws RuntimeFailure on malformed or
/// corrupt input (bad magic, wrong version, truncated records or sections,
/// bad lengths, checksum mismatch, non-finite values).
Checkpoint load_checkpoint(std::string_view bytes);

/// Read `in` to its end and parse it as above.  Files are better read
/// whole first (read_file_bytes in core/wal.h), as CheckpointManager does.
Checkpoint load_checkpoint(std::istream& in);

}  // namespace emdpa::md
