// Cray MTA-2 stream machine timing model.
//
// The MTA-2 hides memory latency with massive multithreading instead of
// caches: each 200 MHz (effective) processor holds 128 hardware streams and
// switches streams every cycle.  A processor saturated with runnable
// streams issues one instruction per cycle regardless of memory access
// pattern — there is no penalty for irregular access, the property that
// makes MD's unpredictable cutoff pattern "an optimal mapping" (section
// 5.3).  A *serial* section is the pathological case: one stream has at
// most one instruction in flight, so each instruction costs a full pipeline
// round trip (~21 cycles).
//
// charge_parallel / charge_serial convert counted instructions into model
// time under those two regimes; the saturation ramp in between follows
// issue_rate = min(1, threads / pipeline_depth) per processor.
#pragma once

#include <cstdint>

#include "core/op_counter.h"
#include "core/time_model.h"

namespace emdpa::mta {

struct MtaConfig {
  /// Effective clock.  The paper notes the MTA-2 is "about 11x slower" in
  /// clock rate than the 2.2 GHz Opteron -> 200 MHz.
  double clock_hz = 200.0e6;
  int streams_per_processor = 128;
  int n_processors = 1;  ///< the study's single-processor comparison
  /// Instruction pipeline depth: the number of concurrent streams needed to
  /// keep one processor saturated (21 on the MTA/Tera lineage).
  double pipeline_depth = 21.0;
  /// Extra cycles for a full/empty-bit synchronised memory operation.
  double fe_op_cycles = 8.0;
};

// Instruction profile of the original double-precision C code, which the
// MTA-2 port compiles unchanged (only the reduction/pragma differ between
// its two flavours) and the XMT projection reuses.  Same code shape as the
// Opteron reference: 27-image minimum-image search per candidate pair.  The
// arithmetic is evaluated with the equivalent single-reflection form
// (identical results); the counts price the code as written.
inline constexpr double kOpsPerCandidate = 3 + 243 + 1 + 4;
inline constexpr double kOpsPerInteraction = 30;  // LJ force/energy incl. divide
inline constexpr double kIntegrationOpsPerAtom = 34;

/// Instructions of one on-the-fly N^2 force loop.  Its "for each atom, all
/// j != i" visits every pair from both ends, so the counts are DIRECTED
/// (twice the unordered md::PairStats).
constexpr double n2_instructions(double candidates_directed,
                                 double interacting_directed) {
  return kOpsPerCandidate * candidates_directed +
         kOpsPerInteraction * interacting_directed;
}

class StreamMachine {
 public:
  explicit StreamMachine(const MtaConfig& config = {});

  const MtaConfig& config() const { return config_; }

  /// Charge a parallel region of `instructions` total work executed by
  /// `threads` concurrent streams (loop iterations the compiler spread over
  /// the machine).  Returns the region's model time.
  ModelTime charge_parallel(double instructions, std::uint64_t threads);

  /// Charge a serial region: one stream, one instruction in flight.
  ModelTime charge_serial(double instructions);

  /// Charge `count` full/empty synchronised memory operations (they ride on
  /// the issuing stream; hot contention is not modelled — the kernels use
  /// one FE accumulator per iteration, which the MTA retries cheaply).
  ModelTime charge_fe_ops(double count);

  ModelTime elapsed() const { return elapsed_; }
  const OpCounter& ops() const { return ops_; }
  void reset();

 private:
  MtaConfig config_;
  ModelTime elapsed_;
  OpCounter ops_;
};

}  // namespace emdpa::mta
