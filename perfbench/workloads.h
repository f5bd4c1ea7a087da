// The four benchmark workloads.  Each runs in its own process (main.cpp),
// reports the end-to-end metrics with tracing off and the per-layer metrics
// with it on, and counts attempted/failed operations.
#pragma once

#include "common.h"

namespace perfbench {

/// fluid-100k (list kernel) and paper-n2-8k (N^2 SoA kernel):
/// md::Simulation repetitions, or the traced decomposition of one.
Outcome run_simulation(const Args& args, bool list_kernel);

/// ensemble-32k: md::JobScheduler batches with a checkpoint on every slice.
Outcome run_ensemble(const Args& args);

/// bisect-32k: driver::run_bisect between a clean and a perturbed side.
Outcome run_bisection(const Args& args);

}  // namespace perfbench
