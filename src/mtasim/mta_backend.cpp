#include "mtasim/mta_backend.h"

#include "core/error.h"
#include "core/thread_pool.h"
#include "md/device_model.h"
#include "md/reference_kernel.h"
#include "mtasim/full_empty.h"

namespace emdpa::mta {

const char* to_string(ThreadingMode m) {
  switch (m) {
    case ThreadingMode::kPartiallyMultithreaded: return "partially-multithreaded";
    case ThreadingMode::kFullyMultithreaded: return "fully-multithreaded";
  }
  return "unknown";
}

MtaBackend::MtaBackend(ThreadingMode mode, const MtaConfig& config)
    : mode_(mode), config_(config) {}

std::string MtaBackend::name() const {
  return std::string("mta2[") + to_string(mode_) + "]";
}

LoopDescription MtaBackend::force_loop_description(ThreadingMode mode,
                                                   std::uint64_t n_atoms) {
  LoopDescription loop;
  loop.name = "md-step2-force-loop";
  loop.trip_count = n_atoms;
  loop.has_scalar_reduction = true;  // the potential-energy sum
  loop.reduction_inside_body = (mode == ThreadingMode::kFullyMultithreaded);
  loop.pragma_no_dependence = (mode == ThreadingMode::kFullyMultithreaded);
  return loop;
}

md::RunResult MtaBackend::run(const md::RunConfig& run_config) {
  auto workload = md::make_device_workload<double>(run_config);
  const std::size_t n = workload.system.size();

  StreamMachine machine(config_);
  md::RunResult result;
  result.backend_name = name();

  const LoopDescription force_loop =
      force_loop_description(mode_, static_cast<std::uint64_t>(n));
  const ParallelizationDecision decision = MtaCompiler::analyze(force_loop);
  result.ops.add(decision.parallel ? "mta.force_loop_parallel"
                                   : "mta.force_loop_serial");

  ModelTime t_force, t_other;

  // When the compiler parallelises the loop, the modelled streams run for
  // real: atom rows execute concurrently on the host pool.  The per-row
  // accumulation + ordered reduction inside ReferenceKernelT keeps the
  // result bit-identical to the serial kernel, which the cross-backend
  // bitwise tests rely on.
  md::ReferenceKernelT<double> reference(
      md::MinImageStrategy::kRound,
      decision.parallel ? &ThreadPool::global() : nullptr);

  // One force evaluation: real physics + instruction charging per the
  // compiler's parallelisation decision.  The machine's clock times the
  // whole step, integration loops included.
  ModelTime step_begin;
  auto force = [&](ModelTime& time, const auto& positions, const auto& box,
                   const auto& lj, double mass) {
    md::ForceResult forces = reference.compute(positions, box, lj, mass);

    // PairStats are unordered pairs; the modelled MTA loop ("for each atom,
    // all j != i") really executes each pair from both ends, so the
    // instruction charge prices the directed visit count.
    const double instructions =
        n2_instructions(2.0 * static_cast<double>(forces.stats.candidates),
                        2.0 * static_cast<double>(forces.stats.interacting));

    if (decision.parallel) {
      // Fully multithreaded: iterations spread across the streams; the PE
      // reduction is a synchronised FE accumulator updated once per
      // iteration ("the reduction operation inside the loop body").
      FullEmptyCell<double> pe_accumulator(0.0);
      for (std::size_t i = 0; i < n; ++i) {
        // Each stream's per-atom PE share lands in the accumulator.
        pe_accumulator.fetch_add(0.0);  // value folded below; op priced here
      }
      t_force += machine.charge_parallel(instructions, n);
      t_force += machine.charge_fe_ops(static_cast<double>(n));
      EMDPA_ENSURE(pe_accumulator.is_full(), "PE accumulator left empty");
    } else {
      t_force += machine.charge_serial(instructions);
    }

    result.ops.add("mta.pair_candidates", forces.stats.candidates);
    result.ops.add("mta.pair_interactions", forces.stats.interacting);
    time = machine.elapsed() - step_begin;
    return forces;
  };

  md::run_timed_region(
      std::move(workload), run_config,
      {.force = force,
       .charge_step =
           [&] {
             step_begin = machine.elapsed();
             // Integration loops: parallelised automatically in both flavours.
             t_other += machine.charge_parallel(
                 static_cast<double>(n) * kIntegrationOpsPerAtom, n);
             return ModelTime::zero();
           },
       .reset =
           [&] {
             machine.reset();
             t_force = t_other = ModelTime::zero();
           }},
      result);

  result.breakdown["force_loop"] = t_force;
  result.breakdown["other_loops"] = t_other;
  result.ops.merge(machine.ops());
  return result;
}

}  // namespace emdpa::mta
