#include "cpu/opteron_backend.h"

#include "md/device_model.h"

namespace emdpa::opteron {

OpteronBackend::OpteronBackend(const OpteronConfig& config) : config_(config) {}

md::RunResult OpteronBackend::run(const md::RunConfig& config) {
  auto workload = md::make_device_workload<double>(config);
  const std::size_t n = workload.system.size();

  OpteronMachine machine(config_);
  md::RunResult result;
  result.backend_name = name();

  // The machine's clock times the whole step: the integration passes charged
  // before the force evaluation walk the cache model ahead of its accesses,
  // and the step's time is read off the clock once the evaluation is done.
  ModelTime step_begin;
  auto force = [&](ModelTime& time, const auto& x, const auto& box,
                   const auto& lj, double mass) {
    md::ForceResult forces = machine.compute_forces(x, box, lj, mass);
    time = machine.elapsed() - step_begin;
    return forces;
  };
  auto charge_step = [&] {
    step_begin = machine.elapsed();
    machine.charge_integration_step(n);
    return ModelTime::zero();
  };
  md::run_timed_region(std::move(workload), config,
                       {.force = force,
                        .charge_step = charge_step,
                        .reset = [&] { machine.reset(); }},
                       result);

  result.breakdown["compute"] = result.device_time;
  result.ops = machine.ops();
  result.ops.add("opteron.l1_misses", machine.memory().l1_misses());
  result.ops.add("opteron.l2_misses", machine.memory().l2_misses());
  return result;
}

}  // namespace emdpa::opteron
