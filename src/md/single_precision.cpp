#include "md/single_precision.h"

namespace emdpa::md {

ForceResult SingleSoaKernel::compute(
    const std::vector<emdpa::Vec3<double>>& positions, const PeriodicBox& box,
    const LjParams& lj, double mass) {
  return detail::run_single(inner_, positions_f_, positions, box, lj, mass);
}

ForceResult SingleNeighborListKernel::compute(
    const std::vector<emdpa::Vec3<double>>& positions, const PeriodicBox& box,
    const LjParams& lj, double mass) {
  return detail::run_single(inner_, positions_f_, positions, box, lj, mass);
}

}  // namespace emdpa::md
