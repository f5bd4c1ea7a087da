// PackRecordLoad probe for the scalar pack (no -m flags).
#include "pack_record_load_impl.h"

namespace emdpa::simd::testing {

const RecordLoaders* record_loaders_scalar() {
  return record_loaders<SimdType::kScalar>();
}

}  // namespace emdpa::simd::testing
