// PackRecordLoad probe for the AVX2 packs (-mavx2, tests/CMakeLists.txt).
#include "pack_record_load_impl.h"

namespace emdpa::simd::testing {

#if defined(__AVX2__)
const RecordLoaders* record_loaders_avx2() {
  return record_loaders<SimdType::kAvx2>();
}
#else
const RecordLoaders* record_loaders_avx2() { return nullptr; }
#endif

}  // namespace emdpa::simd::testing
