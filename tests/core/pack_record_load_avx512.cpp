// PackRecordLoad probe for the AVX-512 packs (-mavx512f, tests/CMakeLists.txt).
#include "pack_record_load_impl.h"

namespace emdpa::simd::testing {

#if defined(__AVX512F__)
const RecordLoaders* record_loaders_avx512() {
  return record_loaders<SimdType::kAvx512>();
}
#else
const RecordLoaders* record_loaders_avx512() { return nullptr; }
#endif

}  // namespace emdpa::simd::testing
