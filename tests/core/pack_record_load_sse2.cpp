// PackRecordLoad probe for the SSE2 packs (-msse2, tests/CMakeLists.txt).
#include "pack_record_load_impl.h"

namespace emdpa::simd::testing {

#if defined(__SSE2__)
const RecordLoaders* record_loaders_sse2() {
  return record_loaders<SimdType::kSse2>();
}
#else
const RecordLoaders* record_loaders_sse2() { return nullptr; }
#endif

}  // namespace emdpa::simd::testing
