// Shared test helper: the Hart::Options the HART-facing suites open with.
// Each of those suites is built twice (tests/CMakeLists.txt). The second
// build defines HART_TEST_ONE_STRIPE, which turns an auto stripe count into
// one stripe. One stripe with eager chunk-header persists (the bare-Hart
// default) is the persist schedule of the paper's single-instance
// EPallocator, so that build re-runs every suite on the paper's allocator
// configuration; its ctest names carry the `_legacy_alloc` suffix.
#pragma once

#include "hart/hart.h"

namespace hart::testutil {

inline core::Hart::Options hart_options(core::Hart::Options o = {}) {
#ifdef HART_TEST_ONE_STRIPE
  if (o.alloc.stripes == 0) o.alloc.stripes = 1;
#endif
  return o;
}

}  // namespace hart::testutil
