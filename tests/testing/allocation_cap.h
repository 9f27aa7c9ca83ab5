// A cap on single heap allocations, for tests that must show an input
// (such as a huge item id) is handled without an allocation sized by it.
//
// Linking allocation_cap.cc into a test binary replaces the global
// operator new and delete (plain, array and aligned) with malloc-backed
// versions that consult the cap.

#ifndef BBSMINE_TESTS_TESTING_ALLOCATION_CAP_H_
#define BBSMINE_TESTS_TESTING_ALLOCATION_CAP_H_

#include <cstddef>

namespace bbsmine::testing {

/// While alive, any single operator-new request above `cap` bytes throws
/// std::bad_alloc instead of being served, and the largest request is
/// recorded. Not nestable.
class ScopedAllocationCap {
 public:
  explicit ScopedAllocationCap(size_t cap);
  ~ScopedAllocationCap();
  ScopedAllocationCap(const ScopedAllocationCap&) = delete;
  ScopedAllocationCap& operator=(const ScopedAllocationCap&) = delete;

  /// The largest single request seen so far, in bytes.
  size_t largest() const;
};

}  // namespace bbsmine::testing

#endif  // BBSMINE_TESTS_TESTING_ALLOCATION_CAP_H_
