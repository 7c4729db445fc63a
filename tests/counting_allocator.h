#ifndef PRORE_TESTS_COUNTING_ALLOCATOR_H_
#define PRORE_TESTS_COUNTING_ALLOCATOR_H_

#include <cstdint>

namespace prore::testing {

/// Global operator new calls so far. Linking counting_allocator.cc replaces
/// the global allocator with one that counts (malloc and free underneath).
/// It is its own translation unit so that no caller inlines the
/// replacement operators, whose malloc/free pairing the compiler would
/// otherwise see matched against new/delete.
uint64_t AllocationCount();

}  // namespace prore::testing

#endif  // PRORE_TESTS_COUNTING_ALLOCATOR_H_
