#pragma once
// Process-wide heap allocation counter for the test binary. The global
// operator new replacements that feed it live in test_fg_alloc.cpp (one
// definition per program); any test can read it to pin a path's
// allocation count.

#include <cstdint>

namespace at::test_support {

/// Calls to any global operator new since the program started.
[[nodiscard]] std::uint64_t allocation_count() noexcept;

/// Heap allocations made while running `body`.
template <typename Body>
std::uint64_t allocations_during(Body&& body) {
  const std::uint64_t before = allocation_count();
  body();
  return allocation_count() - before;
}

}  // namespace at::test_support
