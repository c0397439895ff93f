// Global operator new/delete replaced by counting versions, for the
// tests and benches that prove a steady state performs no heap
// allocation. Link the sci_counting_new object library to enable them.
#pragma once

#include <cstddef>

namespace sci::testing {

/// Calls to the replaced operator new / new[] so far in this process.
[[nodiscard]] std::size_t allocation_count() noexcept;

}  // namespace sci::testing
