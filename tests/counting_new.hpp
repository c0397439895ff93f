// Global operator new/delete replaced by counting versions, for tests
// that prove a steady state performs no heap allocation. Link
// counting_new.cpp into the test binary to enable them.
#pragma once

#include <cstddef>

namespace sci::testing {

/// Calls to the replaced operator new / new[] so far in this process.
[[nodiscard]] std::size_t allocation_count() noexcept;

}  // namespace sci::testing
