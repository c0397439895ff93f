// Byte-exact comparison against a committed file in tests/golden/
// (SCIBENCH_GOLDEN_DIR, set per test binary in tests/CMakeLists.txt).
#pragma once

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

namespace sci::golden {

inline std::string read_golden(const std::string& leaf) {
  std::ifstream is(std::string(SCIBENCH_GOLDEN_DIR) + "/" + leaf, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

/// Compares `got` with the committed golden file; on a mismatch the
/// actual bytes land next to the test's temp files for inspection.
inline void expect_golden(const std::string& leaf, const std::string& got) {
  const std::string want = read_golden(leaf);
  if (got == want) return;
  const std::string actual = ::testing::TempDir() + "/" + leaf;
  std::ofstream(actual, std::ios::binary) << got;
  std::size_t at = 0;
  while (at < got.size() && at < want.size() && got[at] == want[at]) ++at;
  ADD_FAILURE() << leaf << ": bytes differ from the golden file at offset " << at
                << " (got " << got.size() << " bytes, want " << want.size()
                << "); actual bytes written to " << actual;
}

}  // namespace sci::golden
