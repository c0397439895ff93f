// core::write_general against std::to_chars(v, general, P) -- the
// reference it must equal byte for byte -- on the seeded edge corpus
// (csv_corpus::format_edge_values, about 2e6 cases in all) at P in
// {4, 5, 17}: the precisions of plots, reports and CSVs. The corpus
// reaches every branch of the kernel: its fixed-style range, the k > 19
// cap, the decimal carry at powers of ten, exact half-way ties, and
// every input it hands to std::to_chars (exponent style, +-0,
// subnormals, inf, NaN). Under UBSan this also catches a shift of a
// 128-bit value by 128 or more.
#include <gtest/gtest.h>

#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <string_view>

#include "core/format.hpp"
#include "csv_corpus.hpp"

namespace sci::core {
namespace {

std::string_view reference(char (&buf)[64], double v, int digits) {
  const auto end =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, digits).ptr;
  return {buf, static_cast<std::size_t>(end - buf)};
}

std::string_view kernel(char (&buf)[64], double v, int digits) {
  return {buf,
          static_cast<std::size_t>(write_general(buf, buf + sizeof buf, v, digits) - buf)};
}

TEST(WriteGeneral, MatchesToCharsOnTheEdgeCorpus) {
  std::size_t cases = 0;
  std::size_t fixed = 0;  // finite normal values the reference prints without an exponent
  std::size_t mismatches = 0;
  for (int digits : {4, 5, 17}) {
    for (double v : csv_corpus::format_edge_values(digits, 0xf0a7u)) {
      char want_buf[64];
      char got_buf[64];
      const std::string_view want = reference(want_buf, v, digits);
      const std::string_view got = kernel(got_buf, v, digits);
      ++cases;
      if (std::isnormal(v) && want.find('e') == std::string_view::npos) ++fixed;
      if (got != want && ++mismatches <= 10) {
        ADD_FAILURE() << "%." << digits << "g of bits 0x" << std::hex
                      << std::bit_cast<std::uint64_t>(v) << std::dec << ": kernel \"" << got
                      << "\", to_chars \"" << want << "\"";
      }
    }
  }
  std::printf("write_general: %zu cases, %zu fixed-style\n", cases, fixed);
  EXPECT_EQ(mismatches, 0u);
  EXPECT_GT(cases, 1'900'000u);
  EXPECT_GT(fixed, 800'000u);
}

TEST(WriteGeneral, SmallBufferAndOtherPrecisionsFallBackToToChars) {
  const double v = 1234.5678901234567;
  char small[24];
  char want[64];
  const auto small_end = write_general(small, small + sizeof small, v, 17);
  EXPECT_EQ(std::string_view(small, static_cast<std::size_t>(small_end - small)),
            reference(want, v, 17));
  char buf[64];
  for (int digits : {1, 2, 3, 6, 10, 16, 18, 19, 25}) {
    EXPECT_EQ(kernel(buf, v, digits), reference(want, v, digits)) << "digits " << digits;
    EXPECT_EQ(kernel(buf, -0.000123456789, digits), reference(want, -0.000123456789, digits))
        << "digits " << digits;
  }
}

TEST(FormatGeneral, PrintsWhatPrintfPrints) {
  char want[64];
  for (double v : {0.0, -0.0, 1.0, 0.1, 1.0 / 3.0, 2.5e-5, 123456789.0, 1e300, -7.25}) {
    for (int digits : {4, 5, 17}) {
      std::snprintf(want, sizeof want, "%.*g", digits, v);
      EXPECT_EQ(format_general(v, digits), want) << v << " at " << digits;
    }
  }
  // More digits than a double holds could outgrow the stack buffer.
  EXPECT_THROW((void)format_general(1e-300, 18), std::invalid_argument);
}

}  // namespace
}  // namespace sci::core
