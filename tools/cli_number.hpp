// Whole-token numeric parsing for the tools' command-line flags.
#pragma once

#include <charconv>
#include <cstring>
#include <optional>

namespace sci::tools {

/// The whole of `text` as a T in [lo, hi], or nullopt: a partial token
/// ("4x"), junk, a sign on an unsigned value, NaN and a value out of
/// range are all refused.
template <typename T>
[[nodiscard]] std::optional<T> parse_number(const char* text, T lo, T hi) {
  const char* end = text + std::strlen(text);
  T value{};
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end || !(value >= lo && value <= hi)) return std::nullopt;
  return value;
}

}  // namespace sci::tools
