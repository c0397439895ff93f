// Stream-free number <-> text conversion. Numbers are written with
// std::to_chars, which prints exactly what printf("%.*g") prints -- the
// same bytes an ostream shows under setprecision(digits) and
// defaultfloat -- and read from files and flags as whole tokens.
#pragma once

#include <charconv>
#include <concepts>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

namespace sci::core {

/// The whole of `text` as a T in [lo, hi] (by default every finite T),
/// or nullopt: a partial token ("4x"), junk, leading space, a sign on an
/// unsigned value, NaN and a value out of range are all refused.
template <typename T>
[[nodiscard]] std::optional<T> parse_number(std::string_view text,
                                            T lo = std::numeric_limits<T>::lowest(),
                                            T hi = std::numeric_limits<T>::max()) {
  const char* end = text.data() + text.size();
  T value{};
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || !(value >= lo && value <= hi)) return std::nullopt;
  return value;
}

/// `v` as printf("%.*g", digits, v) prints it.
[[nodiscard]] inline std::string format_general(double v, int digits) {
  char buf[32];  // "-2.2250738585072014e-308" is the longest at 17 digits
  const auto end = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general,
                                 digits).ptr;
  return {buf, end};
}

/// Appends text, characters and integers with `<<`, like an ostream
/// with default flags. Doubles have no overload: format them with
/// format_general so the precision is always explicit.
class TextBuilder {
 public:
  TextBuilder& operator<<(std::string_view s) {
    out_ += s;
    return *this;
  }
  template <std::integral T>
  TextBuilder& operator<<(T v) {
    if constexpr (std::same_as<T, char>) {
      out_ += v;
    } else {
      char buf[24];
      out_.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
    }
    return *this;
  }
  [[nodiscard]] std::string str() && { return std::move(out_); }

 private:
  std::string out_;
};

}  // namespace sci::core
