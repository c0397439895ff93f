// Stream-free number <-> text conversion. Numbers are written exactly
// as printf("%.*g") prints them -- the same bytes an ostream shows under
// setprecision(digits) and defaultfloat -- by one kernel that CSVs,
// reports and plots share (write_general), and read from files and
// flags as whole tokens.
#pragma once

#include <array>
#include <charconv>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <stdexcept>
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

namespace detail {

__extension__ using Uint128 = unsigned __int128;

inline constexpr char kDigitPairs[] =
    "00010203040506070809101112131415161718192021222324252627282930313233343536373839"
    "40414243444546474849505152535455565758596061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

inline constexpr auto kPow10 = [] {
  std::array<std::uint64_t, 20> pow{};  // 10^0 .. 10^19 < 2^64
  std::uint64_t p = 1;
  for (auto& entry : pow) {
    entry = p;
    p *= 10;  // wraps once, after 10^19 is stored
  }
  return pow;
}();

/// The eight decimal digits of v < 10^8, leading zeros kept, at p.
inline void write8(char* p, std::uint32_t v) noexcept {
  const std::uint32_t hi = v / 10000;
  const std::uint32_t lo = v % 10000;
  std::memcpy(p, kDigitPairs + 2 * (hi / 100), 2);
  std::memcpy(p + 2, kDigitPairs + 2 * (hi % 100), 2);
  std::memcpy(p + 4, kDigitPairs + 2 * (lo / 100), 2);
  std::memcpy(p + 6, kDigitPairs + 2 * (lo % 100), 2);
}

/// m * 10^k * 2^e2 rounded half to even, for 0 <= k <= 19 and
/// -128 < e2, where the caller knows the result is below 2^64. The
/// product m * 10^k < 2^53 * 10^19 < 2^117 is exact in 128 bits.
[[nodiscard]] inline std::uint64_t scaled_round(std::uint64_t m, int e2, int k) noexcept {
  const Uint128 product = static_cast<Uint128>(m) * kPow10[k];
  if (e2 >= 0) return static_cast<std::uint64_t>(product << e2);
  const int s = -e2;
  const auto q = static_cast<std::uint64_t>(product >> s);
  const Uint128 rem = product - (static_cast<Uint128>(q) << s);
  const Uint128 half = static_cast<Uint128>(1) << (s - 1);
  return q + ((rem > half || (rem == half && (q & 1) != 0)) ? 1 : 0);
}

}  // namespace detail

/// The room write_general needs to format in place; it hands a smaller
/// buffer to std::to_chars.
inline constexpr std::ptrdiff_t kGeneralMinBuffer = 40;

/// Writes `v` to [first, last) exactly as printf("%.*g", digits, v)
/// prints it and returns the end, like std::to_chars(first, last, v,
/// general, digits).ptr. Fixed-style output of a finite normal v with
/// 1 <= digits <= 17 is computed here: v = m * 2^e2 is scaled to the
/// integer D = round_half_even(|v| * 10^k) of `digits` digits with one
/// 64x64->128-bit multiply, and D's digits are written two at a time.
/// Everything else -- exponent style, k > 19, ±0, subnormals, inf, NaN,
/// other precisions, a buffer under kGeneralMinBuffer bytes -- goes to
/// std::to_chars.
[[nodiscard]] inline char* write_general(char* first, char* last, double v,
                                         int digits) noexcept {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  const int biased = static_cast<int>((bits >> 52) & 0x7ff);
  const int e2 = biased - 1075;  // |v| = m * 2^e2
  const auto fallback = [&] {
    return std::to_chars(first, last, v, std::chars_format::general, digits).ptr;
  };
  if (digits < 1 || digits > 17 || biased == 0 || biased == 0x7ff || e2 <= -128 ||
      last - first < kGeneralMinBuffer) {
    return fallback();
  }
  const std::uint64_t m = (bits & ((std::uint64_t{1} << 52) - 1)) | (std::uint64_t{1} << 52);
  // x = floor(log10(2^(e2 + 52))) (exact for every double exponent), so
  // 10^x <= |v| < 2 * 10^(x + 1): at k = digits - 1 - x the scaled value
  // has at least `digits` digits, at k + 1 it rounds to 10^digits or
  // more. The printed k is the largest whose D stays below 10^digits.
  const int x = ((e2 + 52) * 78913) >> 18;
  int k = digits - 1 - x;
  if (k < 0) return fallback();  // exponent >= digits: exponent style
  const bool capped = k > 19;    // 10^k must fit in 64 bits
  if (capped) k = 19;
  std::uint64_t d = detail::scaled_round(m, e2, k);
  // Capped, D(19) > 10^(digits-1) still proves D(20) >= 10^digits; at or
  // below it the answer may lie past 19.
  if (capped && d <= detail::kPow10[digits - 1]) return fallback();
  while (d >= detail::kPow10[digits]) {  // at most twice: log10 estimate, then carry
    if (--k < 0) return fallback();
    d = detail::scaled_round(m, e2, k);
  }
  const int exp10 = digits - 1 - k;  // the %e exponent of the rounded value
  if (exp10 < -4) return fallback();

  // The digits go straight to their place in the output with
  // fixed-size copies; write_general's 40-byte minimum leaves room for
  // their over-writes.
  char* out = first;
  if ((bits >> 63) != 0) *out++ = '-';
  const int int_len = exp10 >= 0 ? exp10 + 1 : 0;  // digits before the point
  if (exp10 < 0) {
    std::memcpy(out, "0.000000", 8);  // "0." and -exp10 - 1 zeros
    out += 1 - exp10;
  }
  char* p = out + digits;
  int left = digits;
  for (; left >= 8; left -= 8) {  // blocks of eight: four independent pairs
    p -= 8;
    detail::write8(p, static_cast<std::uint32_t>(d % 100000000));
    d /= 100000000;
  }
  for (; left >= 2; left -= 2) {
    p -= 2;
    std::memcpy(p, detail::kDigitPairs + 2 * (d % 100), 2);
    d /= 100;
  }
  if (left == 1) *--p = static_cast<char>('0' + d);
  // %g drops trailing zeros of the fraction, and the point with them.
  int len = digits;
  while (len > int_len && out[len - 1] == '0') --len;
  if (len == int_len) return out + len;
  if (int_len > 0) {  // open the point: the fraction (< 16 digits) moves up one
    std::memmove(out + int_len + 1, out + int_len, 16);
    out[int_len] = '.';
    ++len;
  }
  return out + len;
}

/// `v` as printf("%.*g", digits, v) prints it. A double has at most 17
/// significant digits, so a larger `digits` is refused: its text could
/// outgrow the stack buffer.
[[nodiscard]] inline std::string format_general(double v, int digits) {
  if (digits > 17) throw std::invalid_argument("format_general: digits > 17");
  char buf[kGeneralMinBuffer];  // "-2.2250738585072014e-308" is the longest
  return {buf, write_general(buf, buf + sizeof buf, v, digits)};
}

/// Writes `v` at `first` as a CSV cell, exactly as printf("%.17g")
/// prints it, and returns the end; [first, first + kGeneralMinBuffer)
/// must be writable. Integral cells below 1e15 in magnitude (indices,
/// counts) print as plain digits under %.17g, and the integer to_chars
/// is cheaper than the kernel; -0 keeps its sign through the kernel.
[[nodiscard]] inline char* write_csv_cell(char* first, double v) noexcept {
  if (v > -1e15 && v < 1e15 && v == static_cast<double>(static_cast<std::int64_t>(v)) &&
      !(v == 0.0 && std::signbit(v))) {
    return std::to_chars(first, first + kGeneralMinBuffer, static_cast<std::int64_t>(v)).ptr;
  }
  return write_general(first, first + kGeneralMinBuffer, v, 17);
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
