// Shared CSV corpora: the cell values whose bytes the Dataset writer
// pins against printf("%.17g"), the edge corpus of its %.*g kernel
// (tests/test_core_format.cpp, bench/bench_csv_io.cpp), and the
// hand-written documents that pin the Dataset loader's grammar.
// tests/fuzz_csv.cpp mutates the first and the last.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"

namespace sci::csv_corpus {

/// Values a %.17g writer is most likely to get wrong: signed NaNs with
/// payloads, infinities, signed zeros, subnormals, the edge of exact
/// integers, the switch from fixed to exponent notation, 0.1.
inline std::vector<double> csv_special_values() {
  constexpr double inf = std::numeric_limits<double>::infinity();
  const double two53 = 9007199254740992.0;
  std::vector<double> v = {
      std::bit_cast<double>(std::uint64_t{0x7ff8000000000000}),  // +qNaN
      std::bit_cast<double>(std::uint64_t{0xfff8000000000000}),  // -qNaN
      std::bit_cast<double>(std::uint64_t{0x7ff8000000000123}),  // payloads
      std::bit_cast<double>(std::uint64_t{0xfffc0000deadbeef}),
      std::bit_cast<double>(std::uint64_t{0x7ff0000000000001}),  // sNaN
      std::bit_cast<double>(std::uint64_t{0xfff0000000000001}),
      inf,
      -inf,
      0.0,
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max(),
      two53 - 1.0,
      two53,
      std::nextafter(two53, inf),
      -(two53 - 1.0),
      -std::nextafter(two53, inf),
      1e15 - 1.0,
      1e15,
      1e15 + 1.0,
      1e16 - 2.0,
      1e16,
      1e17 - 16.0,
      1e17,
      -1e17,
      1e-5,
      1e-4,
      0.1,
      -0.1,
      0.5,
      1.0,
      -1.0,
      2.0,
      12.0,
      123456789.0,
      1.0 / 3.0,
  };
  return v;
}

/// `n` seeded uniformly random bit patterns (every exponent, NaNs and
/// subnormals included), then `n` random integers in +-2^53 and `n`
/// small non-negative integers -- the shapes of config/rep/sample cells.
inline std::vector<double> csv_random_values(std::size_t n, std::uint64_t seed) {
  rng::Xoshiro256 gen(seed);
  std::vector<double> v;
  v.reserve(3 * n);
  for (std::size_t i = 0; i < n; ++i) v.push_back(std::bit_cast<double>(gen()));
  for (std::size_t i = 0; i < n; ++i) {
    const auto bits = static_cast<std::int64_t>(gen() >> 10);  // < 2^54
    v.push_back(static_cast<double>(bits - (std::int64_t{1} << 53)));
  }
  for (std::size_t i = 0; i < n; ++i) v.push_back(static_cast<double>(gen() % 100000));
  return v;
}

/// Odd multiples of 2^-j whose exact decimal expansion has digits + 1
/// significant digits ending in 5: the half-way cases of %.{digits}g.
/// With L integer digits (L <= 0: -L zeros after the point)
/// and j = digits + 1 - L fractional ones, n / 2^j for odd n is one.
inline std::vector<double> format_ties(int digits, rng::Xoshiro256& gen) {
  std::vector<double> out;
  for (int lead = -3; lead <= digits; ++lead) {
    const int j = digits + 1 - lead;
    const double lo = std::ceil(std::ldexp(std::pow(10.0, lead - 1), j));
    const double hi = std::ldexp(std::pow(10.0, lead), j);
    if (!(hi <= 0x1p53)) continue;  // n must be exact
    for (int i = 0; i < 400; ++i) {
      auto n = static_cast<std::uint64_t>(
          lo + std::floor(static_cast<double>(gen() >> 11) * 0x1p-53 * (hi - lo)));
      n |= 1;  // odd: the last fractional digit of n / 2^j is 5
      if (static_cast<double>(n) >= hi) continue;
      out.push_back(std::ldexp(static_cast<double>(n), -j));
      out.push_back(-out.back());
    }
  }
  return out;
}

/// The edge corpus of the %.*g kernel (core::write_general) at
/// `digits`, about 660 000 values: csv_special_values, signed
/// subnormals, random bit patterns, signed lognormal(0, 6) values,
/// every power of ten from 1e-6 to 1e18 with its +-2000 ulp neighbours
/// (the decimal carry and the style switch), 2^53 +- k (where the
/// spacing of doubles passes 1) and the exact ties at `digits`.
inline std::vector<double> format_edge_values(int digits, std::uint64_t seed) {
  constexpr double inf = std::numeric_limits<double>::infinity();
  rng::Xoshiro256 gen(seed);
  std::vector<double> v = csv_special_values();
  for (double x : {9.5, 99.5, 9.9995, 1e-4 * (1 - 1e-16), 123456.5}) v.push_back(x);
  for (int i = 0; i < 20000; ++i) {
    const double sub = std::bit_cast<double>(gen() & ((std::uint64_t{1} << 52) - 1));
    v.push_back(sub);
    v.push_back(-sub);
  }
  for (int i = 0; i < 250000; ++i) v.push_back(std::bit_cast<double>(gen()));
  for (int i = 0; i < 250000; ++i) {
    const double x = rng::lognormal(gen, 0.0, 6.0);
    v.push_back(i % 2 == 0 ? x : -x);
  }
  for (int p = -6; p <= 18; ++p) {
    const double ten = std::pow(10.0, p);
    double below = ten;
    double above = ten;
    v.push_back(ten);
    for (int ulp = 0; ulp < 2000; ++ulp) {
      below = std::nextafter(below, 0.0);
      above = std::nextafter(above, inf);
      v.push_back(below);
      v.push_back(above);
    }
  }
  for (int k = -5000; k <= 5000; ++k) v.push_back(0x1p53 + static_cast<double>(k));
  const std::vector<double> ties = format_ties(digits, gen);
  v.insert(v.end(), ties.begin(), ties.end());
  return v;
}

/// Hand-written documents covering the loader's grammar: comments,
/// CRLF, trailing commas, blank lines, padding, no final newline,
/// integer edges, and the malformed shapes whose error texts are pinned.
inline std::vector<std::string> csv_grammar_corpus() {
  return {
      "# experiment: x\n# env.k: v\na,b\n1,2\n3,4\n",
      "# c\r\na,b\r\n1,2\r\n3,4\r\n",
      "a,b,\n1,2,\n",
      "a\n1\n\n# note\n2\n\n",
      "a,b\n 1 ,\t2\t\n  -3\t, 4 \n",
      "a,b\n1,2",
      "a,b\n1,,\n",
      "a,b\n1,2\n3\n",
      "a,b\n1,2,3\n",
      "v\ninf\n-inf\nnan\n-nan\n1e-320\n-0\n",
      "#\n#only\n",
      "",
      "a,a\n1,2\n",
      "a\rb,c\n1,2\n",
      "config,rep,f_system,sample,value\n0,0,0,0,1.5\n0,0,0,1,2.5\n1,0,1,0,3\n",
      // Integer edges of the digits-only cell path: leading zeros, 15
      // digits (taken) against 16 (general path), signs and padding.
      "v\n007\n999999999999999\n9999999999999999\n9007199254740993\n-0\n 12\n12\r\n",
      "v\n+5\n",
  };
}

}  // namespace sci::csv_corpus
