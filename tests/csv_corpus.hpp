// Shared CSV corpora: the cell values whose bytes the Dataset writer
// pins against printf("%.17g"), and the hand-written documents that pin
// the Dataset loader's grammar. tests/fuzz_csv.cpp mutates both.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

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
