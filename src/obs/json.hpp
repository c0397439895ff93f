// Minimal canonical JSON for the observability pipeline.
//
// Everything machine-readable this repo emits about itself -- bench
// reports (obs/bench_report.hpp), campaign metrics snapshots
// (exec/progress.hpp), and the scibench_ci history store -- goes
// through this one emitter/parser pair, so "emit -> parse -> re-emit"
// is byte-identical by construction:
//
//   * numbers are written with std::to_chars (shortest representation
//     that round-trips the exact double), so re-emitting a parsed value
//     reproduces the original bytes;
//   * object keys keep insertion order (emitters write a fixed schema
//     order; no std::map reshuffling);
//   * non-finite doubles are emitted as null (JSON has no NaN) and
//     parse back as quiet NaN.
//
// This is deliberately a subset: UTF-8 pass-through, no \u escapes on
// output (inputs with \uXXXX below 0x80 are accepted), doubles only.
// It exists so the repo needs no third-party JSON dependency.
#pragma once

#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sci::obs::json {

struct Value;
using Member = std::pair<std::string, Value>;

struct Value {
  enum class Type { kNull, kBool, kNumber, kString, kObject, kArray };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Member> object;  ///< insertion order preserved
  std::vector<Value> array;

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const Value* find(std::string_view key) const noexcept;
  /// Member that must exist (throws std::runtime_error naming the key).
  [[nodiscard]] const Value& at(std::string_view key) const;

  /// Typed accessors; throw std::runtime_error on type mismatch.
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] const std::vector<Value>& as_array() const;
  [[nodiscard]] const std::vector<Member>& as_object() const;
  /// A non-negative integer that size_t holds; anything else -- NaN
  /// (null), 1e300, 2^64 -- throws before any cast.
  [[nodiscard]] std::size_t as_size() const;
};

/// Every failure of parse(): malformed text or an exceeded limit. The
/// message carries a byte offset. Derives from std::runtime_error, so
/// callers that catch that keep working.
class ParseError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// parse() limits. Input reaches the parser from sockets and files that
/// anyone can write, and the parser recurses once per nesting level, so
/// depth is capped well below what a thread stack can hold; the size cap
/// bounds what one document may make it allocate. Both sit far above
/// anything this repo emits (a few levels, at most a few MB).
inline constexpr std::size_t kMaxDepth = 128;
inline constexpr std::size_t kMaxDocumentBytes = std::size_t{64} << 20;

/// Parses one JSON document (trailing whitespace allowed, trailing
/// garbage rejected). Throws ParseError on malformed text, on documents
/// over kMaxDocumentBytes, and on nesting deeper than kMaxDepth.
[[nodiscard]] Value parse(std::string_view text);

/// Canonical number emit: shortest round-trip form via std::to_chars;
/// NaN/inf become "null".
[[nodiscard]] std::string dump_number(double v);
/// Canonical unsigned emit (no exponent form, ever).
[[nodiscard]] std::string dump_size(std::size_t v);
/// Appends `text` as a quoted JSON string (escapes ", \, and control
/// bytes; everything else passes through as UTF-8).
void append_quoted(std::string& out, std::string_view text);
[[nodiscard]] std::string quoted(std::string_view text);

}  // namespace sci::obs::json
