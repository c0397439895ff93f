// Minimal canonical JSON for the observability pipeline.
//
// Everything machine-readable this repo emits about itself -- bench
// reports (obs/bench_report.hpp), campaign metrics snapshots
// (exec/progress.hpp), the scibench_ci history store, the campaign
// journal and the daemon's wire (exec/wire.hpp) -- goes through this
// one emitter/parser pair, so "emit -> parse -> re-emit" is
// byte-identical by construction:
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

#include <charconv>
#include <cmath>
#include <cstddef>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
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
/// dump_number, appended to `out`.
void append_number(std::string& out, double v);

template <class T>
void append_integer(std::string& out, T v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

// ------------------------------------------------------- field lists
//
// A document declares its members once, as a field list: a callable
// `fields(io, doc...)` that names every member in emit order through
//
//   io(key, field)                   a string, bool, double, int or
//                                    unsigned member, or a codec
//   io.schema(Schema)                the "schema" and "version" members
//   io.object(key, fields, doc...)   a nested object
//   io.list(key, items[, fields])    an array of scalars (of objects)
//   io.dict(key, map)                an object of string members
//
// A Writer walks the list to emit the document, a Reader to parse it,
// so the two directions cannot drift apart. The reader looks every
// member up by key, ignores members it does not know, throws
// std::runtime_error on a missing or mistyped one, and appends a
// list's elements with push_back. A codec is a value with
// `write(std::string&)` and `read(const Value&, what, key)`, for a
// member whose text is not its field's plain JSON form (AtMost, InRange, Named,
// exec/wire.hpp's Hex). Everything is resolved at compile time: no
// virtual call or std::function per member.

/// A versioned document's "schema" and "version" members.
struct Schema {
  std::string_view name;
  std::size_t version = 0;
};

/// Reader::schema's refusal of a document of the right schema and
/// another version.
class VersionError : public std::runtime_error {
 public:
  VersionError(const std::string& what, std::size_t found)
      : std::runtime_error(what), version(found) {}
  std::size_t version;
};

/// kLine: one line, ", " between items. kIndented: objects and arrays
/// of objects in the top two levels put each item on its own line,
/// indented two spaces a level, and the document ends with a newline.
enum class Layout { kLine, kIndented };

class Writer {
 public:
  explicit Writer(std::string& out, Layout layout = Layout::kLine)
      : out_(out), indented_(layout == Layout::kIndented) {}

  /// Writes the object `fields` lists for `docs`.
  template <class F, class... D>
  void write(F&& fields, const D&... docs) {
    open('{');
    fields(*this, docs...);
    close('}');
    if (indented_ && depth_ == 0) out_ += '\n';
  }
  template <class F, class... D>
  void object(std::string_view key, F&& fields, const D&... docs) {
    member(key);
    write(fields, docs...);
  }
  void schema(const Schema& s) {
    (*this)("schema", s.name);
    (*this)("version", s.version);
  }
  template <class T>
  void operator()(std::string_view key, const T& field) {
    member(key);
    scalar(field);
  }
  template <class R, class... F>
  void list(std::string_view key, const R& items, F&&... fields) {
    member(key);
    open('[');
    scalars_ = sizeof...(F) == 0;  // an array of scalars stays on one line
    for (const auto& item : items) {
      next();
      if constexpr (sizeof...(F) > 0) write(fields..., item);
      else scalar(item);
    }
    close(']');
    scalars_ = false;
  }
  template <class M>
  void dict(std::string_view key, const M& map) {
    member(key);
    open('{');
    for (const auto& [k, v] : map) {
      next();
      append_quoted(out_, k);  // a map key is data and may need escapes
      out_ += ": ";
      scalar(v);
    }
    close('}');
  }

 private:
  // A closed container leaves its parent with at least one item, so
  // one `first_` flag serves every level.
  [[nodiscard]] bool multiline() const { return indented_ && depth_ <= 2 && !scalars_; }
  void open(char c) {
    out_ += c;
    ++depth_;
    first_ = true;  // a container's first item takes no comma
  }
  void close(char c) {
    if (multiline() && !first_) out_.append("\n").append(2 * depth_ - 2, ' ');
    --depth_;
    out_ += c;
    first_ = false;
  }
  void next() {
    if (multiline()) out_.append(first_ ? "\n" : ",\n").append(2 * depth_, ' ');
    else if (!first_) out_ += ", ";
    first_ = false;
  }
  /// A field list's keys are plain identifiers and need no escapes.
  void member(std::string_view key) {
    next();
    out_ += '"';
    out_ += key;
    out_ += "\": ";
  }
  template <class T>
  void scalar(const T& v) {
    if constexpr (requires { v.write(out_); }) v.write(out_);
    else if constexpr (std::is_same_v<T, bool>) out_ += v ? "true" : "false";
    else if constexpr (std::is_floating_point_v<T>) append_number(out_, v);
    else if constexpr (std::is_integral_v<T>) append_integer(out_, v);
    else append_quoted(out_, v);
  }

  std::string& out_;
  bool indented_;
  std::size_t depth_ = 0;
  bool first_ = true;
  bool scalars_ = false;
};

class Reader {
 public:
  /// kOptional: a missing member leaves its field as it is.
  enum class Members { kRequired, kOptional };

  /// `what` opens the messages of the checks the reader makes itself.
  Reader(const Value& value, std::string_view what, Members members = Members::kRequired)
      : value_(value), what_(what), members_(members) {}

  /// Reads `docs` through `fields` from the object the reader holds.
  template <class F, class... D>
  void read(F&& fields, D&... docs) {
    fields(*this, docs...);
  }
  template <class F, class... D>
  void object(std::string_view key, F&& fields, D&... docs) {
    if (const Value* v = member(key)) Reader(*v, what_, members_).read(fields, docs...);
  }
  /// Throws std::runtime_error on another schema and VersionError on
  /// another version.
  void schema(const Schema& s) const;
  template <class T>
  void operator()(std::string_view key, T&& field) const {
    if (const Value* v = member(key)) scalar(*v, key, field);
  }
  template <class C, class... F>
  void list(std::string_view key, C&& items, F&&... fields) const {
    if (const Value* v = member(key)) {
      for (const Value& e : v->as_array()) {
        typename std::remove_cvref_t<C>::value_type item{};
        if constexpr (sizeof...(F) > 0) Reader(e, what_, members_).read(fields..., item);
        else scalar(e, key, item);
        items.push_back(std::move(item));
      }
    }
  }
  template <class M>
  void dict(std::string_view key, M& map) const {
    if (const Value* v = member(key)) {
      for (const auto& [k, e] : v->as_object()) map[k] = e.as_string();
    }
  }

 private:
  const Value* member(std::string_view key) const {
    return members_ == Members::kOptional ? value_.find(key) : &value_.at(key);
  }
  template <class T>
  void scalar(const Value& v, std::string_view key, T&& field) const {
    using U = std::remove_cvref_t<T>;
    if constexpr (requires { field.read(v, what_, key); }) field.read(v, what_, key);
    else if constexpr (std::is_same_v<U, bool>) field = v.as_bool();
    else if constexpr (std::is_floating_point_v<U>) field = v.as_number();
    else if constexpr (std::is_unsigned_v<U>) field = v.as_size();
    else if constexpr (std::is_integral_v<U>) field = as_int(v, key);
    else field = v.as_string();
  }
  /// An integer in int's range; anything else throws
  /// std::invalid_argument before the cast.
  [[nodiscard]] int as_int(const Value& v, std::string_view key) const;

  const Value& value_;
  std::string_view what_;
  Members members_;
};

/// The document `fields` writes for `docs`.
template <class F, class... D>
[[nodiscard]] std::string write(Layout layout, F&& fields, const D&... docs) {
  std::string out;
  Writer(out, layout).write(fields, docs...);
  return out;
}

/// An unsigned member at most `max`, held in `value` (an unsigned, an
/// int or an enum). A larger number throws std::invalid_argument, or
/// std::runtime_error for an enum, whose codes past `max` are malformed
/// rather than too large.
template <class T>
struct AtMost {
  T& value;
  std::size_t max;

  void write(std::string& out) const {
    append_integer(out, static_cast<std::size_t>(value));
  }
  void read(const Value& v, std::string_view what, std::string_view key) const {
    const std::size_t n = v.as_size();
    if (n > max) {
      const std::string message = std::string(what) + ": \"" + std::string(key) +
                                  "\" must be at most " + std::to_string(max);
      if constexpr (std::is_enum_v<T>) throw std::runtime_error(message);
      throw std::invalid_argument(message);
    }
    value = static_cast<std::remove_const_t<T>>(n);
  }
};

/// A number member in [lo, hi] `unit`, held in `value`; anything else,
/// a null included, throws std::invalid_argument.
template <class T>
struct InRange {
  T& value;
  double lo;
  double hi;
  std::string_view unit;

  void write(std::string& out) const { append_number(out, value); }
  void read(const Value& v, std::string_view what, std::string_view key) const {
    const double x = v.as_number();
    if (!(x >= lo && x <= hi)) {
      throw std::invalid_argument(std::string(what) + ": \"" + std::string(key) +
                                  "\" must be in [" + dump_number(lo) + ", " +
                                  dump_number(hi) + "] " + std::string(unit));
    }
    value = x;
  }
};

/// An enum member written as to_string(value); reading accepts the
/// to_string of an enumerator in `all`.
template <class E>
struct Named {
  E& value;
  std::initializer_list<std::remove_const_t<E>> all;

  void write(std::string& out) const { append_quoted(out, to_string(value)); }
  void read(const Value& v, std::string_view what, std::string_view key) const {
    for (const auto e : all) {
      if (v.as_string() == to_string(e)) return void(value = e);
    }
    throw std::runtime_error(std::string(what) + ": unknown \"" + std::string(key) +
                             "\" \"" + v.as_string() + "\"");
  }
};

}  // namespace sci::obs::json
