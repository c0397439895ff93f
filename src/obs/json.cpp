#include "obs/json.hpp"

#include <charconv>
#include <climits>
#include <cmath>
#include <cstdio>
#include <limits>

namespace sci::obs::json {

namespace {

[[noreturn]] void fail(std::size_t offset, const std::string& what) {
  throw ParseError("json: " + what + " at offset " + std::to_string(offset));
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value document() {
    if (text_.size() > kMaxDocumentBytes) {
      fail(0, "document of " + std::to_string(text_.size()) + " bytes exceeds the " +
                  std::to_string(kMaxDocumentBytes) + "-byte limit");
    }
    Value v = value();
    skip_ws();
    if (pos_ != text_.size()) fail(pos_, "trailing garbage");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail(pos_, "unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(pos_, std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Value value() {
    skip_ws();
    switch (peek()) {
      case '{':
      case '[': {
        // Each container is one level of recursion: cap it before a
        // hostile "[[[[..." can exhaust the stack.
        if (++depth_ > kMaxDepth) {
          fail(pos_, "nesting deeper than " + std::to_string(kMaxDepth) + " levels");
        }
        Value v = peek() == '{' ? object() : array();
        --depth_;
        return v;
      }
      case '"': {
        Value v;
        v.type = Value::Type::kString;
        v.string = string();
        return v;
      }
      case 't': {
        if (!consume_literal("true")) fail(pos_, "bad literal");
        Value v;
        v.type = Value::Type::kBool;
        v.boolean = true;
        return v;
      }
      case 'f': {
        if (!consume_literal("false")) fail(pos_, "bad literal");
        Value v;
        v.type = Value::Type::kBool;
        v.boolean = false;
        return v;
      }
      case 'n': {
        if (!consume_literal("null")) fail(pos_, "bad literal");
        return Value{};
      }
      default:
        return number();
    }
  }

  Value object() {
    expect('{');
    Value v;
    v.type = Value::Type::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(key), value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') return v;
      if (c != ',') fail(pos_ - 1, "expected ',' or '}'");
    }
  }

  Value array() {
    expect('[');
    Value v;
    v.type = Value::Type::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array.push_back(value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') return v;
      if (c != ',') fail(pos_ - 1, "expected ',' or ']'");
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail(pos_, "unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail(pos_, "unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail(pos_, "truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail(pos_ - 1, "bad \\u escape digit");
          }
          // The emitter never produces \u escapes; accept the ASCII
          // range on input so hand-written files still parse.
          if (code > 0x7f) fail(pos_ - 4, "\\u escape above ASCII unsupported");
          out.push_back(static_cast<char>(code));
          break;
        }
        default:
          fail(pos_ - 1, "bad escape");
      }
    }
  }

  Value number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' || c == '+' ||
          c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail(start, "expected a value");
    double out = 0.0;
    const auto [ptr, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, out);
    if (ec != std::errc{} || ptr != text_.data() + pos_) fail(start, "bad number");
    Value v;
    v.type = Value::Type::kNumber;
    v.number = out;
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  ///< containers open at pos_
};

}  // namespace

const Value* Value::find(std::string_view key) const noexcept {
  if (type != Type::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Value& Value::at(std::string_view key) const {
  const Value* v = find(key);
  if (v == nullptr) throw std::runtime_error("json: missing key '" + std::string(key) + "'");
  return *v;
}

double Value::as_number() const {
  if (type == Type::kNull) return std::numeric_limits<double>::quiet_NaN();
  if (type != Type::kNumber) throw std::runtime_error("json: expected a number");
  return number;
}

const std::string& Value::as_string() const {
  if (type != Type::kString) throw std::runtime_error("json: expected a string");
  return string;
}

bool Value::as_bool() const {
  if (type != Type::kBool) throw std::runtime_error("json: expected a boolean");
  return boolean;
}

const std::vector<Value>& Value::as_array() const {
  if (type != Type::kArray) throw std::runtime_error("json: expected an array");
  return array;
}

const std::vector<Member>& Value::as_object() const {
  if (type != Type::kObject) throw std::runtime_error("json: expected an object");
  return object;
}

std::size_t Value::as_size() const {
  // 2^64 for a 64-bit size_t: every double below it converts exactly or
  // truncates, so the range check must come before the cast.
  static const double kLimit = std::ldexp(1.0, std::numeric_limits<std::size_t>::digits);
  const double v = as_number();
  if (!(v >= 0.0 && v < kLimit) || v != std::trunc(v)) {
    throw std::runtime_error("json: expected a non-negative integer below 2^" +
                             std::to_string(std::numeric_limits<std::size_t>::digits));
  }
  return static_cast<std::size_t>(v);
}

Value parse(std::string_view text) { return Parser(text).document(); }

void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[32];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

std::string dump_number(double v) {
  std::string out;
  append_number(out, v);
  return out;
}

std::string dump_size(std::size_t v) {
  char buf[24];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
  (void)ec;
  return std::string(buf, ptr);
}

void append_quoted(std::string& out, std::string_view text) {
  out.push_back('"');
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void Reader::schema(const Schema& s) const {
  const std::string& name = value_.at("schema").as_string();
  const std::string doc = std::string(what_) + ": ";
  if (name != s.name) {
    throw std::runtime_error(doc + "expected schema \"" + std::string(s.name) +
                             "\", got \"" + name + "\"");
  }
  const std::size_t version = value_.at("version").as_size();
  if (version != s.version) {
    throw VersionError(doc + "unsupported version " + std::to_string(version) +
                           " of schema \"" + name + "\"",
                       version);
  }
}

int Reader::as_int(const Value& v, std::string_view key) const {
  const double x = v.as_number();
  if (!(x >= INT_MIN && x <= INT_MAX) || x != std::trunc(x)) {
    throw std::invalid_argument(std::string(what_) + ": \"" + std::string(key) +
                                "\" must be an integer in [" + std::to_string(INT_MIN) +
                                ", " + std::to_string(INT_MAX) + "]");
  }
  return static_cast<int>(x);
}

std::string quoted(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  append_quoted(out, text);
  return out;
}

}  // namespace sci::obs::json
