#include "perf/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace fpst::perf::json {

Value Value::boolean(bool b) {
  Value v;
  v.kind_ = Kind::boolean;
  v.bool_ = b;
  return v;
}

Value Value::integer(std::int64_t i) {
  Value v;
  v.kind_ = Kind::integer;
  v.int_ = i;
  return v;
}

Value Value::number(double d) {
  Value v;
  v.kind_ = Kind::number;
  v.num_ = d;
  return v;
}

Value Value::string(std::string s) {
  Value v;
  v.kind_ = Kind::string;
  v.str_ = std::move(s);
  return v;
}

Value Value::array() {
  Value v;
  v.kind_ = Kind::array;
  return v;
}

Value Value::object() {
  Value v;
  v.kind_ = Kind::object;
  return v;
}

namespace {
[[noreturn]] void type_error(const char* want) {
  throw std::runtime_error(std::string("json: value is not ") + want);
}
}  // namespace

bool Value::as_bool() const {
  if (kind_ != Kind::boolean) {
    type_error("a boolean");
  }
  return bool_;
}

std::int64_t Value::as_int() const {
  if (kind_ == Kind::integer) {
    return int_;
  }
  if (kind_ == Kind::number) {
    return static_cast<std::int64_t>(num_);
  }
  type_error("a number");
}

double Value::as_double() const {
  if (kind_ == Kind::integer) {
    return static_cast<double>(int_);
  }
  if (kind_ == Kind::number) {
    return num_;
  }
  type_error("a number");
}

const std::string& Value::as_string() const {
  if (kind_ != Kind::string) {
    type_error("a string");
  }
  return str_;
}

const Value::Array& Value::as_array() const {
  if (kind_ != Kind::array) {
    type_error("an array");
  }
  return arr_;
}

const Value::Object& Value::as_object() const {
  if (kind_ != Kind::object) {
    type_error("an object");
  }
  return obj_;
}

Value::Array& Value::as_array() {
  if (kind_ != Kind::array) {
    type_error("an array");
  }
  return arr_;
}

Value::Object& Value::as_object() {
  if (kind_ != Kind::object) {
    type_error("an object");
  }
  return obj_;
}

Value& Value::operator[](const std::string& key) {
  if (kind_ == Kind::null) {
    kind_ = Kind::object;
  }
  if (kind_ != Kind::object) {
    type_error("an object");
  }
  return obj_[key];
}

const Value* Value::find(std::string_view key) const {
  if (kind_ != Kind::object) {
    return nullptr;
  }
  const auto it = obj_.find(std::string(key));
  return it == obj_.end() ? nullptr : &it->second;
}

void Value::append(Value v) {
  if (kind_ == Kind::null) {
    kind_ = Kind::array;
  }
  if (kind_ != Kind::array) {
    type_error("an array");
  }
  arr_.push_back(std::move(v));
}

// ---------------------------------------------------------------- writing

void Writer::newline(std::size_t depth) {
  if (indent_ < 0) {
    return;
  }
  out_ += '\n';
  out_.append(static_cast<std::size_t>(indent_) * depth, ' ');
}

void Writer::next_item() {
  if (open_.back()) {
    out_ += ',';
  }
  open_.back() = true;
  newline(open_.size());
}

void Writer::before_value() {
  if (after_key_) {
    after_key_ = false;
  } else if (!open_.empty()) {
    next_item();
  }
}

void Writer::escaped(std::string_view s) {
  out_ += '"';
  std::size_t plain = 0;  // start of the pending run of unescaped bytes
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20) {
      continue;
    }
    out_.append(s, plain, i - plain);
    plain = i + 1;
    switch (c) {
      case '"': out_ += "\\\""; break;
      case '\\': out_ += "\\\\"; break;
      case '\n': out_ += "\\n"; break;
      case '\r': out_ += "\\r"; break;
      case '\t': out_ += "\\t"; break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x",
                      static_cast<unsigned>(static_cast<unsigned char>(c)));
        out_ += buf;
      }
    }
  }
  out_.append(s, plain, s.size() - plain);
  out_ += '"';
}

Writer& Writer::open(char bracket) {
  before_value();
  out_ += bracket;
  open_.push_back(false);
  return *this;
}

Writer& Writer::close(char bracket) {
  const bool had_items = open_.back();
  open_.pop_back();
  if (had_items) {
    newline(open_.size());
  }
  out_ += bracket;
  return *this;
}

Writer& Writer::key(std::string_view k) {
  next_item();
  escaped(k);
  out_ += indent_ < 0 ? ":" : ": ";
  after_key_ = true;
  return *this;
}

Writer& Writer::null() {
  before_value();
  out_ += "null";
  return *this;
}

Writer& Writer::boolean(bool b) {
  before_value();
  out_ += b ? "true" : "false";
  return *this;
}

Writer& Writer::integer(std::int64_t i) {
  before_value();
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof buf, i);
  out_.append(buf, r.ptr);
  return *this;
}

Writer& Writer::number(double d) {
  if (!std::isfinite(d)) {
    return null();
  }
  before_value();
  char buf[40];
  const auto r = std::to_chars(buf, buf + sizeof buf, d);
  out_.append(buf, r.ptr);
  return *this;
}

Writer& Writer::string(std::string_view s) {
  before_value();
  escaped(s);
  return *this;
}

Writer& Writer::value(const Value& v) {
  switch (v.kind_) {
    case Value::Kind::null: return null();
    case Value::Kind::boolean: return boolean(v.bool_);
    case Value::Kind::integer: return integer(v.int_);
    case Value::Kind::number: return number(v.num_);
    case Value::Kind::string: return string(v.str_);
    case Value::Kind::array:
      begin_array();
      for (const Value& e : v.arr_) {
        value(e);
      }
      return end_array();
    case Value::Kind::object:
      begin_object();
      for (const auto& [k, m] : v.obj_) {
        key(k).value(m);
      }
      return end_object();
  }
  return *this;
}

std::string Value::dump(int indent) const {
  std::string out;
  Writer{out, indent}.value(*this);
  return out;
}

// ---------------------------------------------------------------- parsing

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_{text} {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing characters after document");
    }
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("json: " + what + " at offset " +
                             std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') {
        break;
      }
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
    }
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) {
      return false;
    }
    pos_ += lit.size();
    return true;
  }

  Value parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Value::string(parse_string());
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return Value::boolean(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return Value::boolean(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return Value{};
      default:
        return parse_number();
    }
  }

  // Called on entering an array or object; leave() on its way out.
  void enter() {
    if (++depth_ > kMaxDepth) {
      fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
    }
  }
  void leave() { --depth_; }

  Value parse_object() {
    expect('{');
    enter();
    Value v = Value::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      leave();
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      const auto [it, fresh] = v.as_object().try_emplace(std::move(key));
      if (!fresh) {
        fail("duplicate object key \"" + it->first + "\"");
      }
      it->second = parse_value();
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      leave();
      return v;
    }
  }

  Value parse_array() {
    expect('[');
    enter();
    Value v = Value::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      leave();
      return v;
    }
    for (;;) {
      v.append(parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      leave();
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) {
        fail("unterminated string");
      }
      const char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) {
        fail("unterminated escape");
      }
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            fail("truncated \\u escape");
          }
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') {
              cp |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              cp |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              cp |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad \\u escape");
            }
          }
          // BMP-only UTF-8 encoding (the perf dumps are ASCII anyway).
          if (cp < 0x80) {
            out += static_cast<char>(cp);
          } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          }
          break;
        }
        default:
          fail("bad escape character");
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    bool is_integer = true;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      ++pos_;
    }
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        is_integer = false;
        ++pos_;
      } else {
        break;
      }
    }
    const std::string_view tok = text_.substr(start, pos_ - start);
    if (tok.empty() || tok == "-") {
      fail("bad number");
    }
    if (is_integer) {
      std::int64_t i = 0;
      const auto r = std::from_chars(tok.data(), tok.data() + tok.size(), i);
      if (r.ec == std::errc{} && r.ptr == tok.data() + tok.size()) {
        // "-0" is the text Writer::number prints for the double -0.0; read
        // it back as that double, so the round trip keeps its sign.
        return i == 0 && tok[0] == '-' ? Value::number(-0.0)
                                       : Value::integer(i);
      }
      // Out of int64 range: fall through to double.
    }
    double d = 0.0;
    const auto r = std::from_chars(tok.data(), tok.data() + tok.size(), d);
    if (r.ec != std::errc{} || r.ptr != tok.data() + tok.size()) {
      fail("bad number");
    }
    return Value::number(d);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Value Value::parse(std::string_view text) {
  return Parser{text}.parse_document();
}

}  // namespace fpst::perf::json
