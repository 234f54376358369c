// Minimal JSON document model for the perf subsystem: enough to write
// Chrome trace_event dumps and bench result files, and to load them back
// in tools/ttrace and the tests — no third-party dependency.
//
// Objects keep their keys in sorted order (std::map), so serialisation is
// deterministic: two identical runs produce byte-identical dumps, which the
// perf tests rely on. Writer owns the formatting rules: Value::dump() and
// the frame of a tperf dump (perf/chrome_trace.hpp: its metadata and
// results) print through it. The dump's direct writers of counters,
// metadata events and spans copy fixed text around their fields; the tests
// hold them to these rules by parsing a dump and printing it again with
// Value::dump(2), which must give back the same bytes.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace fpst::perf::json {

/// Deepest array/object nesting the parsers accept. They recurse once per
/// level, so an unbounded line of '[' would overflow the stack; no document
/// this repo writes nests deeper than 10 levels.
inline constexpr int kMaxDepth = 256;

class Writer;

class Value {
 public:
  enum class Kind : std::uint8_t {
    null,
    boolean,
    integer,
    number,
    string,
    array,
    object,
  };

  using Array = std::vector<Value>;
  using Object = std::map<std::string, Value>;

  Value() = default;  // null
  static Value boolean(bool b);
  static Value integer(std::int64_t i);
  static Value number(double d);
  static Value string(std::string s);
  static Value array();
  static Value object();

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::null; }
  bool is_object() const { return kind_ == Kind::object; }
  bool is_array() const { return kind_ == Kind::array; }
  bool is_string() const { return kind_ == Kind::string; }
  bool is_number() const {
    return kind_ == Kind::integer || kind_ == Kind::number;
  }

  bool as_bool() const;
  /// Integer value (a double is truncated). Throws unless is_number().
  std::int64_t as_int() const;
  double as_double() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;
  Array& as_array();
  Object& as_object();

  /// Object member access; creates the member (null) on a mutable object.
  Value& operator[](const std::string& key);
  /// Member lookup; returns nullptr when absent or not an object.
  const Value* find(std::string_view key) const;
  /// push_back onto an array value.
  void append(Value v);

  /// Serialise. `indent` < 0 emits compact single-line JSON; >= 0 pretty-
  /// prints with that many spaces per level.
  std::string dump(int indent = -1) const;

  /// Parse a complete JSON document. Throws std::runtime_error with an
  /// offset-annotated message on malformed input, including a duplicate
  /// object key (named in the message): a std::map holds one value per
  /// key, so keeping either would silently drop the other, and the serve
  /// layer would hash a JobSpec the client did not mean.
  static Value parse(std::string_view text);

 private:
  friend class Writer;

  Kind kind_ = Kind::null;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double num_ = 0.0;
  std::string str_;
  Array arr_;
  Object obj_;
};

/// Appends JSON text to a string one token at a time: the repo's one set of
/// formatting rules (string escapes, integers, shortest round-trip doubles,
/// commas, newlines and indentation). Writing the members of an object in
/// sorted key order yields exactly the bytes Value::dump() prints for the
/// equivalent tree; the writer does not sort or check keys itself.
class Writer {
 public:
  /// `indent` as for Value::dump(): < 0 compact, >= 0 spaces per level.
  Writer(std::string& out, int indent) : out_{out}, indent_{indent} {}

  Writer& begin_object() { return open('{'); }
  Writer& end_object() { return close('}'); }
  Writer& begin_array() { return open('['); }
  Writer& end_array() { return close(']'); }
  /// An object member's key; the next value written is its value.
  Writer& key(std::string_view k);

  Writer& null();
  Writer& boolean(bool b);
  Writer& integer(std::int64_t i);
  /// Shortest round-trip form; NaN and infinities print as null (JSON has
  /// no spelling for them).
  Writer& number(double d);
  Writer& string(std::string_view s);
  /// A whole tree, at the current nesting depth.
  Writer& value(const Value& v);

 private:
  /// Comma and line break before an array element or an object member.
  void next_item();
  /// Separator before a value: none after a key, next_item() in an array.
  void before_value();
  void newline(std::size_t depth);
  void escaped(std::string_view s);
  Writer& open(char bracket);
  Writer& close(char bracket);

  std::string& out_;
  int indent_;
  bool after_key_ = false;
  /// One entry per open container: whether it has an item yet.
  std::vector<bool> open_;
};

}  // namespace fpst::perf::json
