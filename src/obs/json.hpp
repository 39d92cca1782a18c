#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace rcgp::obs::json {

/// Escapes a string for embedding in a JSON document (quotes not included).
std::string escape(std::string_view s);

/// Streaming JSON writer used by the metrics exporter, the trace sink, and
/// the CLI `--json` modes. Emits compact one-line documents; the caller is
/// responsible for structural sanity (begin/end pairing), which `str()`
/// checks in debug builds via the open-scope stack.
class Writer {
public:
  Writer& begin_object();
  Writer& end_object();
  Writer& begin_array();
  Writer& end_array();

  /// Emits `"k":` inside an object (follow with exactly one value).
  Writer& key(std::string_view k);

  Writer& value(std::string_view v);
  Writer& value(const char* v) { return value(std::string_view(v)); }
  Writer& value(bool v);
  Writer& value(double v); // non-finite values are emitted as null
  Writer& value(std::uint64_t v);
  Writer& value(std::int64_t v);
  Writer& value(int v) { return value(static_cast<std::int64_t>(v)); }
  Writer& value(unsigned v) { return value(static_cast<std::uint64_t>(v)); }
  Writer& null();

  /// Shorthand for key(k).value(v).
  template <typename T>
  Writer& field(std::string_view k, T v) {
    key(k);
    return value(v);
  }

  bool complete() const { return open_.empty() && !out_.empty(); }
  const std::string& str() const { return out_; }

private:
  void comma();

  std::string out_;
  std::string open_; // '{' or '[' per open scope (short: no allocation)
  bool need_comma_ = false;
  bool after_key_ = false;
};

/// Validates that `text` is exactly one well-formed JSON value (recursive
/// descent, no value materialization). Used by tests and trace re-parsing.
bool validate(std::string_view text);

/// Materialized JSON value — the read side of Writer, used by the
/// `rcgp report` tool to ingest exported traces, profiles, and metrics.
/// Objects keep member order; lookup is a linear scan (documents here are
/// small and mostly flat).
class Value {
public:
  enum class Kind { kNull, kBool, kNumber, kString, kObject, kArray };

  Kind kind() const { return kind_; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }

  bool as_bool() const { return bool_; }
  double as_number() const { return number_; }
  const std::string& as_string() const { return string_; }
  const std::vector<Value>& items() const { return items_; }
  const std::vector<std::pair<std::string, Value>>& members() const {
    return members_;
  }

  /// Member lookup on an object (nullptr when absent or not an object).
  const Value* find(std::string_view key) const;
  /// Convenience accessors with defaults for flat records.
  double number_or(std::string_view key, double fallback) const;
  bool bool_or(std::string_view key, bool fallback) const;
  std::string string_or(std::string_view key, std::string fallback) const;

private:
  friend std::optional<Value> parse(std::string_view text);
  friend struct ValueParser;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Value> items_;
  std::vector<std::pair<std::string, Value>> members_;
};

/// Parses exactly one JSON value (nullopt on malformed input). Accepts
/// the same grammar `validate` accepts.
std::optional<Value> parse(std::string_view text);

/// Largest integer a document read back may carry. JSON numbers are
/// doubles, and from 2^53 on neighbouring integers round to one double, so
/// a larger value could not be read back exactly.
inline constexpr std::uint64_t kMaxExactInteger = (std::uint64_t{1} << 53) - 1;

/// `v` as an exact integer: a whole number, >= 0 and <= `max` (clamped to
/// kMaxExactInteger). Anything else throws std::invalid_argument naming
/// `key`. The range is checked on the double, because converting a
/// negative or huge one to an integer is undefined.
std::uint64_t uint_member(const Value& v, std::string_view key,
                          std::uint64_t max = kMaxExactInteger);

/// uint_member for a field narrower than 64 bits.
template <typename T>
T narrow_member(const Value& v, std::string_view key) {
  return static_cast<T>(uint_member(
      v, key, static_cast<std::uint64_t>(std::numeric_limits<T>::max())));
}

/// Member `key` of `object` read into a T by narrow_member, or `fallback`
/// when the member is absent.
template <typename T>
T integer_or(const Value& object, std::string_view key, T fallback) {
  const Value* v = object.find(key);
  return v != nullptr ? narrow_member<T>(*v, key) : fallback;
}

/// Extracts the first `"key": <number>` pair from a flat scan of a JSON
/// document. Intended for tests and light trace post-processing; does not
/// handle keys nested inside strings.
std::optional<double> number_field(std::string_view doc, std::string_view key);

/// Extracts the first `"key": "<string>"` pair (unescaped content for the
/// common case; escape sequences are decoded for \" \\ \/ \n \t \r).
std::optional<std::string> string_field(std::string_view doc,
                                        std::string_view key);

} // namespace rcgp::obs::json
