#include "obs/json.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

namespace rcgp::obs::json {

namespace {

/// Appends `s` escaped for a JSON string, copying runs that need no
/// escape in one piece.
void append_escaped(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto u = static_cast<unsigned char>(s[i]);
    if (u >= 0x20 && u != '"' && u != '\\') {
      continue;
    }
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (u) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        out += "\\u00";
        out += kHex[u >> 4];
        out += kHex[u & 0xf];
    }
  }
  out.append(s.data() + run, s.size() - run);
}

template <typename T>
void append_chars(std::string& out, T v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

} // namespace

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  append_escaped(out, s);
  return out;
}

void Writer::comma() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (need_comma_) {
    out_ += ',';
  }
  need_comma_ = true;
}

Writer& Writer::begin_object() {
  comma();
  out_ += '{';
  open_.push_back('{');
  need_comma_ = false;
  return *this;
}

Writer& Writer::end_object() {
  out_ += '}';
  if (!open_.empty()) {
    open_.pop_back();
  }
  need_comma_ = true;
  return *this;
}

Writer& Writer::begin_array() {
  comma();
  out_ += '[';
  open_.push_back('[');
  need_comma_ = false;
  return *this;
}

Writer& Writer::end_array() {
  out_ += ']';
  if (!open_.empty()) {
    open_.pop_back();
  }
  need_comma_ = true;
  return *this;
}

Writer& Writer::key(std::string_view k) {
  comma();
  out_ += '"';
  append_escaped(out_, k);
  out_ += "\":";
  after_key_ = true;
  return *this;
}

Writer& Writer::value(std::string_view v) {
  comma();
  out_ += '"';
  append_escaped(out_, v);
  out_ += '"';
  return *this;
}

Writer& Writer::value(bool v) {
  comma();
  out_ += v ? "true" : "false";
  return *this;
}

Writer& Writer::value(double v) {
  comma();
  if (!std::isfinite(v)) {
    out_ += "null";
    return *this;
  }
  // Precision 17 prints exactly what "%.17g" prints; to_chars without a
  // precision would print the shortest round-trip form, other bytes.
  char buf[32];
  out_.append(buf, std::to_chars(buf, buf + sizeof(buf), v,
                                 std::chars_format::general, 17)
                       .ptr);
  return *this;
}

Writer& Writer::value(std::uint64_t v) {
  comma();
  append_chars(out_, v);
  return *this;
}

Writer& Writer::value(std::int64_t v) {
  comma();
  append_chars(out_, v);
  return *this;
}

Writer& Writer::null() {
  comma();
  out_ += "null";
  return *this;
}

// ---------------------------------------------------------------------------
// Validation (recursive descent over a string_view, no allocation).

namespace {

struct Parser {
  std::string_view s;
  std::size_t pos = 0;
  int depth = 0;
  static constexpr int kMaxDepth = 256;

  void skip_ws() {
    while (pos < s.size() &&
           (s[pos] == ' ' || s[pos] == '\t' || s[pos] == '\n' ||
            s[pos] == '\r')) {
      ++pos;
    }
  }
  bool eof() const { return pos >= s.size(); }
  char peek() const { return s[pos]; }
  bool consume(char c) {
    if (!eof() && s[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }
  bool literal(std::string_view lit) {
    if (s.substr(pos, lit.size()) != lit) {
      return false;
    }
    pos += lit.size();
    return true;
  }

  bool parse_string() {
    if (!consume('"')) {
      return false;
    }
    while (!eof()) {
      const char c = s[pos++];
      if (c == '"') {
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return false; // raw control character
      }
      if (c == '\\') {
        if (eof()) {
          return false;
        }
        const char e = s[pos++];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            if (eof() || !std::isxdigit(static_cast<unsigned char>(s[pos]))) {
              return false;
            }
            ++pos;
          }
        } else if (e != '"' && e != '\\' && e != '/' && e != 'b' &&
                   e != 'f' && e != 'n' && e != 'r' && e != 't') {
          return false;
        }
      }
    }
    return false; // unterminated
  }

  bool parse_number() {
    consume('-');
    if (eof() || !std::isdigit(static_cast<unsigned char>(peek()))) {
      return false;
    }
    if (!consume('0')) {
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) {
        ++pos;
      }
    }
    if (consume('.')) {
      if (eof() || !std::isdigit(static_cast<unsigned char>(peek()))) {
        return false;
      }
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) {
        ++pos;
      }
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++pos;
      if (!eof() && (peek() == '+' || peek() == '-')) {
        ++pos;
      }
      if (eof() || !std::isdigit(static_cast<unsigned char>(peek()))) {
        return false;
      }
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) {
        ++pos;
      }
    }
    return true;
  }

  bool parse_value() {
    if (++depth > kMaxDepth) {
      return false;
    }
    skip_ws();
    if (eof()) {
      return false;
    }
    bool ok = false;
    switch (peek()) {
      case '{': ok = parse_object(); break;
      case '[': ok = parse_array(); break;
      case '"': ok = parse_string(); break;
      case 't': ok = literal("true"); break;
      case 'f': ok = literal("false"); break;
      case 'n': ok = literal("null"); break;
      default: ok = parse_number(); break;
    }
    --depth;
    return ok;
  }

  bool parse_object() {
    consume('{');
    skip_ws();
    if (consume('}')) {
      return true;
    }
    while (true) {
      skip_ws();
      if (!parse_string()) {
        return false;
      }
      skip_ws();
      if (!consume(':')) {
        return false;
      }
      if (!parse_value()) {
        return false;
      }
      skip_ws();
      if (consume('}')) {
        return true;
      }
      if (!consume(',')) {
        return false;
      }
    }
  }

  bool parse_array() {
    consume('[');
    skip_ws();
    if (consume(']')) {
      return true;
    }
    while (true) {
      if (!parse_value()) {
        return false;
      }
      skip_ws();
      if (consume(']')) {
        return true;
      }
      if (!consume(',')) {
        return false;
      }
    }
  }
};

/// Position of `"key"` used as an object key (heuristic: next
/// non-whitespace after the closing quote is ':').
std::size_t find_key(std::string_view doc, std::string_view key) {
  const std::string quoted = '"' + std::string(key) + '"';
  std::size_t from = 0;
  while (true) {
    const auto at = doc.find(quoted, from);
    if (at == std::string_view::npos) {
      return std::string_view::npos;
    }
    std::size_t after = at + quoted.size();
    while (after < doc.size() &&
           std::isspace(static_cast<unsigned char>(doc[after]))) {
      ++after;
    }
    if (after < doc.size() && doc[after] == ':') {
      return after + 1;
    }
    from = at + 1;
  }
}

} // namespace

bool validate(std::string_view text) {
  Parser p{text};
  if (!p.parse_value()) {
    return false;
  }
  p.skip_ws();
  return p.eof();
}

// ---------------------------------------------------------------------------
// Materializing parser (piggybacks on Parser for token scanning).

struct ValueParser {
  Parser p;

  bool value(Value& out) {
    if (++p.depth > Parser::kMaxDepth) {
      return false;
    }
    p.skip_ws();
    if (p.eof()) {
      return false;
    }
    bool ok = false;
    switch (p.peek()) {
      case '{': ok = object(out); break;
      case '[': ok = array(out); break;
      case '"': {
        out.kind_ = Value::Kind::kString;
        ok = string(out.string_);
        break;
      }
      case 't':
        out.kind_ = Value::Kind::kBool;
        out.bool_ = true;
        ok = p.literal("true");
        break;
      case 'f':
        out.kind_ = Value::Kind::kBool;
        out.bool_ = false;
        ok = p.literal("false");
        break;
      case 'n':
        out.kind_ = Value::Kind::kNull;
        ok = p.literal("null");
        break;
      default: {
        out.kind_ = Value::Kind::kNumber;
        const std::size_t start = p.pos;
        ok = p.parse_number();
        if (ok) {
          // from_chars rounds as strtod does; it leaves overflow and
          // underflow to strtod, which saturates them.
          const char* first = p.s.data() + start;
          const char* last = p.s.data() + p.pos;
          if (std::from_chars(first, last, out.number_).ec != std::errc()) {
            out.number_ =
                std::strtod(std::string(first, last).c_str(), nullptr);
          }
        }
        break;
      }
    }
    --p.depth;
    return ok;
  }

  bool string(std::string& out) {
    const std::size_t start = p.pos;
    if (!p.parse_string()) {
      return false;
    }
    const std::string_view raw = p.s.substr(start + 1, p.pos - start - 2);
    out.clear();
    std::size_t i = 0;
    while (i < raw.size()) {
      // parse_string accepted the token, so every backslash starts a
      // whole escape: copy the run up to the next one in one piece.
      const std::size_t esc = std::min(raw.find('\\', i), raw.size());
      out.append(raw, i, esc - i);
      if (esc == raw.size()) {
        break;
      }
      i = esc + 1;
      char c = raw[i++];
      switch (c) {
        case 'b': c = '\b'; break;
        case 'f': c = '\f'; break;
        case 'n': c = '\n'; break;
        case 'r': c = '\r'; break;
        case 't': c = '\t'; break;
        case 'u': {
          // Decode only the Latin-1 subset; anything above U+00FF keeps
          // a '?' placeholder (report inputs are ASCII in practice).
          unsigned code = 0;
          for (int k = 0; k < 4 && i < raw.size(); ++k, ++i) {
            code = code * 16 +
                   (std::isdigit(static_cast<unsigned char>(raw[i]))
                        ? static_cast<unsigned>(raw[i] - '0')
                        : static_cast<unsigned>(std::tolower(raw[i]) - 'a' +
                                                10));
          }
          c = code <= 0xFF ? static_cast<char>(code) : '?';
          break;
        }
        default: break; // '"', '\\', '/' stand for themselves
      }
      out += c;
    }
    return true;
  }

  bool object(Value& out) {
    out.kind_ = Value::Kind::kObject;
    p.consume('{');
    p.skip_ws();
    if (p.consume('}')) {
      return true;
    }
    while (true) {
      p.skip_ws();
      std::string key;
      if (!string(key)) {
        return false;
      }
      p.skip_ws();
      if (!p.consume(':')) {
        return false;
      }
      Value member;
      if (!value(member)) {
        return false;
      }
      out.members_.emplace_back(std::move(key), std::move(member));
      p.skip_ws();
      if (p.consume('}')) {
        return true;
      }
      if (!p.consume(',')) {
        return false;
      }
    }
  }

  bool array(Value& out) {
    out.kind_ = Value::Kind::kArray;
    p.consume('[');
    p.skip_ws();
    if (p.consume(']')) {
      return true;
    }
    while (true) {
      Value item;
      if (!value(item)) {
        return false;
      }
      out.items_.push_back(std::move(item));
      p.skip_ws();
      if (p.consume(']')) {
        return true;
      }
      if (!p.consume(',')) {
        return false;
      }
    }
  }
};

const Value* Value::find(std::string_view key) const {
  for (const auto& [k, v] : members_) {
    if (k == key) {
      return &v;
    }
  }
  return nullptr;
}

double Value::number_or(std::string_view key, double fallback) const {
  const Value* v = find(key);
  return v && v->is_number() ? v->as_number() : fallback;
}

bool Value::bool_or(std::string_view key, bool fallback) const {
  const Value* v = find(key);
  return v && v->kind() == Kind::kBool ? v->as_bool() : fallback;
}

std::string Value::string_or(std::string_view key,
                             std::string fallback) const {
  const Value* v = find(key);
  return v && v->is_string() ? v->as_string() : fallback;
}

std::uint64_t uint_member(const Value& v, std::string_view key,
                          std::uint64_t max) {
  if (!v.is_number()) {
    throw std::invalid_argument("key \"" + std::string(key) +
                                "\" must be a number");
  }
  const double d = v.as_number();
  if (!(d >= 0) || d != std::floor(d)) {
    throw std::invalid_argument("key \"" + std::string(key) +
                                "\" must be a non-negative integer");
  }
  max = std::min(max, kMaxExactInteger);
  if (d > static_cast<double>(max)) {
    throw std::invalid_argument("key \"" + std::string(key) +
                                "\" must be at most " + std::to_string(max));
  }
  return static_cast<std::uint64_t>(d);
}

std::optional<Value> parse(std::string_view text) {
  ValueParser vp{Parser{text}};
  Value out;
  if (!vp.value(out)) {
    return std::nullopt;
  }
  vp.p.skip_ws();
  if (!vp.p.eof()) {
    return std::nullopt;
  }
  return out;
}

std::optional<double> number_field(std::string_view doc,
                                   std::string_view key) {
  auto at = find_key(doc, key);
  if (at == std::string_view::npos) {
    return std::nullopt;
  }
  while (at < doc.size() &&
         std::isspace(static_cast<unsigned char>(doc[at]))) {
    ++at;
  }
  char* end = nullptr;
  const std::string tail(doc.substr(at, 64));
  const double v = std::strtod(tail.c_str(), &end);
  if (end == tail.c_str()) {
    return std::nullopt;
  }
  return v;
}

std::optional<std::string> string_field(std::string_view doc,
                                        std::string_view key) {
  auto at = find_key(doc, key);
  if (at == std::string_view::npos) {
    return std::nullopt;
  }
  while (at < doc.size() &&
         std::isspace(static_cast<unsigned char>(doc[at]))) {
    ++at;
  }
  if (at >= doc.size() || doc[at] != '"') {
    return std::nullopt;
  }
  ++at;
  std::string out;
  while (at < doc.size() && doc[at] != '"') {
    char c = doc[at++];
    if (c == '\\' && at < doc.size()) {
      const char e = doc[at++];
      switch (e) {
        case 'n': c = '\n'; break;
        case 't': c = '\t'; break;
        case 'r': c = '\r'; break;
        case '"': case '\\': case '/': c = e; break;
        default: c = e; break;
      }
    }
    out += c;
  }
  if (at >= doc.size()) {
    return std::nullopt;
  }
  return out;
}

} // namespace rcgp::obs::json
