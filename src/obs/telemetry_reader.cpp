#include "obs/telemetry_reader.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string_view>
#include <variant>

namespace thetanet::obs {

namespace {

// ---------------------------------------------------------------------------
// Minimal recursive-descent JSON parser. Covers everything the sinks emit
// (and standard JSON generally, minus \uXXXX surrogate pairs, which no
// telemetry name contains). Depth-capped so a hostile file cannot blow the
// stack.

struct JsonValue;
using JsonObject = std::map<std::string, JsonValue>;
using JsonArray = std::vector<JsonValue>;

/// Numbers keep the exact u64 value alongside the double when the token was
/// a plain non-negative integer that fits — counter values and series
/// windows above 2^53 must survive the round trip bit-exactly (the stream
/// folder's byte-equality contract depends on it).
struct JsonNumber {
  double d = 0.0;
  std::uint64_t u = 0;
  bool exact_u64 = false;
};

struct JsonValue {
  std::variant<std::nullptr_t, bool, JsonNumber, std::string, JsonArray,
               JsonObject>
      v;

  bool is_object() const { return std::holds_alternative<JsonObject>(v); }
  bool is_array() const { return std::holds_alternative<JsonArray>(v); }
  bool is_number() const { return std::holds_alternative<JsonNumber>(v); }
  bool is_string() const { return std::holds_alternative<std::string>(v); }
  const JsonObject& object() const { return std::get<JsonObject>(v); }
  const JsonArray& array() const { return std::get<JsonArray>(v); }
  double number() const { return std::get<JsonNumber>(v).d; }
  const JsonNumber& num() const { return std::get<JsonNumber>(v); }
  const std::string& string() const { return std::get<std::string>(v); }
};

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  std::optional<JsonValue> parse(std::string* error) {
    std::optional<JsonValue> v = value(0);
    if (v) {
      skip_ws();
      if (pos_ != s_.size()) fail("trailing characters after document");
    }
    if (!err_.empty()) {
      if (error != nullptr) {
        std::ostringstream ss;
        ss << "offset " << pos_ << ": " << err_;
        *error = ss.str();
      }
      return std::nullopt;
    }
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  void fail(const std::string& why) {
    if (err_.empty()) err_ = why;
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  std::optional<JsonValue> value(int depth) {
    if (depth > kMaxDepth) {
      fail("nesting too deep");
      return std::nullopt;
    }
    skip_ws();
    if (pos_ >= s_.size()) {
      fail("unexpected end of input");
      return std::nullopt;
    }
    const char c = s_[pos_];
    if (c == '{') return object(depth);
    if (c == '[') return array(depth);
    if (c == '"') return string_value();
    if (c == 't' || c == 'f') return bool_value();
    if (c == 'n') return null_value();
    return number_value();
  }

  std::optional<JsonValue> object(int depth) {
    ++pos_;  // '{'
    JsonObject obj;
    skip_ws();
    if (consume('}')) return JsonValue{obj};
    while (true) {
      skip_ws();
      if (pos_ >= s_.size() || s_[pos_] != '"') {
        fail("expected object key string");
        return std::nullopt;
      }
      std::optional<JsonValue> key = string_value();
      if (!key) return std::nullopt;
      if (!consume(':')) {
        fail("expected ':' after object key");
        return std::nullopt;
      }
      std::optional<JsonValue> val = value(depth + 1);
      if (!val) return std::nullopt;
      obj.emplace(key->string(), std::move(*val));
      if (consume(',')) continue;
      // In place: a moved-from temporary draws a false GCC 12 warning.
      if (consume('}'))
        return std::optional<JsonValue>(std::in_place, std::move(obj));
      fail("expected ',' or '}' in object");
      return std::nullopt;
    }
  }

  std::optional<JsonValue> array(int depth) {
    ++pos_;  // '['
    JsonArray arr;
    skip_ws();
    if (consume(']')) return JsonValue{arr};
    while (true) {
      std::optional<JsonValue> val = value(depth + 1);
      if (!val) return std::nullopt;
      arr.push_back(std::move(*val));
      if (consume(',')) continue;
      if (consume(']')) return JsonValue{std::move(arr)};
      fail("expected ',' or ']' in array");
      return std::nullopt;
    }
  }

  std::optional<JsonValue> string_value() {
    ++pos_;  // '"'
    std::string out;
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return JsonValue{std::move(out)};
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) break;
      const char esc = s_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) {
            fail("truncated \\u escape");
            return std::nullopt;
          }
          unsigned code = 0;
          const auto res =
              std::from_chars(s_.data() + pos_, s_.data() + pos_ + 4, code, 16);
          if (res.ec != std::errc() || res.ptr != s_.data() + pos_ + 4) {
            fail("bad \\u escape");
            return std::nullopt;
          }
          pos_ += 4;
          // The sink only escapes control characters; anything in the BMP
          // below 0x80 round-trips, the rest is passed through as '?'.
          out += code < 0x80 ? static_cast<char>(code) : '?';
          break;
        }
        default:
          fail("unknown escape character");
          return std::nullopt;
      }
    }
    fail("unterminated string");
    return std::nullopt;
  }

  std::optional<JsonValue> bool_value() {
    if (s_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      return JsonValue{true};
    }
    if (s_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      return JsonValue{false};
    }
    fail("bad literal");
    return std::nullopt;
  }

  std::optional<JsonValue> null_value() {
    if (s_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return JsonValue{nullptr};
    }
    fail("bad literal");
    return std::nullopt;
  }

  std::optional<JsonValue> number_value() {
    JsonNumber n;
    const auto res =
        std::from_chars(s_.data() + pos_, s_.data() + s_.size(), n.d);
    if (res.ec != std::errc()) {
      fail("bad number");
      return std::nullopt;
    }
    const std::size_t end = static_cast<std::size_t>(res.ptr - s_.data());
    const std::string_view token(s_.data() + pos_, end - pos_);
    if (token.find_first_not_of("0123456789") == std::string_view::npos) {
      const auto ures =
          std::from_chars(token.data(), token.data() + token.size(), n.u);
      n.exact_u64 =
          ures.ec == std::errc() && ures.ptr == token.data() + token.size();
    }
    pos_ = end;
    return JsonValue{n};
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  std::string err_;
};

// ---------------------------------------------------------------------------
// Shape extraction.

bool shape_fail(std::string* error, const std::string& why) {
  if (error != nullptr) *error = why;
  return false;
}

/// Where a count belongs the sinks write nothing but a plain non-negative
/// integer, so a sign, a fraction, an exponent, a value past 2^64 - 1 or a
/// non-number is rejected rather than rounded or clamped.
bool exact_u64(const JsonValue& v, std::uint64_t& dst) {
  if (!v.is_number() || !v.num().exact_u64) return false;
  dst = v.num().u;
  return true;
}

bool not_u64(std::string* error, const std::string& what) {
  return shape_fail(error, what + " is not a non-negative integer");
}

/// exact_u64 on o[key] when the key is present (a missing key keeps `dst`);
/// the diagnostic names the section, the entry and the key.
bool u64_field(const JsonObject& o, const char* key, std::uint64_t& dst,
               const char* section, const std::string& name,
               std::string* error) {
  const auto it = o.find(key);
  if (it == o.end() || exact_u64(it->second, dst)) return true;
  return not_u64(error, std::string(section) + " '" + name + "' field '" +
                            key + "'");
}

bool extract_distribution(const JsonObject& o, const std::string& name,
                          ParsedDistribution& d, std::string* error) {
  return u64_field(o, "count", d.count, "distribution", name, error) &&
         u64_field(o, "min", d.min, "distribution", name, error) &&
         u64_field(o, "max", d.max, "distribution", name, error) &&
         u64_field(o, "sum", d.sum, "distribution", name, error) &&
         u64_field(o, "p50", d.p50, "distribution", name, error) &&
         u64_field(o, "p99", d.p99, "distribution", name, error);
}

bool extract_spans(const JsonArray& arr, std::vector<ParsedSpan>& out,
                   std::string* error) {
  for (const JsonValue& v : arr) {
    if (!v.is_object()) return shape_fail(error, "span entry is not an object");
    const JsonObject& o = v.object();
    ParsedSpan span;
    if (const auto it = o.find("name"); it != o.end() && it->second.is_string())
      span.name = it->second.string();
    if (!u64_field(o, "count", span.count, "span", span.name, error))
      return false;
    if (const auto it = o.find("children");
        it != o.end() && it->second.is_array()) {
      if (!extract_spans(it->second.array(), span.children, error))
        return false;
    }
    out.push_back(std::move(span));
  }
  return true;
}

bool extract(const JsonValue& root, ParsedTelemetry& out, std::string* error) {
  if (!root.is_object())
    return shape_fail(error, "top level is not a JSON object");
  const JsonObject& doc = root.object();

  const auto schema_it = doc.find("schema");
  if (schema_it == doc.end() || !schema_it->second.is_string())
    return shape_fail(error, "missing 'schema' string");
  out.schema = schema_it->second.string();
  if (out.schema != "thetanet-telemetry/2")
    return shape_fail(error, "unsupported schema '" + out.schema + "'");

  const auto counters_it = doc.find("counters");
  if (counters_it == doc.end() || !counters_it->second.is_object())
    return shape_fail(error, "missing 'counters' object");
  for (const auto& [name, v] : counters_it->second.object()) {
    if (!exact_u64(v, out.counters[name]))
      return not_u64(error, "counter '" + name + "'");
  }

  const auto dists_it = doc.find("distributions");
  if (dists_it == doc.end() || !dists_it->second.is_object())
    return shape_fail(error, "missing 'distributions' object");
  for (const auto& [name, v] : dists_it->second.object()) {
    if (!v.is_object())
      return shape_fail(error, "distribution '" + name + "' is not an object");
    if (!extract_distribution(v.object(), name, out.distributions[name],
                              error))
      return false;
  }

  const auto series_it = doc.find("series");
  if (series_it == doc.end() || !series_it->second.is_object())
    return shape_fail(error, "missing 'series' object");
  for (const auto& [name, v] : series_it->second.object()) {
    if (!v.is_object())
      return shape_fail(error, "series '" + name + "' is not an object");
    const JsonObject& o = v.object();
    ParsedSeries s;
    if (const auto f = o.find("agg"); f != o.end() && f->second.is_string())
      s.agg = f->second.string();
    if (const auto f = o.find("kind"); f != o.end() && f->second.is_string())
      s.kind = f->second.string();
    if (!u64_field(o, "stride", s.stride, "series", name, error) ||
        !u64_field(o, "rounds", s.rounds, "series", name, error))
      return false;
    const auto pts = o.find("points");
    if (pts == o.end() || !pts->second.is_array())
      return shape_fail(error, "series '" + name + "' has no points array");
    const bool integral = s.kind == "u64";
    for (const JsonValue& p : pts->second.array()) {
      if (!p.is_number())
        return shape_fail(error,
                          "series '" + name + "' has a non-numeric point");
      s.points.push_back(p.number());
      if (integral && !exact_u64(p, s.upoints.emplace_back()))
        return not_u64(error, "series '" + name + "' point");
    }
    out.series[name] = std::move(s);
  }

  if (const auto it = doc.find("spans");
      it != doc.end() && it->second.is_array()) {
    if (!extract_spans(it->second.array(), out.spans, error)) return false;
  }
  return true;
}

}  // namespace

std::optional<ParsedTelemetry> parse_telemetry_json(const std::string& text,
                                                    std::string* error) {
  Parser p(text);
  const std::optional<JsonValue> root = p.parse(error);
  if (!root) return std::nullopt;
  ParsedTelemetry out;
  if (!extract(*root, out, error)) return std::nullopt;
  return out;
}

std::optional<ParsedTelemetry> load_telemetry_file(const std::string& path,
                                                   std::string* error) {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    if (error != nullptr) *error = "cannot open " + path;
    return std::nullopt;
  }
  std::ostringstream ss;
  ss << f.rdbuf();
  return parse_telemetry_json(ss.str(), error);
}

// ---------------------------------------------------------------------------
// Stream frames.

namespace {

bool extract_frame(const JsonValue& root, ParsedFrame& out,
                   std::string* error) {
  if (!root.is_object())
    return shape_fail(error, "frame body is not a JSON object");
  const JsonObject& doc = root.object();

  const auto schema_it = doc.find("schema");
  if (schema_it == doc.end() || !schema_it->second.is_string())
    return shape_fail(error, "frame missing 'schema' string");
  out.schema = schema_it->second.string();
  if (out.schema != "thetanet-telemetry-stream/1")
    return shape_fail(error, "unsupported frame schema '" + out.schema + "'");

  const auto frame_it = doc.find("frame");
  if (frame_it == doc.end() || !frame_it->second.is_number())
    return shape_fail(error, "frame missing 'frame' number");
  if (!exact_u64(frame_it->second, out.frame))
    return not_u64(error, "frame field 'frame'");

  if (const auto it = doc.find("counters");
      it != doc.end() && it->second.is_object()) {
    for (const auto& [name, v] : it->second.object()) {
      if (!exact_u64(v, out.counters[name]))
        return not_u64(error, "counter delta '" + name + "'");
    }
  }

  if (const auto it = doc.find("distributions");
      it != doc.end() && it->second.is_object()) {
    for (const auto& [name, v] : it->second.object()) {
      if (!v.is_object())
        return shape_fail(error, "distribution '" + name + "' not an object");
      if (!extract_distribution(v.object(), name, out.distributions[name],
                                error))
        return false;
    }
  }

  if (const auto it = doc.find("series");
      it != doc.end() && it->second.is_object()) {
    for (const auto& [name, v] : it->second.object()) {
      if (!v.is_object())
        return shape_fail(error, "series '" + name + "' not an object");
      const JsonObject& o = v.object();
      ParsedSeriesDelta s;
      if (const auto f = o.find("agg"); f != o.end() && f->second.is_string())
        s.agg = f->second.string();
      if (const auto f = o.find("kind"); f != o.end() && f->second.is_string())
        s.kind = f->second.string();
      if (!u64_field(o, "stride", s.stride, "series", name, error) ||
          !u64_field(o, "rounds", s.rounds, "series", name, error))
        return false;
      const auto pts = o.find("points");
      if (pts == o.end())
        return shape_fail(error, "series '" + name + "' has no points");
      if (s.kind == "f64") {
        if (!pts->second.is_array())
          return shape_fail(error,
                            "f64 series '" + name + "' points not an array");
        for (const JsonValue& p : pts->second.array()) {
          if (!p.is_number())
            return shape_fail(error,
                              "series '" + name + "' has a non-numeric point");
          s.fpoints.push_back(p.number());
        }
      } else {
        if (!pts->second.is_object())
          return shape_fail(error,
                            "u64 series '" + name + "' points not an object");
        for (const auto& [idx, p] : pts->second.object()) {
          std::uint64_t w = 0;
          const auto res =
              std::from_chars(idx.data(), idx.data() + idx.size(), w);
          if (res.ec != std::errc() || res.ptr != idx.data() + idx.size())
            return shape_fail(
                error, "series '" + name + "' has a bad window key '" + idx +
                           "'");
          std::uint64_t value = 0;
          if (!exact_u64(p, value))
            return not_u64(error, "series '" + name + "' window " + idx);
          s.uwindows.emplace_back(w, value);
        }
        std::sort(s.uwindows.begin(), s.uwindows.end());
      }
      out.series[name] = std::move(s);
    }
  }

  if (const auto it = doc.find("spans");
      it != doc.end() && it->second.is_array()) {
    out.has_spans = true;
    if (!extract_spans(it->second.array(), out.spans, error)) return false;
  }
  return true;
}

}  // namespace

std::optional<ParsedFrame> parse_stream_frame(const std::string& body,
                                              std::string* error) {
  Parser p(body);
  const std::optional<JsonValue> root = p.parse(error);
  if (!root) return std::nullopt;
  ParsedFrame out;
  if (!extract_frame(*root, out, error)) return std::nullopt;
  return out;
}

std::optional<std::vector<ParsedFrame>> parse_telemetry_stream(
    const std::string& text, std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };
  std::vector<ParsedFrame> frames;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos)
      return fail("truncated FRAME header at offset " + std::to_string(pos));
    const std::string_view header(text.data() + pos, eol - pos);
    std::uint64_t seq = 0;
    std::uint64_t nbytes = 0;
    {
      if (header.substr(0, 6) != "FRAME ")
        return fail("expected FRAME header at offset " + std::to_string(pos));
      const char* b = header.data() + 6;
      const char* e = header.data() + header.size();
      auto res = std::from_chars(b, e, seq);
      if (res.ec != std::errc() || res.ptr == e || *res.ptr != ' ')
        return fail("bad FRAME sequence number at offset " +
                    std::to_string(pos));
      res = std::from_chars(res.ptr + 1, e, nbytes);
      if (res.ec != std::errc() || res.ptr != e)
        return fail("bad FRAME byte count at offset " + std::to_string(pos));
    }
    if (seq != frames.size())
      return fail("frame sequence gap: expected " +
                  std::to_string(frames.size()) + ", got " +
                  std::to_string(seq));
    const std::size_t body_begin = eol + 1;
    if (body_begin + nbytes > text.size())
      return fail("frame " + std::to_string(seq) + " body truncated");
    const std::string body = text.substr(body_begin, nbytes);
    if (body.empty() || body.back() != '\n')
      return fail("frame " + std::to_string(seq) +
                  " body does not end in a newline");
    std::string ferr;
    std::optional<ParsedFrame> f = parse_stream_frame(body, &ferr);
    if (!f) return fail("frame " + std::to_string(seq) + ": " + ferr);
    if (f->frame != seq)
      return fail("frame " + std::to_string(seq) +
                  " header/body sequence mismatch");
    frames.push_back(std::move(*f));
    pos = body_begin + nbytes;
  }
  return frames;
}

}  // namespace thetanet::obs
