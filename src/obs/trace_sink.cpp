#include "obs/trace_sink.h"

#include <charconv>
#include <cstdio>
#include <fstream>
#include <string>

namespace thetanet::obs {

namespace {

constexpr const char* kSchema = "thetanet-telemetry/2";

const char* agg_name(SeriesAgg a) {
  return a == SeriesAgg::kSum ? "sum" : "max";
}

}  // namespace

namespace detail {

/// Shortest decimal round-trip — the same bits always print the same bytes,
/// so f64 series stay inside the canonical-document contract.
void append_f64(std::string& out, double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_indent(std::string& out, int depth) {
  out.append(static_cast<std::size_t>(depth) * 2, ' ');
}

void append_span_json(std::string& out, const SpanSnapshot& s, int depth) {
  append_indent(out, depth);
  out += "{\n";
  append_indent(out, depth + 1);
  out += "\"children\": [";
  for (std::size_t i = 0; i < s.children.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    append_span_json(out, s.children[i], depth + 2);
  }
  if (!s.children.empty()) {
    out += '\n';
    append_indent(out, depth + 1);
  }
  out += "],\n";
  append_indent(out, depth + 1);
  out += "\"count\": " + std::to_string(s.count) + ",\n";
  append_indent(out, depth + 1);
  out += "\"name\": ";
  append_escaped(out, s.name);
  out += '\n';
  append_indent(out, depth);
  out += '}';
}

}  // namespace detail

using detail::append_escaped;
using detail::append_f64;
using detail::append_span_json;

TelemetrySnapshot capture_telemetry() {
  TelemetrySnapshot snap;
  snap.metrics = MetricsRegistry::global().snapshot();
  snap.series = SeriesRegistry::global().snapshot();
  snap.spans = span_snapshot();
  return snap;
}

std::string to_json(const TelemetrySnapshot& snap) {
  std::string out;
  out += "{\n";

  // Keys at every level in sorted order: counters, distributions, schema,
  // spans — so the document is canonical without a post-pass.
  out += "  \"counters\": {";
  bool first = true;
  for (const CounterSnapshot& c : snap.metrics.counters) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    append_escaped(out, c.name);
    out += ": " + std::to_string(c.value);
  }
  if (!first) out += "\n  ";
  out += "},\n";

  out += "  \"distributions\": {";
  first = true;
  for (const DistributionSnapshot& d : snap.metrics.distributions) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    append_escaped(out, d.name);
    out += ": {\"count\": " + std::to_string(d.count) +
           ", \"max\": " + std::to_string(d.max) +
           ", \"min\": " + std::to_string(d.min) +
           ", \"p50\": " + std::to_string(d.p50) +
           ", \"p99\": " + std::to_string(d.p99) +
           ", \"sum\": " + std::to_string(d.sum) + "}";
  }
  if (!first) out += "\n  ";
  out += "},\n";

  out += "  \"schema\": ";
  append_escaped(out, kSchema);
  out += ",\n";

  out += "  \"series\": {";
  first = true;
  for (const SeriesSnapshot& s : snap.series) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    append_escaped(out, s.name);
    out += ": {\"agg\": \"";
    out += agg_name(s.agg);
    out += "\", \"kind\": \"";
    out += s.kind == SeriesKind::kU64 ? "u64" : "f64";
    out += "\", \"points\": [";
    if (s.kind == SeriesKind::kU64) {
      for (std::size_t i = 0; i < s.upoints.size(); ++i) {
        if (i != 0) out += ", ";
        out += std::to_string(s.upoints[i]);
      }
    } else {
      for (std::size_t i = 0; i < s.fpoints.size(); ++i) {
        if (i != 0) out += ", ";
        append_f64(out, s.fpoints[i]);
      }
    }
    out += "], \"rounds\": " + std::to_string(s.rounds) +
           ", \"stride\": " + std::to_string(s.stride) + "}";
  }
  if (!first) out += "\n  ";
  out += "},\n";

  out += "  \"spans\": [";
  for (std::size_t i = 0; i < snap.spans.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    append_span_json(out, snap.spans[i], 2);
  }
  if (!snap.spans.empty()) out += "\n  ";
  out += "]\n";

  out += "}\n";
  return out;
}

bool write_telemetry_json(const std::string& path) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return false;
  const std::string doc = to_json(capture_telemetry());
  f.write(doc.data(), static_cast<std::streamsize>(doc.size()));
  return static_cast<bool>(f);
}

}  // namespace thetanet::obs
