#pragma once
// Reader for telemetry dumps: parses a thetanet-telemetry/2 JSON document
// (obs::write_telemetry_json output) back into plain structures, so tools —
// the `thetanet_cli report` subcommand foremost — can ingest dumps without
// a JSON dependency. The embedded parser handles the JSON subset the sink
// emits (objects, arrays, strings, numbers, bools, null) and is tolerant of
// extra keys, so future schema additions stay readable.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace thetanet::obs {

struct ParsedDistribution {
  std::uint64_t count = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  std::uint64_t sum = 0;
  std::uint64_t p50 = 0;
  std::uint64_t p99 = 0;
};

struct ParsedSeries {
  std::string agg;   ///< "sum" or "max"
  std::string kind;  ///< "u64" or "f64"
  std::uint64_t stride = 1;
  std::uint64_t rounds = 0;
  std::vector<double> points;  ///< f64 view regardless of kind
  /// The exact points of a u64 series (empty for f64): each a plain
  /// non-negative integer up to 2^64 - 1, which `points` may round.
  std::vector<std::uint64_t> upoints;
};

struct ParsedSpan {
  std::string name;
  std::uint64_t count = 0;
  std::vector<ParsedSpan> children;
};

struct ParsedTelemetry {
  std::string schema;  ///< "thetanet-telemetry/2"
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, ParsedDistribution> distributions;
  std::map<std::string, ParsedSeries> series;
  std::vector<ParsedSpan> spans;
};

/// Parse a telemetry document. On failure returns nullopt and, when
/// `error` is non-null, a one-line diagnostic (offset + reason for syntax
/// errors, section + reason for shape errors).
std::optional<ParsedTelemetry> parse_telemetry_json(const std::string& text,
                                                    std::string* error);

/// Convenience: read the file, then parse_telemetry_json.
std::optional<ParsedTelemetry> load_telemetry_file(const std::string& path,
                                                   std::string* error);

// ---------------------------------------------------------------------------
// Stream frames ("thetanet-telemetry-stream/1", obs/stream.h). The reader
// parses the wire form back into deltas; obs::StreamFolder folds them.

/// One series entry of a frame. u64 series carry sparse window replacements
/// (ascending window index) at the frame's stride; f64 series carry a full
/// replacement array. Exactly one of uwindows/fpoints is populated, by kind.
struct ParsedSeriesDelta {
  std::string agg;   ///< "sum" or "max"
  std::string kind;  ///< "u64" or "f64"
  std::uint64_t stride = 1;
  std::uint64_t rounds = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> uwindows;
  std::vector<double> fpoints;
};

/// One parsed frame body. Counters are deltas; distributions are cumulative
/// replacements; spans (when present) replace the whole forest.
struct ParsedFrame {
  std::uint64_t frame = 0;  ///< sequence number
  std::string schema;       ///< "thetanet-telemetry-stream/1"
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, ParsedDistribution> distributions;
  std::map<std::string, ParsedSeriesDelta> series;
  bool has_spans = false;
  std::vector<ParsedSpan> spans;
};

/// Parse one frame body (the JSON document after a FRAME header line).
std::optional<ParsedFrame> parse_stream_frame(const std::string& body,
                                              std::string* error);

/// Split a concatenation of framed deltas ("FRAME <seq> <nbytes>\n" + body)
/// and parse every body. Validates header shape, byte counts, and that
/// sequence numbers run 0, 1, 2, ... with no gaps.
std::optional<std::vector<ParsedFrame>> parse_telemetry_stream(
    const std::string& text, std::string* error);

}  // namespace thetanet::obs
