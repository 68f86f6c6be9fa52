#pragma once
// Serialization of the telemetry state as one stable JSON document.
//
// JSON contract (schema "thetanet-telemetry/2"):
//   * top-level and nested object keys are emitted in sorted order,
//   * all values are unsigned integers or strings, except the "points"
//     arrays of f64 series, which are shortest-round-trip decimal floats
//     (std::to_chars) — still bit-stable for identical doubles,
//   * the document contains only deterministic data: every metric and
//     series, and span {name, count, children} (span wall time is never
//     written). Two runs of the same deterministic workload — at any
//     TN_NUM_THREADS — serialize byte-identically, so dumps can be compared
//     with cmp(1).
//
// "series" holds the per-round time series from obs/timeseries.h. The
// reader (obs/telemetry_reader.h) and tools/telemetry_diff.py accept this
// schema only.

#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/timeseries.h"

namespace thetanet::obs {

/// Everything a sink serializes; capture_telemetry() fills it from the
/// global registry, series registry, and span tree; tests may also
/// construct one by hand.
struct TelemetrySnapshot {
  MetricsSnapshot metrics;
  std::vector<SeriesSnapshot> series;  ///< sorted by name
  std::vector<SpanSnapshot> spans;
};

TelemetrySnapshot capture_telemetry();

namespace detail {
// Canonical-document building blocks shared by the one-shot sink and the
// delta streamer (obs/stream.h) — one renderer, so a folded stream can be
// byte-compared against a dump.
void append_f64(std::string& out, double v);  ///< shortest round-trip decimal
void append_escaped(std::string& out, const std::string& s);
void append_span_json(std::string& out, const SpanSnapshot& s, int depth);
}  // namespace detail

/// Render the snapshot as the schema-versioned JSON document described
/// above, terminated by a single newline.
std::string to_json(const TelemetrySnapshot& snap);

/// capture_telemetry() + to_json() + write to `path` (overwrites). Returns
/// false (and writes nothing else) when the file cannot be opened.
bool write_telemetry_json(const std::string& path);

}  // namespace thetanet::obs
