#pragma once
// Incremental telemetry: framed delta snapshots ("thetanet-telemetry-stream/1")
// between consecutive captures of the global registries, plus the folder that
// reconstructs the one-shot document from a frame sequence.
//
// Wire format — one frame is a one-line header followed by a canonical JSON
// body of exactly `nbytes` bytes (newline included):
//
//   FRAME <seq> <nbytes>\n
//   { ... }\n
//
// Body contract (keys at every level in sorted order, like the /2 dump):
//   * "counters": additive u64 deltas since the previous frame. A counter
//     appears when its value changed or it registered since the last frame
//     (newly registered counters appear even at delta 0, so the folder's key
//     set matches the dump's).
//   * "distributions": replacement semantics — the full cumulative
//     {count, max, min, p50, p99, sum} object for every distribution that
//     changed or is new (p50/p99 are not delta-composable).
//   * "frame": the sequence number, starting at 0.
//   * "schema": "thetanet-telemetry-stream/1".
//   * "series": per changed series {agg, kind, points, rounds, stride}.
//     u64 series carry a sparse replacement map {"<window>": value} at the
//     *current* stride — the folder re-windows its accumulated points
//     pairwise when the stride grew (sum and max are associative, so the
//     re-windowed values are exact). f64 series carry the full points array
//     (float addition is not associative; replacement keeps the fold
//     bit-exact). A series also appears, with no points, when only its
//     stride/rounds advanced or when it registered empty.
//   * "spans": the full deterministic span forest (name/count/children),
//     present only in frames where it changed.
//
// Composability contract: folding frames 0..k yields byte-for-byte the
// to_json(capture) document of the state frame k was captured from, for
// any TN_NUM_THREADS. Frames themselves are
// bit-identical across thread counts for a deterministic workload, because
// they are pure functions of consecutive merged snapshots.

#include <cstdint>
#include <string>

#include "obs/telemetry_reader.h"
#include "obs/trace_sink.h"

namespace thetanet::obs {

inline constexpr const char* kStreamSchema = "thetanet-telemetry-stream/1";

/// Render one frame (header + body) describing the change from `prev` to
/// `cur`. Both snapshots must come from capture_telemetry() (or equivalent);
/// `prev` may be default-constructed for frame 0.
std::string render_stream_frame(const TelemetrySnapshot& prev,
                                const TelemetrySnapshot& cur,
                                std::uint64_t seq);

/// Stateful frame emitter: every next_frame() captures the global telemetry
/// state and renders the delta against the previous capture. Frames are
/// emitted unconditionally (an idle interval yields a small frame with empty
/// sections) so consumers can use them as liveness ticks.
class TelemetryStreamer {
 public:
  /// Capture + render. The capture is retained as the new baseline.
  std::string next_frame();

  /// Render a frame from an externally captured snapshot — serve/soak
  /// capture once per interval and reuse the snapshot for watchdog checks
  /// and the final dump.
  std::string frame_from(const TelemetrySnapshot& cur);

  std::uint64_t frames_emitted() const { return seq_; }

  /// The baseline the next frame will diff against (the last capture).
  const TelemetrySnapshot& last_snapshot() const { return prev_; }

 private:
  TelemetrySnapshot prev_;
  std::uint64_t seq_ = 0;
};

/// Reconstructs the cumulative telemetry state from a parsed frame sequence.
/// After folding frames 0..k, to_dump_json() byte-equals the /2 dump of the
/// state frame k described.
class StreamFolder {
 public:
  /// Fold one frame. Returns false (with a one-line reason in `error` when
  /// non-null) on contract violations: out-of-order sequence numbers, a
  /// shrinking stride, malformed points, an unknown agg/kind.
  bool fold(const ParsedFrame& frame, std::string* error);

  /// The reconstructed cumulative state, as a snapshot or as the canonical
  /// /2 document.
  TelemetrySnapshot snapshot() const;
  std::string to_dump_json() const;

 private:
  struct SeriesState {
    SeriesAgg agg = SeriesAgg::kSum;
    SeriesKind kind = SeriesKind::kU64;
    std::uint64_t stride = 1;
    std::uint64_t rounds = 0;
    std::vector<std::uint64_t> upoints;
    std::vector<double> fpoints;
  };

  std::uint64_t next_seq_ = 0;
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, ParsedDistribution> dists_;
  std::map<std::string, SeriesState> series_;
  std::vector<SpanSnapshot> spans_;
};

}  // namespace thetanet::obs
