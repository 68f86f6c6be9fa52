#include "obs/stream.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/telemetry_reader.h"
#include "obs/timeseries.h"
#include "obs/trace_sink.h"

namespace thetanet::obs {
namespace {

/// Streaming tests drive the real global registries (the streamer captures
/// them), so every test resets all three stores up front. Registrations from
/// other suites survive a reset at value 0 — the fold contract covers them
/// like any other metric, so byte-equality checks stay valid.
class StreamTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_recording(true);
    MetricsRegistry::global().reset();
    SeriesRegistry::global().reset();
    reset_spans();
    saved_capacity_ = SeriesRegistry::global().capacity();
  }
  void TearDown() override {
    SeriesRegistry::global().set_capacity(saved_capacity_);
    MetricsRegistry::global().reset();
    SeriesRegistry::global().reset();
    reset_spans();
  }

  /// Fold a concatenated stream and return the reconstructed /2 document.
  static std::string fold_stream(const std::string& stream) {
    std::string err;
    const auto frames = parse_telemetry_stream(stream, &err);
    EXPECT_TRUE(frames.has_value()) << err;
    if (!frames) return {};
    StreamFolder folder;
    for (const ParsedFrame& f : *frames) {
      EXPECT_TRUE(folder.fold(f, &err)) << err;
    }
    return folder.to_dump_json();
  }

 private:
  std::size_t saved_capacity_ = 0;
};

TEST_F(StreamTest, FoldOfFramesByteEqualsOneShotDump) {
  SeriesRegistry::global().set_capacity(4);  // force stride growth mid-run
  auto& metrics = MetricsRegistry::global();
  auto& series = SeriesRegistry::global();
  const std::uint32_t c1 = metrics.register_counter("st.alpha");
  const std::uint32_t d1 = metrics.register_distribution("st.dist");
  const std::uint32_t s_sum =
      series.register_series("st.sum", SeriesKind::kU64, SeriesAgg::kSum);
  const std::uint32_t s_max =
      series.register_series("st.max", SeriesKind::kU64, SeriesAgg::kMax);
  const std::uint32_t s_f64 =
      series.register_series("st.energy", SeriesKind::kF64, SeriesAgg::kSum);

  TelemetryStreamer streamer;
  std::string stream;
  Counter alpha_handle("st.alpha");
  (void)c1;
  (void)d1;
  Distribution dist_handle("st.dist");
  for (std::uint64_t round = 0; round < 24; ++round) {
    alpha_handle.add(round + 1);
    dist_handle.record(round * 3 + 1);
    series.record_u64(s_sum, round, round * 7 + 1);
    series.record_u64(s_max, round, (round * 13) % 31);
    series.record_f64(s_f64, round, 0.1 * static_cast<double>(round) + 0.01);
    if (round % 5 == 4) stream += streamer.next_frame();
    if (round == 10) {
      // A span subtree appearing mid-run must ride in exactly one frame.
      TN_OBS_SPAN("st.phase");
      TN_OBS_SPAN("st.inner");
    }
  }
  // A counter registered late must appear in the next frame even at zero.
  metrics.register_counter("st.late_zero");
  stream += streamer.next_frame();

  const std::string folded = fold_stream(stream);
  const std::string dump = to_json(capture_telemetry());
  EXPECT_EQ(folded, dump);
  EXPECT_NE(dump.find("\"st.late_zero\": 0"), std::string::npos);
}

TEST_F(StreamTest, CountersCarryDeltasNotTotals) {
  Counter c("st.delta_counter");
  TelemetryStreamer streamer;
  c.add(5);
  const std::string f0 = streamer.next_frame();
  c.add(2);
  const std::string f1 = streamer.next_frame();
  std::string err;
  const auto frames = parse_telemetry_stream(f0 + f1, &err);
  ASSERT_TRUE(frames.has_value()) << err;
  ASSERT_EQ(frames->size(), 2U);
  EXPECT_EQ(frames->at(0).counters.at("st.delta_counter"), 5U);
  EXPECT_EQ(frames->at(1).counters.at("st.delta_counter"), 2U);
}

TEST_F(StreamTest, IdleIntervalYieldsEmptySectionsAndNoSpans) {
  TelemetryStreamer streamer;
  const std::string f0 = streamer.next_frame();
  const std::string f1 = streamer.next_frame();  // nothing happened
  std::string err;
  const auto frames = parse_telemetry_stream(f0 + f1, &err);
  ASSERT_TRUE(frames.has_value()) << err;
  const ParsedFrame& idle = frames->at(1);
  EXPECT_TRUE(idle.counters.empty());
  EXPECT_TRUE(idle.distributions.empty());
  EXPECT_TRUE(idle.series.empty());
  EXPECT_FALSE(idle.has_spans);
}

TEST_F(StreamTest, SeriesFramesAreSparse) {
  auto& series = SeriesRegistry::global();
  const std::uint32_t id =
      series.register_series("st.sparse", SeriesKind::kU64, SeriesAgg::kSum);
  TelemetryStreamer streamer;
  for (std::uint64_t r = 0; r < 8; ++r) series.record_u64(id, r, 1);
  const std::string f0 = streamer.next_frame();
  series.record_u64(id, 8, 3);  // only the new round's window changes
  const std::string f1 = streamer.next_frame();
  std::string err;
  const auto frames = parse_telemetry_stream(f0 + f1, &err);
  ASSERT_TRUE(frames.has_value()) << err;
  const ParsedSeriesDelta& delta = frames->at(1).series.at("st.sparse");
  ASSERT_EQ(delta.uwindows.size(), 1U);
  EXPECT_EQ(delta.uwindows[0].first, 8U);
  EXPECT_EQ(delta.uwindows[0].second, 3U);
  EXPECT_EQ(delta.rounds, 9U);
}

TEST_F(StreamTest, FolderRewindowsAcrossStrideGrowth) {
  SeriesRegistry::global().set_capacity(4);
  auto& series = SeriesRegistry::global();
  const std::uint32_t id =
      series.register_series("st.grow", SeriesKind::kU64, SeriesAgg::kMax);
  TelemetryStreamer streamer;
  std::string stream;
  for (std::uint64_t r = 0; r < 3; ++r) series.record_u64(id, r, r + 10);
  stream += streamer.next_frame();  // stride 1
  for (std::uint64_t r = 3; r < 16; ++r) series.record_u64(id, r, r + 10);
  stream += streamer.next_frame();  // stride grew to 4
  EXPECT_EQ(fold_stream(stream), to_json(capture_telemetry()));
}

TEST_F(StreamTest, FolderRejectsSequenceGap) {
  TelemetryStreamer streamer;
  (void)streamer.next_frame();
  const std::string f1 = streamer.next_frame();
  // Skip frame 0: the folder must refuse frame 1.
  const std::size_t body_at = f1.find('\n') + 1;
  std::string err;
  const auto frame = parse_stream_frame(f1.substr(body_at), &err);
  ASSERT_TRUE(frame.has_value()) << err;
  StreamFolder folder;
  EXPECT_FALSE(folder.fold(*frame, &err));
  EXPECT_NE(err.find("expected frame 0"), std::string::npos);
}

TEST_F(StreamTest, StreamParserValidatesFraming) {
  TelemetryStreamer streamer;
  const std::string f0 = streamer.next_frame();
  std::string err;
  // Truncated body.
  EXPECT_FALSE(
      parse_telemetry_stream(f0.substr(0, f0.size() - 2), &err).has_value());
  // Garbage header.
  EXPECT_FALSE(parse_telemetry_stream("FRAME x 10\n0123456789", &err));
  // Sequence starting at 1.
  std::string renumbered = f0;
  renumbered.replace(6, 1, "1");
  EXPECT_FALSE(parse_telemetry_stream(renumbered, &err).has_value());
  EXPECT_NE(err.find("sequence"), std::string::npos);
}

TEST_F(StreamTest, F64SeriesFoldBitExactly) {
  auto& series = SeriesRegistry::global();
  const std::uint32_t id =
      series.register_series("st.float", SeriesKind::kF64, SeriesAgg::kSum);
  TelemetryStreamer streamer;
  std::string stream;
  for (std::uint64_t r = 0; r < 6; ++r) {
    series.record_f64(id, r, 1.0 / static_cast<double>(r + 3));
    stream += streamer.next_frame();
  }
  EXPECT_EQ(fold_stream(stream), to_json(capture_telemetry()));
}

}  // namespace
}  // namespace thetanet::obs
