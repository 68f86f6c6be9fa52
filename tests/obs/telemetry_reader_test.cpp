#include "obs/telemetry_reader.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "obs/trace_sink.h"

namespace thetanet::obs {
namespace {

/// The reader's contract is round-tripping whatever the sink writes, so the
/// primary fixture is a real to_json document, not a hand-written one.
TelemetrySnapshot sink_snapshot() {
  TelemetrySnapshot snap;
  snap.metrics.counters.push_back({"router.injected", 42});
  snap.metrics.counters.push_back({"grid.queries", 7});
  DistributionSnapshot d;
  d.name = "router.round_peak_buffer";
  d.count = 10;
  d.min = 0;
  d.max = 6;
  d.sum = 23;
  d.p50 = 2;
  d.p99 = 6;
  snap.metrics.distributions.push_back(d);
  SeriesSnapshot u;
  u.name = "router.peak_buffer";
  u.agg = SeriesAgg::kMax;
  u.kind = SeriesKind::kU64;
  u.stride = 4;
  u.rounds = 10;
  u.upoints = {2, 6, 3};
  snap.series.push_back(u);
  SeriesSnapshot f;
  f.name = "mobility.displacement";
  f.agg = SeriesAgg::kSum;
  f.kind = SeriesKind::kF64;
  f.rounds = 2;
  f.fpoints = {0.5, 1.25};
  snap.series.push_back(f);
  SpanSnapshot child;
  child.name = "theta.phase1";
  child.count = 3;
  SpanSnapshot root;
  root.name = "theta.build";
  root.count = 1;
  root.children.push_back(child);
  snap.spans.push_back(root);
  return snap;
}

TEST(TelemetryReader, RoundTripsTheSinkOutput) {
  const std::string doc = to_json(sink_snapshot());
  std::string err;
  const auto parsed = parse_telemetry_json(doc, &err);
  ASSERT_TRUE(parsed.has_value()) << err;

  EXPECT_EQ(parsed->schema, "thetanet-telemetry/2");
  ASSERT_EQ(parsed->counters.size(), 2U);
  EXPECT_EQ(parsed->counters.at("router.injected"), 42U);
  EXPECT_EQ(parsed->counters.at("grid.queries"), 7U);

  ASSERT_EQ(parsed->distributions.size(), 1U);
  const ParsedDistribution& d =
      parsed->distributions.at("router.round_peak_buffer");
  EXPECT_EQ(d.count, 10U);
  EXPECT_EQ(d.min, 0U);
  EXPECT_EQ(d.max, 6U);
  EXPECT_EQ(d.sum, 23U);
  EXPECT_EQ(d.p50, 2U);
  EXPECT_EQ(d.p99, 6U);

  ASSERT_EQ(parsed->series.size(), 2U);
  const ParsedSeries& u = parsed->series.at("router.peak_buffer");
  EXPECT_EQ(u.agg, "max");
  EXPECT_EQ(u.kind, "u64");
  EXPECT_EQ(u.stride, 4U);
  EXPECT_EQ(u.rounds, 10U);
  EXPECT_EQ(u.points, (std::vector<double>{2, 6, 3}));
  EXPECT_EQ(u.upoints, (std::vector<std::uint64_t>{2, 6, 3}));
  const ParsedSeries& f = parsed->series.at("mobility.displacement");
  EXPECT_EQ(f.agg, "sum");
  EXPECT_EQ(f.kind, "f64");
  EXPECT_EQ(f.points, (std::vector<double>{0.5, 1.25}));
  EXPECT_TRUE(f.upoints.empty());

  ASSERT_EQ(parsed->spans.size(), 1U);
  EXPECT_EQ(parsed->spans[0].name, "theta.build");
  EXPECT_EQ(parsed->spans[0].count, 1U);
  ASSERT_EQ(parsed->spans[0].children.size(), 1U);
  EXPECT_EQ(parsed->spans[0].children[0].name, "theta.phase1");
}

TEST(TelemetryReader, EscapedNamesRoundTrip) {
  TelemetrySnapshot snap;
  snap.metrics.counters.push_back({"weird\"name\\with\nstuff", 5});
  const std::string doc = to_json(snap);
  std::string err;
  const auto parsed = parse_telemetry_json(doc, &err);
  ASSERT_TRUE(parsed.has_value()) << err;
  EXPECT_EQ(parsed->counters.at("weird\"name\\with\nstuff"), 5U);
}

TEST(TelemetryReader, RejectsMalformedDocuments) {
  // Every well-shaped part is /2, so each document fails on its own defect,
  // named in the diagnostic.
  struct Case {
    const char* doc;
    const char* defect;
  };
  const Case bad[] = {
      {"", "unexpected end of input"},
      {"{not json", "expected object key string"},
      {"[1, 2, 3]", "not a JSON object"},
      {R"({"schema": "x"})", "unsupported schema"},
      {R"({"counters": {"a": 1}, "distributions": {}, "schema": "thetanet-telemetry/1", "spans": []})",
       "unsupported schema"},  // a well-formed /1 document
      {R"({"counters": [], "distributions": {}, "schema": "thetanet-telemetry/2", "series": {}, "spans": []})",
       "counters"},
      {R"({"counters": {}, "distributions": {}, "schema": "thetanet-telemetry/2", "spans": []})",
       "series"},
      {R"({"counters": {}, "distributions": {}, "schema": "thetanet-telemetry/2", "series": {"s": {"agg": "sum", "kind": "u64"}}, "spans": []})",
       "points"},
      {R"({"counters": {}, "distributions": {}, "schema": "thetanet-telemetry/2", "series": {}, "spans": []} trailing)",
       "trailing"},
      {R"({"counters": {"a": "nope"}, "distributions": {}, "schema": "thetanet-telemetry/2", "series": {}, "spans": []})",
       "counter 'a'"},
      // A count is an exact non-negative integer: no sign, fraction or
      // exponent is rounded or clamped into one.
      {R"({"counters": {"a": -5}, "distributions": {}, "schema": "thetanet-telemetry/2", "series": {}, "spans": []})",
       "counter 'a' is not a non-negative integer"},
      {R"({"counters": {"a": 1.5}, "distributions": {}, "schema": "thetanet-telemetry/2", "series": {}, "spans": []})",
       "counter 'a' is not a non-negative integer"},
      {R"({"counters": {"a": 1e30}, "distributions": {}, "schema": "thetanet-telemetry/2", "series": {}, "spans": []})",
       "counter 'a' is not a non-negative integer"},
      {R"({"counters": {}, "distributions": {"d": {"count": "x"}}, "schema": "thetanet-telemetry/2", "series": {}, "spans": []})",
       "distribution 'd' field 'count'"},
  };
  for (const Case& c : bad) {
    std::string err;
    EXPECT_FALSE(parse_telemetry_json(c.doc, &err).has_value())
        << "accepted: " << c.doc;
    EXPECT_NE(err.find(c.defect), std::string::npos)
        << "diagnostic '" << err << "' does not name '" << c.defect
        << "' for: " << c.doc;
  }
}

// A u64 series point is a count like any other: read exactly, never through
// a double, so a fraction or a sign is rejected and 2^64 - 1 survives.
TEST(TelemetryReader, U64SeriesPointsAreExactCounts) {
  const auto with_points = [](const char* kind, const char* points) {
    return std::string(R"({"counters": {}, "distributions": {}, "schema": "thetanet-telemetry/2", "series": {"s": {"agg": "max", "kind": ")") +
           kind + R"(", "points": [)" + points +
           R"(], "rounds": 3, "stride": 1}}, "spans": []})";
  };
  for (const char* bad : {"1, 1.5, 2", "1, -2, 2", "1, 1e3, 2",
                          "1, 18446744073709551616, 2"}) {
    std::string err;
    EXPECT_FALSE(parse_telemetry_json(with_points("u64", bad), &err))
        << "accepted u64 points " << bad;
    EXPECT_NE(err.find("series 's' point is not a non-negative integer"),
              std::string::npos)
        << err;
    EXPECT_TRUE(parse_telemetry_json(with_points("f64", bad), &err))
        << "rejected f64 points " << bad << ": " << err;
  }
  std::string err;
  const auto parsed =
      parse_telemetry_json(with_points("u64", "0, 18446744073709551615, 7"),
                           &err);
  ASSERT_TRUE(parsed.has_value()) << err;
  EXPECT_EQ(parsed->series.at("s").upoints,
            (std::vector<std::uint64_t>{0, 18446744073709551615ULL, 7}));
}

TEST(TelemetryReader, RejectsRunawayNesting) {
  std::string doc = R"({"counters": {}, "distributions": {}, "schema": "thetanet-telemetry/2", "series": {}, "spans": )";
  doc += std::string(256, '[');
  doc += std::string(256, ']');
  doc += "}";
  std::string err;
  EXPECT_FALSE(parse_telemetry_json(doc, &err).has_value());
  EXPECT_NE(err.find("nesting too deep"), std::string::npos) << err;
}

TEST(TelemetryReader, ToleratesUnknownKeys) {
  // Future schema additions must stay readable by today's tools.
  const std::string doc = R"({
  "counters": {"a": 1},
  "distributions": {},
  "future_section": {"x": [1, {"y": null}], "z": true},
  "schema": "thetanet-telemetry/2",
  "series": {"s": {"agg": "sum", "kind": "u64", "points": [1], "rounds": 1, "stride": 1, "new_field": 3}},
  "spans": []
}
)";
  std::string err;
  const auto parsed = parse_telemetry_json(doc, &err);
  ASSERT_TRUE(parsed.has_value()) << err;
  EXPECT_EQ(parsed->series.at("s").points, (std::vector<double>{1}));
}

TEST(TelemetryReader, LoadTelemetryFileRoundTrips) {
  const std::string path = ::testing::TempDir() + "/reader_roundtrip.json";
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << to_json(sink_snapshot());
  }
  std::string err;
  const auto parsed = load_telemetry_file(path, &err);
  ASSERT_TRUE(parsed.has_value()) << err;
  EXPECT_EQ(parsed->counters.at("router.injected"), 42U);
}

TEST(TelemetryReader, LoadMissingFileFails) {
  std::string err;
  EXPECT_FALSE(
      load_telemetry_file("/nonexistent-dir/never/x.json", &err).has_value());
  EXPECT_FALSE(err.empty());
}

}  // namespace
}  // namespace thetanet::obs
