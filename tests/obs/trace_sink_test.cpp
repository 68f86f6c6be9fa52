#include "obs/trace_sink.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>

namespace thetanet::obs {
namespace {

/// A hand-built snapshot exercising sorting, nesting, and escaping — the
/// golden JSON below is the schema contract.
TelemetrySnapshot sample_snapshot() {
  TelemetrySnapshot snap;
  snap.metrics.counters.push_back({"alpha.count", 3});
  DistributionSnapshot d;
  d.name = "alpha.dist";
  d.count = 4;
  d.min = 1;
  d.max = 9;
  d.sum = 18;
  d.p50 = 3;
  d.p99 = 15;
  snap.metrics.distributions.push_back(d);
  SeriesSnapshot s;
  s.name = "alpha.series";
  s.agg = SeriesAgg::kMax;
  s.kind = SeriesKind::kU64;
  s.stride = 2;
  s.rounds = 6;
  s.upoints = {1, 7, 4};
  snap.series.push_back(s);
  SpanSnapshot child;
  child.name = "child";
  child.count = 2;
  child.wall_ns = 50;
  SpanSnapshot root;
  root.name = "root";
  root.count = 1;
  root.wall_ns = 100;
  root.children.push_back(child);
  snap.spans.push_back(root);
  return snap;
}

TEST(TraceSink, GoldenDeterministicJson) {
  // Byte-exact golden: span wall_ns never reaches the document; keys at
  // every level are sorted.
  const std::string expected = R"({
  "counters": {
    "alpha.count": 3
  },
  "distributions": {
    "alpha.dist": {"count": 4, "max": 9, "min": 1, "p50": 3, "p99": 15, "sum": 18}
  },
  "schema": "thetanet-telemetry/2",
  "series": {
    "alpha.series": {"agg": "max", "kind": "u64", "points": [1, 7, 4], "rounds": 6, "stride": 2}
  },
  "spans": [
    {
      "children": [
        {
          "children": [],
          "count": 2,
          "name": "child"
        }
      ],
      "count": 1,
      "name": "root"
    }
  ]
}
)";
  EXPECT_EQ(to_json(sample_snapshot()), expected);
}

TEST(TraceSink, DeterministicModeExcludesWallTime) {
  // The sample's spans carry nonzero wall time; the one document has no
  // field for it.
  EXPECT_EQ(to_json(sample_snapshot()).find("wall_ns"), std::string::npos);
}

TEST(TraceSink, EmptySnapshotIsValidJson) {
  const TelemetrySnapshot empty;
  const std::string expected = R"({
  "counters": {},
  "distributions": {},
  "schema": "thetanet-telemetry/2",
  "series": {},
  "spans": []
}
)";
  EXPECT_EQ(to_json(empty), expected);
}

TEST(TraceSink, StringsAreEscaped) {
  TelemetrySnapshot snap;
  snap.metrics.counters.push_back({"weird\"name\\with\nstuff", 1});
  const std::string doc = to_json(snap);
  EXPECT_NE(doc.find(R"("weird\"name\\with\nstuff": 1)"), std::string::npos);
}

TEST(TraceSink, RecordingOffMacrosRecordNothing) {
  // With recording off, every instrumentation macro must leave no counter
  // value, distribution sample, series point or span.
  MetricsRegistry::global().reset();
  SeriesRegistry::global().reset();
  reset_spans();
  set_recording(false);
  {
    TN_OBS_SPAN("off.phase");
    TN_OBS_COUNT("off.counter", 3);
    TN_OBS_RECORD("off.dist", 42);
    TN_OBS_SERIES_ADD("off.series_add", 0, 5);
    TN_OBS_SERIES_MAX("off.series_max", 1, 9);
    TN_OBS_SERIES_ADD_F64("off.series_f64", 2, 1.5);
  }
  set_recording(true);

  // Each site registers its name on first use, so every one is present in
  // the snapshot and must read empty.
  const TelemetrySnapshot snap = capture_telemetry();
  const auto named = [](const auto& items, const std::string& name) {
    const auto it = std::find_if(items.begin(), items.end(),
                                 [&](const auto& x) { return x.name == name; });
    return it == items.end() ? nullptr : &*it;
  };
  const CounterSnapshot* c = named(snap.metrics.counters, "off.counter");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value, 0U);
  const DistributionSnapshot* d = named(snap.metrics.distributions, "off.dist");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->count, 0U);
  for (const char* name :
       {"off.series_add", "off.series_max", "off.series_f64"}) {
    const SeriesSnapshot* ts = named(snap.series, name);
    ASSERT_NE(ts, nullptr) << name;
    EXPECT_EQ(ts->rounds, 0U) << name;
    EXPECT_TRUE(ts->upoints.empty()) << name;
    EXPECT_TRUE(ts->fpoints.empty()) << name;
  }
  EXPECT_TRUE(snap.spans.empty());
}

TEST(TraceSink, WriteTelemetryJsonRoundTrips) {
  const std::string path =
      ::testing::TempDir() + "/trace_sink_roundtrip.json";
  ASSERT_TRUE(write_telemetry_json(path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buf[64] = {};
  const std::size_t got = std::fread(buf, 1, sizeof buf - 1, f);
  std::fclose(f);
  ASSERT_GT(got, 0U);
  EXPECT_EQ(std::string(buf).substr(0, 2), "{\n");
}

TEST(TraceSink, WriteToUnwritablePathFails) {
  EXPECT_FALSE(write_telemetry_json("/nonexistent-dir/never/x.json"));
}

}  // namespace
}  // namespace thetanet::obs
