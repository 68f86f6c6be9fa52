// ServeSession protocol tests: command grammar, topology lifecycle, route
// queries, and the telemetry subscription — including that the frames
// interleaved into the session output form a valid, foldable
// thetanet-telemetry-stream/1 stream.

#include "serve/session.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/stream.h"
#include "obs/telemetry_reader.h"
#include "obs/timeseries.h"

namespace thetanet::serve {
namespace {

class SessionTest : public ::testing::Test {
 protected:
  void SetUp() override { reset_telemetry(); }
  void TearDown() override { reset_telemetry(); }

  static void reset_telemetry() {
    obs::MetricsRegistry::global().reset();
    obs::SeriesRegistry::global().reset();
    obs::reset_spans();
  }

  /// Run one command, returning everything it wrote.
  std::string run(const std::string& line) {
    std::ostringstream out;
    session_.handle_line(line, out);
    return out.str();
  }

  /// First line of a response (without the newline).
  static std::string first_line(const std::string& s) {
    return s.substr(0, s.find('\n'));
  }

  /// Everything after the first line — the frame block, when one rode
  /// along with the response.
  static std::string after_first_line(const std::string& s) {
    const auto nl = s.find('\n');
    return nl == std::string::npos ? std::string() : s.substr(nl + 1);
  }

  ServeSession session_;
};

TEST_F(SessionTest, VersionNamesBothSchemas) {
  EXPECT_EQ(run("version"),
            "ok thetanet-serve/1 telemetry thetanet-telemetry-stream/1\n");
}

TEST_F(SessionTest, BlankLinesAreIgnored) {
  EXPECT_EQ(run(""), "");
  EXPECT_EQ(run("   \t "), "");
  EXPECT_EQ(session_.commands_handled(), 0u);
}

TEST_F(SessionTest, TopologyLifecycle) {
  EXPECT_EQ(first_line(run("gen 48 7")).substr(0, 8), "ok n=48 ");
  // Joins report the new id (ids append after the initial n).
  EXPECT_EQ(first_line(run("add 0.5 0.5")).substr(0, 8), "ok id=48");
  EXPECT_EQ(first_line(run("move 3 0.25 0.25")).substr(0, 14),
            "ok recomputed=");
  const std::string left = first_line(run("leave 4"));
  EXPECT_NE(left.find("active=48"), std::string::npos) << left;
  const std::string woke = first_line(run("wake 4"));
  EXPECT_NE(woke.find("active=49"), std::string::npos) << woke;
  const std::string stats = first_line(run("stats"));
  EXPECT_NE(stats.find("nodes=49"), std::string::npos) << stats;
  EXPECT_NE(stats.find("ops=4"), std::string::npos) << stats;
}

TEST_F(SessionTest, RouteDeliversOnGeneratedOverlay) {
  run("gen 64 7");
  const std::string compass = first_line(run("route 0 5 compass"));
  EXPECT_EQ(compass.substr(0, 15), "ok delivered=1 ") << compass;
  const std::string theta = first_line(run("route 0 5 theta"));
  EXPECT_EQ(theta.substr(0, 15), "ok delivered=1 ") << theta;
}

TEST_F(SessionTest, ErrorsAreReportedAndSessionSurvives) {
  EXPECT_EQ(run("bogus"), "err unknown command (try `help`)\n");
  EXPECT_EQ(first_line(run("route 0 1")),
            "err no topology (run `gen` first)");
  EXPECT_EQ(first_line(run("gen 1 7")), "err usage: gen <n>=2.. <seed> [cones>=7]");
  run("gen 32 7");
  EXPECT_EQ(first_line(run("move 99 0 0")), "err usage: move <id> <x> <y>");
  EXPECT_EQ(first_line(run("route 0 99")),
            "err route endpoints must be active node ids");
  run("leave 5");
  EXPECT_EQ(first_line(run("route 0 5")),
            "err route endpoints must be active node ids");
  // The session still works after every error.
  EXPECT_EQ(first_line(run("route 0 4")).substr(0, 15), "ok delivered=1 ");
}

TEST_F(SessionTest, SubscriptionFramesFoldIntoTheDump) {
  run("gen 48 7");
  std::string stream;
  // interval 1: every later command carries a frame. The subscribe command
  // itself emits the baseline frame (everything recorded so far).
  std::string r = run("subscribe telemetry 1");
  EXPECT_EQ(first_line(r), "ok subscribed interval=1");
  stream += after_first_line(r);
  for (const char* cmd :
       {"move 3 0.2 0.2", "leave 4", "wake 4", "route 0 5 compass",
        "stats"}) {
    r = run(cmd);
    EXPECT_EQ(first_line(r).substr(0, 3), "ok ") << r;
    stream += after_first_line(r);
  }

  std::string err;
  const auto frames = obs::parse_telemetry_stream(stream, &err);
  ASSERT_TRUE(frames.has_value()) << err;
  ASSERT_EQ(frames->size(), 6u);
  obs::StreamFolder folder;
  for (const auto& f : *frames) ASSERT_TRUE(folder.fold(f, &err)) << err;

  // The fold must byte-equal the one-shot dump of the same state.
  EXPECT_EQ(folder.to_dump_json(), obs::to_json(obs::capture_telemetry()));
}

TEST_F(SessionTest, UnsubscribeStopsFrames) {
  run("gen 32 7");
  run("subscribe telemetry 1");
  EXPECT_EQ(run("unsubscribe telemetry"), "ok unsubscribed\n");
  EXPECT_EQ(run("stats").substr(0, 3), "ok ");
  EXPECT_EQ(run("stats").find("FRAME"), std::string::npos);
}

TEST_F(SessionTest, IntervalCountsCommandsNotLines) {
  run("gen 32 7");
  std::string r = run("subscribe telemetry 3");
  EXPECT_NE(r.find("FRAME 0 "), std::string::npos);  // baseline frame
  EXPECT_EQ(run("stats").find("FRAME"), std::string::npos);
  EXPECT_EQ(run("stats").find("FRAME"), std::string::npos);
  EXPECT_NE(run("stats").find("FRAME 1 "), std::string::npos);
}

TEST_F(SessionTest, QuitEndsSessionAndRunServeCountsCommands) {
  std::istringstream in("version\ngen 32 7\nquit\nstats\n");
  std::ostringstream out;
  // `stats` after `quit` must never run.
  EXPECT_EQ(run_serve(in, out), 3u);
  EXPECT_NE(out.str().find("ok bye\n"), std::string::npos);
  EXPECT_EQ(out.str().find("nodes="), std::string::npos);
}

}  // namespace
}  // namespace thetanet::serve
