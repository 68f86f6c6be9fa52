// run_soak integration tests at miniature scale: stream validity, the
// fold-equals-dump law end to end, run-to-run determinism, and the planted
// leak changing memory but never behaviour.

#include "serve/soak.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

namespace thetanet::serve {
namespace {

SoakSpec tiny_spec() {
  SoakSpec spec;
  spec.n = 48;
  spec.topo_seed = 7;
  spec.rounds = 600;
  spec.interval = 100;
  spec.shards = 2;
  spec.quantum = 2;
  spec.inject.rate = 0.3;
  spec.inject.window = 64;
  spec.inject.seed = 11;
  spec.fold_check = true;
  // 600 rounds never leave closed-loop ramp-up, so the control-plane rate
  // legitimately climbs; the trend check itself is watchdog_test's job.
  spec.watchdog.rate_slack_per_round = 64.0;
  return spec;
}

TEST(SoakTest, TinySoakPassesAndFoldEqualsDump) {
  std::ostringstream frames;
  const SoakResult r = run_soak(tiny_spec(), frames);
  EXPECT_TRUE(r.fold_ok);
  for (const std::string& v : r.violations) ADD_FAILURE() << v;
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.frames, 6u);  // 600 rounds / interval 100
  EXPECT_EQ(r.rounds, 600u);
  EXPECT_GT(r.injected_accepted, 0u);
  EXPECT_NE(frames.str().find("FRAME 0 "), std::string::npos);
  EXPECT_NE(frames.str().find("FRAME 5 "), std::string::npos);
  EXPECT_NE(r.final_dump.find("thetanet-telemetry/2"), std::string::npos);
}

TEST(SoakTest, SameSpecIsByteDeterministic) {
  std::ostringstream a, b;
  const SoakResult ra = run_soak(tiny_spec(), a);
  const SoakResult rb = run_soak(tiny_spec(), b);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_EQ(ra.checksum, rb.checksum);
  EXPECT_EQ(ra.final_dump, rb.final_dump);
}

TEST(SoakTest, PlantedLeakNeverChangesBehaviour) {
  SoakSpec leaky = tiny_spec();
  leaky.plant_leak = true;
  // Allowance stays at the default 48 MiB: a 600-round leak is far too
  // small to trip — the mutation ctest drives it for real. What must hold
  // here is that the leak is *pure* memory: same stream, same checksum.
  std::ostringstream clean_out, leaky_out;
  const SoakResult clean = run_soak(tiny_spec(), clean_out);
  const SoakResult leaked = run_soak(leaky, leaky_out);
  EXPECT_EQ(clean_out.str(), leaky_out.str());
  EXPECT_EQ(clean.checksum, leaked.checksum);
  EXPECT_EQ(clean.final_dump, leaked.final_dump);
}

TEST(SoakTest, BalancingRouterPathWorksWithoutControlLedger) {
  SoakSpec spec = tiny_spec();
  spec.quantum = 0;  // plain BalancingRouter: no control counters at all
  std::ostringstream frames;
  const SoakResult r = run_soak(spec, frames);
  EXPECT_TRUE(r.ok);
  EXPECT_TRUE(r.fold_ok);
  // The plain router never touches the control ledger. Registration
  // outlives MetricsRegistry::reset(), so when another test in this
  // process already ran the quantized path the counter may still appear —
  // but only at zero.
  const bool absent =
      r.final_dump.find("router.control_bytes") == std::string::npos;
  const bool zero =
      r.final_dump.find("\"router.control_bytes\": 0") != std::string::npos;
  EXPECT_TRUE(absent || zero) << r.final_dump;
}

TEST(SoakTest, QuantizedPathCarriesControlLedger) {
  std::ostringstream frames;
  const SoakResult r = run_soak(tiny_spec(), frames);
  EXPECT_NE(r.final_dump.find("router.control_messages"), std::string::npos);
  EXPECT_NE(r.final_dump.find("router.control_bytes"), std::string::npos);
  // Quantized shards plan on the same plan_all_edges_into path as quantum 0.
  EXPECT_NE(r.final_dump.find("router.planned_tx"), std::string::npos);
}

}  // namespace
}  // namespace thetanet::serve
