// Zoo conformance harness (verify/zoo.h): green on healthy instances,
// loud on coverage gaps (unknown builder in `only`), and able to catch
// and ddmin-shrink the planted compass tie-break mutation down to a
// <= 12-node reproducer — the mutation-test contract of the
// conformance_zoo_mutation ctest entry.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "geom/rng.h"
#include "topology/builder.h"
#include "topology/distributions.h"
#include "verify/scenario.h"
#include "verify/zoo.h"

namespace thetanet {
namespace {

topo::Deployment uniform_deployment(std::size_t n, std::uint64_t seed,
                                    double range) {
  geom::Rng rng(seed);
  topo::Deployment d;
  d.positions = topo::uniform_square(n, 1.0, rng);
  d.max_range = range;
  d.kappa = 2.0;
  return d;
}

/// A scenario-family collinear chain (the exact-angle-tie regime).
topo::Deployment collinear_deployment(std::size_t n, std::uint64_t seed) {
  verify::ScenarioSpec spec;
  spec.dist = verify::Distribution::kCollinearChain;
  spec.n = n;
  spec.seed = seed;
  return verify::build_scenario_deployment(spec);
}

TEST(ZooConformance, WholeRegistryPassesOnUniformInstance) {
  const topo::Deployment d = uniform_deployment(72, 0x200, 0.35);
  verify::ZooOptions opt;
  const verify::ConformanceReport rep = verify::run_zoo_conformance(d, opt);
  EXPECT_TRUE(rep.pass()) << rep.to_string();
  // Every registered builder was audited: at least one check per builder
  // plus the trailing coverage check.
  const auto& reg = topo::builder_registry();
  for (const auto& b : reg) {
    const bool seen = std::any_of(
        rep.checks.begin(), rep.checks.end(), [&](const auto& c) {
          return c.checker.rfind(b.name + "/", 0) == 0;
        });
    EXPECT_TRUE(seen) << "no audit for " << b.name;
  }
  ASSERT_FALSE(rep.checks.empty());
  EXPECT_EQ(rep.checks.back().checker, "zoo/coverage");
}

TEST(ZooConformance, UnknownBuilderIsACoverageViolationNotASilentSkip) {
  const topo::Deployment d = uniform_deployment(24, 0x201, 0.5);
  verify::ZooOptions opt;
  opt.only = {"gstar", "no-such-structure"};
  const verify::ConformanceReport rep = verify::run_zoo_conformance(d, opt);
  EXPECT_FALSE(rep.pass());
  bool flagged = false;
  for (const auto& c : rep.checks)
    for (const auto& v : c.violations)
      flagged |= v.rule == "zoo/unknown-builder";
  EXPECT_TRUE(flagged) << rep.to_string();
}

TEST(ZooConformance, PlantedTieBreakIsCaughtAndShrinksToTinyReproducer) {
  // The planted mutation only bites on exact angle ties; the collinear
  // scenario family exists to provide them. Healthy run green, planted run
  // red, and ddmin lands at <= 12 nodes (the committed corpus trio is the
  // 3-node floor of the same failure).
  const topo::Deployment d = collinear_deployment(40, 5);
  verify::ZooOptions opt;
  opt.only = {"gstar"};
  ASSERT_TRUE(verify::run_zoo_conformance(d, opt).pass());

  opt.plant_routing_bug = true;
  const verify::ConformanceReport planted = verify::run_zoo_conformance(d, opt);
  ASSERT_FALSE(planted.pass());
  bool compass_violation = false;
  for (const auto& c : planted.checks)
    for (const auto& v : c.violations)
      compass_violation |= v.rule.find("compass") != std::string::npos;
  EXPECT_TRUE(compass_violation) << planted.to_string();

  const verify::ShrinkResult shrunk = verify::shrink_zoo_deployment(d, opt);
  EXPECT_LE(shrunk.reproducer.size(), 12u);
  EXPECT_GE(shrunk.reproducer.size(), 2u);
  // Pinned: the exact shrink path of this scenario.
  EXPECT_EQ(shrunk.reproducer.size(), 3u);
  EXPECT_EQ(shrunk.evaluations, 12u);
  EXPECT_FALSE(verify::run_zoo_conformance(shrunk.reproducer, opt).pass());
}

}  // namespace
}  // namespace thetanet
