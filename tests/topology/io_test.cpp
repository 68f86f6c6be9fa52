#include "topology/io.h"

#include <gtest/gtest.h>

#include <sstream>

#include "topology/distributions.h"
#include "topology/transmission_graph.h"

namespace thetanet::topo {
namespace {

TEST(DeploymentIo, RoundTripsExactly) {
  geom::Rng rng(1);
  Deployment d;
  d.positions = uniform_square(64, 1.0, rng);
  d.max_range = 0.3141592653589793;
  d.kappa = 2.5;

  std::stringstream ss;
  save_deployment(ss, d);
  const auto back = load_deployment(ss);
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->size(), d.size());
  EXPECT_EQ(back->max_range, d.max_range);  // bit-exact
  EXPECT_EQ(back->kappa, d.kappa);
  for (std::size_t i = 0; i < d.size(); ++i)
    EXPECT_EQ(back->positions[i], d.positions[i]) << i;
}

TEST(DeploymentIo, RejectsMalformedInput) {
  const auto check_bad = [](const std::string& text) {
    std::stringstream ss(text);
    EXPECT_FALSE(load_deployment(ss).has_value()) << text;
  };
  check_bad("");
  check_bad("graph v1 2 1\n0 1 1 1\n");            // wrong tag
  check_bad("deployment v2 1 1.0 2.0\n0 0\n");     // wrong version
  check_bad("deployment v1 2 1.0 2.0\n0 0\n");     // missing point
  check_bad("deployment v1 1 -1.0 2.0\n0 0\n");    // bad range
  check_bad("deployment v1 1 1.0 0.5\n0 0\n");     // kappa < 1
  check_bad("deployment v1 1 1.0 2.0\nx y\n");     // non-numeric
  // Oversized headers: ids are 32-bit, and a count that passes that check
  // still fails at its first missing line (nothing is sized from it).
  check_bad("deployment v1 99999999999999999 1 2\n");
  check_bad("deployment v1 4294967295 1.0 2.0\n0 0\n");
  check_bad("deployment v1 4000000000 1.0 2.0\n0 0\n");
}

TEST(DeploymentIo, FileRoundTrip) {
  geom::Rng rng(2);
  Deployment d;
  d.positions = uniform_square(10, 1.0, rng);
  d.max_range = 0.5;
  d.kappa = 2.0;
  const std::string path = "/tmp/thetanet_io_test_deployment.tsv";
  ASSERT_TRUE(save_deployment(path, d));
  const auto back = load_deployment(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->size(), 10U);
  EXPECT_FALSE(load_deployment("/nonexistent/nope.tsv").has_value());
}

TEST(GraphIo, RoundTripsExactly) {
  geom::Rng rng(3);
  Deployment d;
  d.positions = uniform_square(50, 1.0, rng);
  d.max_range = 0.4;
  d.kappa = 2.0;
  const graph::Graph g = build_transmission_graph(d);
  ASSERT_GT(g.num_edges(), 0U);

  std::stringstream ss;
  save_graph(ss, g);
  const auto back = load_graph(ss);
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->num_nodes(), g.num_nodes());
  ASSERT_EQ(back->num_edges(), g.num_edges());
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(back->edge(e).u, g.edge(e).u);
    EXPECT_EQ(back->edge(e).v, g.edge(e).v);
    EXPECT_EQ(back->edge(e).length, g.edge(e).length);  // bit-exact
    EXPECT_EQ(back->edge(e).cost, g.edge(e).cost);
  }
}

TEST(GraphIo, RejectsMalformedInput) {
  const auto check_bad = [](const std::string& text) {
    std::stringstream ss(text);
    EXPECT_FALSE(load_graph(ss).has_value()) << text;
  };
  check_bad("");
  check_bad("graph v1 2 1\n0 2 1 1\n");   // node id out of range
  check_bad("graph v1 2 1\n0 0 1 1\n");   // self loop
  check_bad("graph v1 2 1\n0 1 -1 1\n");  // negative length
  check_bad("graph v1 2 2\n0 1 1 1\n");   // missing edge line
  check_bad("graph v1 4294967295 0\n");  // n beyond 32-bit node ids
  check_bad("graph v1 99999999999999999 0\n");
  check_bad("graph v1 2 2\n0 1 1 1\n0 1 1 1\n");  // parallel: u v twice
  check_bad("graph v1 2 2\n0 1 1 1\n1 0 1 1\n");  // parallel: u v, v u
  check_bad("graph v1 3 3\n1 0 1 1\n1 2 1 1\n0 1 1 1\n");
}

TEST(GraphIo, EmptyGraph) {
  std::stringstream ss;
  save_graph(ss, graph::Graph(5));
  const auto back = load_graph(ss);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->num_nodes(), 5U);
  EXPECT_EQ(back->num_edges(), 0U);
}

}  // namespace
}  // namespace thetanet::topo
