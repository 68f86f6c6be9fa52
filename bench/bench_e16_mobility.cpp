// E16 — dynamic networks (the abstract's motivation: "since the underlying
// topology may change with time, we need to design routing algorithms that
// effectively react to dynamically changing network conditions"). Nodes
// move under the random-waypoint model; every epoch ThetaALG rebuilds N
// with three local message rounds and the balancing router keeps routing
// over whatever N currently is (buffers survive the rebuild — the
// adversarial model of Section 3.1 covers topology churn natively).
// Expected shape: the delivered fraction stays robust as node speed grows
// (mobility surfaces as latency instead), and the per-epoch reconstruction
// cost stays O(n) messages regardless of speed.

#include "bench/common.h"

#include <iostream>

#include "core/local_protocol.h"
#include "core/theta_topology.h"
#include "graph/connectivity.h"
#include "sim/mobility.h"
#include "sim/stack.h"
#include "sim/stats.h"

int main() {
  using namespace thetanet;
  bench::print_header(
      "E16: routing under mobility (random waypoint + periodic ThetaALG)",
      "abstract / Section 3.1 - local control reacts to dynamically "
      "changing topologies");

  geom::Rng seed_rng(bench::kSeedRoot + 17);
  sim::Table table("E16 - speed sweep (n = 96, 40 epochs x 400 steps)",
                   {"speed", "delivered", "injected", "frac", "avg_latency",
                    "reconnects", "proto_msgs/epoch"});

  for (const double speed : {0.0, 0.001, 0.004, 0.016}) {
    geom::Rng rng = seed_rng.fork();
    const std::size_t n = 96;
    topo::Deployment d = bench::uniform_deployment(n, rng, 2.0, 2.2);
    geom::BBox arena;
    arena.expand({0.0, 0.0});
    arena.expand({1.0, 1.0});
    sim::RandomWaypoint mobility(arena, n, std::max(1e-6, speed * 0.5),
                                 std::max(2e-6, speed), rng);

    const graph::Graph no_links(n);  // routes over N from the first epoch
    sim::Stack stack(no_links, core::BalancingRouter(n, {4.0, 30.0, 512}));
    std::vector<route::Packet> arrivals;
    geom::Rng traffic = rng.fork();
    std::uint64_t next_id = 1;
    const graph::NodeId dest = 0;
    std::size_t reconnects = 0;
    sim::Accumulator proto_msgs;

    const int epochs = 40;
    const route::Time steps_per_epoch = 400;
    for (int epoch = 0; epoch < epochs; ++epoch) {
      if (speed > 0.0) mobility.step(static_cast<double>(steps_per_epoch), d, rng);
      const core::ThetaTopology tt(d, bench::kPi / 9.0);
      reconnects += graph::is_connected(tt.graph()) ? std::size_t{1} : 0;
      const auto proto = core::run_local_protocol(d, bench::kPi / 9.0);
      proto_msgs.add(static_cast<double>(proto.position_msgs +
                                         proto.neighborhood_msgs +
                                         proto.connection_msgs));

      stack.set_topology(tt.graph());
      for (route::Time s = 0; s < steps_per_epoch; ++s) {
        stack.all_edges();
        arrivals.clear();
        if (traffic.bernoulli(0.5)) {
          const auto src = static_cast<graph::NodeId>(
              traffic.uniform_index(n - 1) + 1);
          arrivals.push_back({next_id++, src, dest, stack.now(), 0.0, 0});
        }
        stack.finish(arrivals);
      }
    }
    const route::RunMetrics& m = stack.metrics();
    table.row({sim::fmt(speed, 3), sim::fmt(m.deliveries),
               sim::fmt(m.injected_accepted),
               sim::fmt(m.injected_accepted == 0
                            ? 0.0
                            : static_cast<double>(m.deliveries) /
                                  static_cast<double>(m.injected_accepted),
                        3),
               sim::fmt(m.avg_latency(), 1), sim::fmt(reconnects),
               sim::fmt(proto_msgs.mean(), 0)});
  }
  table.print(std::cout);
  std::printf("Expected shape: delivered fraction is robust to speed (the\n"
              "per-epoch rebuild keeps N current; balancing buffers survive\n"
              "churn) — mobility shows up as latency, which jumps an order\n"
              "of magnitude once nodes move. proto_msgs/epoch is O(n) and\n"
              "speed-independent: reacting to churn costs three local\n"
              "rounds, never a global recomputation.\n");
  return 0;
}
