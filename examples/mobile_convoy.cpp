// Mobile convoy — the dynamic-topology story of the paper. A convoy of
// vehicles drifts across an arena; every epoch the nodes have moved, the
// transmission graph has changed, and ThetaALG recomputes N with three
// rounds of local messages (no global coordination — exactly why the paper
// insists on local control). The (T, gamma)-balancing router keeps routing
// through the churn: the adversarial model of Section 3 covers topology
// changes natively, so nothing special happens at an epoch boundary — the
// buffers simply carry over.
//
// Run: ./mobile_convoy [epochs] [seed]

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <numbers>

#include "core/local_protocol.h"
#include "core/theta_topology.h"
#include "graph/connectivity.h"
#include "sim/mobility.h"
#include "sim/stack.h"
#include "sim/table.h"
#include "topology/distributions.h"
#include "topology/transmission_graph.h"

int main(int argc, char** argv) {
  using namespace thetanet;
  const int epochs = argc > 1 ? std::atoi(argv[1]) : 12;
  const std::uint64_t seed =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 5;
  geom::Rng rng(seed);

  const std::size_t n = 120;
  geom::BBox arena;
  arena.expand({0.0, 0.0});
  arena.expand({1.0, 1.0});
  topo::Deployment d;
  d.positions = topo::clustered(n, 4, 0.08, 1.0, rng);
  d.max_range = 0.3;
  d.kappa = 2.0;
  sim::GroupDrift mobility(arena, /*drift_speed=*/0.02, /*jitter=*/0.01);

  // One router lives across all epochs; packets in flight survive topology
  // changes (Section 3.1's model).
  const graph::Graph no_links(n);  // routes over N from the first epoch
  sim::Stack stack(no_links, core::BalancingRouter(n, {4.0, 30.0, 512}));
  const route::RunMetrics& metrics = stack.metrics();
  std::vector<route::Packet> arrivals;
  geom::Rng traffic_rng = rng.fork();
  std::uint64_t next_packet = 1;
  const route::DestId convoy_lead = 0;

  sim::Table table("convoy epochs",
                   {"epoch", "G*_edges", "N_edges", "N_maxdeg", "connected",
                    "proto_msgs", "delivered_so_far", "in_flight"});
  const route::Time steps_per_epoch = 600;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    // Vehicles move, then the topology-control layer rebuilds N locally.
    mobility.step(1.0, d, rng);
    const graph::Graph gstar = topo::build_transmission_graph(d);
    const core::ThetaTopology tt(d, std::numbers::pi / 6.0);
    const core::ProtocolStats proto =
        core::run_local_protocol(d, std::numbers::pi / 6.0);

    // Per-step: all N edges usable (dedicated MAC assumed, Section 3.2);
    // a couple of status packets per step stream towards the convoy lead.
    stack.set_topology(tt.graph());
    for (route::Time s = 0; s < steps_per_epoch; ++s) {
      stack.all_edges();
      arrivals.clear();
      if (traffic_rng.bernoulli(0.8)) {
        auto src = static_cast<graph::NodeId>(
            traffic_rng.uniform_index(n - 1) + 1);
        arrivals.push_back(
            {next_packet++, src, convoy_lead, stack.now(), 0.0, 0});
      }
      stack.finish(arrivals);
    }

    table.row({sim::fmt(epoch), sim::fmt(gstar.num_edges()),
               sim::fmt(tt.graph().num_edges()),
               sim::fmt(tt.graph().max_degree()),
               sim::fmt(static_cast<int>(graph::is_connected(tt.graph()))),
               sim::fmt(proto.position_msgs + proto.neighborhood_msgs +
                        proto.connection_msgs),
               sim::fmt(metrics.deliveries),
               sim::fmt(stack.router().packets_in_flight())});
  }
  table.print(std::cout);
  std::printf("%zu of %zu injected packets delivered across %d topology "
              "changes (avg %.1f hops, %.1f steps latency); %zu still in "
              "flight.\n",
              metrics.deliveries, metrics.injected_accepted, epochs,
              metrics.avg_hops(), metrics.avg_latency(),
              stack.router().packets_in_flight());
  std::printf("proto_msgs is the total Position/Neighborhood/Connection "
              "messages ThetaALG needed per epoch — O(n), independent of "
              "the diameter.\n");
  return 0;
}
