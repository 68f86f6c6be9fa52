#pragma once
// Anycast extension. The paper's routing results generalize the anycasting
// framework of Awerbuch, Brinkmann and Scheideler [10] ("Anycasting in
// adversarial systems", ICALP'03), where a packet is satisfied by delivery
// to *any* member of a destination group — the natural model for sink
// fields, service replicas, or gateway sets in ad hoc networks.
//
// The balancing algorithm needs no structural change: buffers are keyed by
// group id, group members absorb on arrival (their buffer height for the
// own group is identically 0), and the height-difference rule drains
// towards whichever member the gradient finds first. This module supplies
// the group bookkeeping and a certified anycast adversary whose schedules
// deliver to the cheapest reachable member, so OPT stays exact.

#include <vector>

#include "geom/rng.h"
#include "graph/graph.h"
#include "routing/adversary.h"

namespace thetanet::route {

class AnycastGroups {
 public:
  /// Groups indexed 0..size()-1; members are node ids (deduplicated,
  /// sorted). A packet with dst = g is absorbed by any member of group g.
  explicit AnycastGroups(std::vector<std::vector<graph::NodeId>> members);

  std::size_t size() const { return members_.size(); }
  const std::vector<graph::NodeId>& members(DestId g) const {
    TN_ASSERT(g < members_.size());
    return members_[g];
  }
  bool contains(DestId g, graph::NodeId v) const;

 private:
  std::vector<std::vector<graph::NodeId>> members_;
};

/// Certified anycast trace: injections carry schedules to the *min-cost
/// reachable member* of their group (multi-source Dijkstra), booked by the
/// same generator as make_certified_trace, noise edges and cost jitter
/// included. Packet.dst holds the group id. Of the endpoint pools in
/// `params` only the source pool (source_pool or num_sources) applies;
/// groups are drawn uniformly.
AdversaryTrace make_anycast_trace(const graph::Graph& topo,
                                  const AnycastGroups& groups,
                                  const TraceParams& params, geom::Rng& rng);

/// Replay audit for anycast traces: replay_schedules, except that a schedule
/// must end at *a member* of the packet's group.
OptStats replay_anycast_schedules(const AdversaryTrace& trace,
                                  const AnycastGroups& groups);

}  // namespace thetanet::route
