#pragma once
// The adversarial model of Section 3.1 and the *certified adversary* used by
// the competitive-ratio experiments.
//
// In the paper's model the adversary controls, per step: the set of active
// (usable, non-interfering) edges, per-edge costs, and packet injections.
// For each packet it counts towards OPT, a best possible algorithm can name
// a *schedule* S = (t0, (e1,t1), ..., (el,tl)) — a time-respecting path with
// no two schedules sharing an edge at the same step.
//
// Finding OPT for an arbitrary trace is NP-hard (Adler & Scheideler [1]), so
// the experiment harness builds traces *with the certificate attached*: the
// generator reserves conflict-free schedules while injecting, which makes
// the optimal throughput, average cost and buffer requirement of the trace
// known exactly by construction (see DESIGN.md, "OPT surrogates").

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "geom/rng.h"
#include "graph/graph.h"
#include "routing/packet.h"

namespace thetanet::route {

/// A feasible delivery plan for one packet: injected at t0, traverses hop
/// edges at strictly increasing times t0 < t1 < ... < tl.
struct Schedule {
  Time t0 = 0;
  std::vector<std::pair<graph::EdgeId, Time>> hops;
};

struct Injection {
  Packet packet;
  Schedule schedule;  ///< the adversary's certificate (hidden from routers)
};

/// One time step of the trace.
struct StepSpec {
  std::vector<graph::EdgeId> active;  ///< edges usable this step
  std::vector<std::pair<graph::EdgeId, double>> cost_overrides;
  std::vector<Injection> injections;
};

/// Exact optimum of a certified trace, computed by replaying the schedules.
struct OptStats {
  std::size_t deliveries = 0;
  double total_cost = 0.0;
  double avg_cost = 0.0;        ///< C-bar: total cost / deliveries
  double avg_path_length = 0.0; ///< L-bar: mean schedule hop count
  std::size_t max_buffer = 0;   ///< B: peak height of any Q_{v,d} under OPT
  Time makespan = 0;            ///< last delivery time
};

/// The steps of a trace, stored sparsely. Most steps of a certified trace
/// carry nothing (1-15% carry an injection or an active edge in the
/// perfbench workloads), so each step is a 4-byte index into a table that
/// holds only the steps with content; index 0 is one shared empty step.
/// Reading step t is two loads, with no branch and no allocation.
///
/// Reads look like a `const std::vector<StepSpec>`: `steps[t]`, `size()`,
/// `empty()` and range-for over every step in t order. The only way to
/// change a step is `edit(t)`, so no reader materialises steps by accident.
class StepTable {
 public:
  /// Walks the step index in t order (what range-for needs, no more).
  class const_iterator {
   public:
    const_iterator(const std::uint32_t* at, const StepSpec* stored)
        : at_(at), stored_(stored) {}
    const StepSpec& operator*() const { return stored_[*at_]; }
    const_iterator& operator++() {
      ++at_;
      return *this;
    }
    bool operator==(const const_iterator& o) const { return at_ == o.at_; }

   private:
    const std::uint32_t* at_;
    const StepSpec* stored_;
  };

  std::size_t size() const { return index_.size(); }
  bool empty() const { return index_.empty(); }
  const StepSpec& operator[](std::size_t t) const { return stored_[index_[t]]; }
  const_iterator begin() const { return {index_.data(), stored_.data()}; }
  const_iterator end() const {
    return {index_.data() + index_.size(), stored_.data()};
  }

  /// Appends empty steps up to `size` steps. A table never shrinks.
  void resize(std::size_t size);

  /// Step t for writing; stores it first if it was empty. The reference,
  /// and any reference from operator[], is valid until the next edit().
  StepSpec& edit(Time t);

  /// Number of steps stored (those ever passed to edit()).
  std::size_t stored() const { return stored_.size() - 1; }

  /// Calls f(step) for every stored step in increasing t. Empty steps are
  /// skipped, so a pass costs O(stored steps), not O(size()).
  template <class F>
  void for_each_stored(F&& f) {
    for (const std::uint32_t i : slots_by_time()) f(stored_[i]);
  }
  template <class F>
  void for_each_stored(F&& f) const {
    for (const std::uint32_t i : slots_by_time()) f(stored_[i]);
  }

 private:
  std::vector<std::uint32_t> slots_by_time() const;

  std::vector<std::uint32_t> index_;             ///< per step: slot in stored_
  std::vector<StepSpec> stored_ = {StepSpec{}};  ///< slot 0: the empty step
  std::vector<Time> times_ = {0};                ///< per slot: its step t
};

struct AdversaryTrace {
  const graph::Graph* topology = nullptr;  ///< edge id space for the trace
  StepTable steps;
  OptStats opt;  ///< filled by the certified generators / replay

  Time horizon() const { return static_cast<Time>(steps.size()); }

  /// Step t; past the horizon the steps repeat, so a drain window keeps the
  /// activation patterns the network had online. Needs a non-empty trace.
  const StepSpec& step_at(Time t) const {
    const Time h = horizon();
    TN_ASSERT(h > 0);
    return steps[t < h ? t : t % h];
  }
};

/// Parameters for the certified trace generators.
struct TraceParams {
  Time horizon = 512;             ///< steps with injections
  Time drain = 512;               ///< trailing steps with no injections
  double injections_per_step = 2; ///< expected injection attempts per step
  Time max_schedule_slack = 64;   ///< max queueing delay per hop the adversary tolerates
  double extra_active_fraction = 0.0;  ///< noise edges activated beyond schedules
  bool route_min_cost = true;     ///< schedule along min-cost (else min-hop) paths
  std::uint32_t cost_jitter_pct = 0;  ///< per-step random cost overrides, +-pct

  // Traffic concentration. 0 means "all nodes". The balancing algorithm's
  // competitive guarantee is asymptotic (the additive slack r in the
  // definition of (t,s,c)-competitive absorbs a per-(node,destination)
  // warm-up of height ~T+gamma*c per buffer); concentrating traffic onto few
  // destinations is how the experiments reach the asymptotic regime at
  // laptop scale.
  std::size_t num_sources = 0;
  std::size_t num_destinations = 0;

  /// Explicit endpoint pools (override num_sources / num_destinations when
  /// non-empty). Lets experiments pin representative endpoints — e.g. the
  /// node nearest the field centre — instead of gambling on random draws.
  std::vector<graph::NodeId> source_pool;
  std::vector<graph::NodeId> dest_pool;
};

/// Build a certified trace over `topo`: random source/destination pairs are
/// injected and greedily booked onto conflict-free schedules along shortest
/// paths; injections that cannot be booked within the slack are discarded
/// (they never existed). Every injected packet is thus deliverable and the
/// trace's OptStats are exact.
AdversaryTrace make_certified_trace(const graph::Graph& topo,
                                    const TraceParams& params, geom::Rng& rng);

/// Replay the schedules of a trace and recompute its OptStats (also used as
/// an independent audit that generated schedules are conflict-free).
OptStats replay_schedules(const AdversaryTrace& trace);

}  // namespace thetanet::route
