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

#include <bit>
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
/// perfbench workloads), so the table keeps only the steps with content, in
/// t order, behind a bit-rank index: one presence bit per step and, per
/// 64-step word, the slot of that word's first stored step. The index ends
/// at the last word that stores a step, so a table costs O(stored steps +
/// last stored t / 64) memory, not O(size()). Reading step t is a bit test,
/// a popcount and a load; every step that is not stored reads as one shared
/// empty step (slot 0).
///
/// Reads look like a `const std::vector<StepSpec>`: `steps[t]`, `size()`,
/// `empty()` and range-for over every step in t order. The only way to
/// change a step is `edit(t)`, so no reader materialises steps by accident.
class StepTable {
 public:
  /// Walks every step in t order (what range-for needs, no more).
  class const_iterator {
   public:
    const_iterator(const StepTable* table, std::size_t t)
        : table_(table), t_(t) {}
    const StepSpec& operator*() const { return (*table_)[t_]; }
    const_iterator& operator++() {
      ++t_;
      return *this;
    }
    bool operator==(const const_iterator& o) const { return t_ == o.t_; }

   private:
    const StepTable* table_;
    std::size_t t_;
  };

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const StepSpec& operator[](std::size_t t) const {
    TN_DCHECK(t < size_);
    const std::size_t w = t / 64;
    if (w >= bits_.size()) return stored_[0];
    const std::uint64_t word = bits_[w];
    const std::uint64_t bit = std::uint64_t{1} << (t % 64);
    if ((word & bit) == 0) return stored_[0];
    return stored_[rank_[w] + static_cast<std::size_t>(
                                  std::popcount(word & (bit - 1)))];
  }
  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, size_}; }

  /// Appends empty steps up to `size` steps. A table never shrinks.
  void resize(std::size_t size);

  /// Room for `stored` stored steps, so that editing that many steps in
  /// increasing t allocates the store once.
  void reserve(std::size_t stored);

  /// Step t for writing; stores it first if it was empty. The reference,
  /// and any reference from operator[], is valid until the next edit().
  /// Editing at or past the last stored step appends in O(1); storing a new
  /// step before it shifts the later steps, O(stored steps).
  StepSpec& edit(Time t);

  /// Number of steps stored (those ever passed to edit()).
  std::size_t stored() const { return stored_.size() - 1; }

  /// Calls f(step) for every stored step in increasing t. Empty steps are
  /// skipped, so a pass costs O(stored steps), not O(size()).
  template <class F>
  void for_each_stored(F&& f) {
    for (std::size_t i = 1; i < stored_.size(); ++i) f(stored_[i]);
  }
  template <class F>
  void for_each_stored(F&& f) const {
    for (std::size_t i = 1; i < stored_.size(); ++i) f(stored_[i]);
  }

 private:
  std::size_t size_ = 0;
  std::vector<std::uint64_t> bits_;  ///< per word: which of its steps are stored
  std::vector<std::uint32_t> rank_;  ///< per word: slot of its first stored step
  std::vector<StepSpec> stored_ = {StepSpec{}};  ///< slot 0: the empty step
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
