#include "stack.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numbers>

#include "core/honeycomb.h"
#include "core/interference_mac.h"
#include "core/theta_topology.h"
#include "graph/connectivity.h"
#include "interference/model.h"
#include "routing/adversary.h"
#include "topology/distributions.h"
#include "topology/transmission_graph.h"

namespace perfbench {
namespace {

constexpr double kTheta = std::numbers::pi / 9.0;
constexpr double kEps = 0.25;

std::vector<double> base_costs(const graph::Graph& g) {
  std::vector<double> costs(g.num_edges());
  for (graph::EdgeId e = 0; e < costs.size(); ++e) costs[e] = g.edge(e).cost;
  return costs;
}

/// For each point, the nearest node not already picked (smallest id on
/// ties). Endpoints are pinned by geometry so that path lengths do not swing
/// with the seed.
std::vector<graph::NodeId> pin_nodes(const topo::Deployment& d,
                                     std::initializer_list<geom::Vec2> points) {
  std::vector<graph::NodeId> picked;
  for (const geom::Vec2 p : points) {
    graph::NodeId best = graph::kInvalidNode;
    for (graph::NodeId v = 0; v < d.size(); ++v) {
      if (std::find(picked.begin(), picked.end(), v) != picked.end()) continue;
      if (best == graph::kInvalidNode || geom::dist_sq(d.positions[v], p) <
                                             geom::dist_sq(d.positions[best], p))
        best = v;
    }
    picked.push_back(best);
  }
  return picked;
}

/// Sink at `centre` (first) and four sources at distance `r` around it.
std::vector<graph::NodeId> pin_star(const topo::Deployment& d,
                                    geom::Vec2 centre, double r) {
  return pin_nodes(d, {centre, centre + geom::Vec2{r, 0.0},
                       centre + geom::Vec2{0.0, r},
                       centre + geom::Vec2{-r, 0.0},
                       centre + geom::Vec2{0.0, -r}});
}

/// Certified-trace endpoints: the first pinned node is the sink, the rest
/// are sources.
void set_endpoints(route::TraceParams& tp,
                   const std::vector<graph::NodeId>& star) {
  tp.dest_pool = {star.front()};
  tp.source_pool.assign(star.begin() + 1, star.end());
}

/// Uniform deployment on a square of side `side`, redrawn until its
/// transmission graph is connected.
topo::Deployment connected_uniform(std::size_t n, double side, double range,
                                   geom::Rng& rng) {
  topo::Deployment d;
  d.max_range = range;
  d.kappa = 2.0;
  do {
    d.positions = topo::uniform_square(n, side, rng);
  } while (!graph::is_connected(topo::build_transmission_graph(d)));
  return d;
}

/// Lemma 3.2 / Lemma 3.7: at most half of the attempted transmissions
/// collide.
bool collisions_within_half(const route::RunMetrics& m) {
  return 2 * m.failed_tx <= m.attempted_tx;
}

// ---------------------------------------------------------------------------
// Workloads driven by a certified adversarial trace (§3.3 and §3.4). The
// trace (horizon plus its drain) repeats back to back for as long as the
// window lasts: every schedule finishes inside its period, so the repeated
// trace is itself certified and its optimum is known round by round.

class TraceWorkload : public Workload {
 public:
  std::uint64_t checksum_rounds() const override { return checksum_rounds_; }

  double opt_deliveries(const Run& run, const Run& start) const override {
    return static_cast<double>(opt_by(run.t) - opt_by(start.t));
  }

  void check(const Run& run, const Run& start,
             std::vector<std::string>& failures) const override {
    const route::RunMetrics& m = run.m;
    if (m.dropped_in_transit != start.m.dropped_in_transit)
      failures.push_back("packets dropped in transit under theorem33_params");
    if (!collisions_within_half(m))
      failures.push_back(std::string("collision rate above 1/2 (") +
                         collision_lemma_ + ")");
  }

 protected:
  explicit TraceWorkload(std::uint64_t checksum_rounds,
                         const char* collision_lemma)
      : checksum_rounds_(checksum_rounds), collision_lemma_(collision_lemma) {}

  /// Certify the trace and derive the Theorem 3.3 parameters from its OPT.
  void certify(const graph::Graph& g, const route::TraceParams& tp,
               geom::Rng& rng) {
    trace_ = route::make_certified_trace(g, tp, rng);
    params_ = core::theorem33_params(trace_.opt, kEps);
    costs_ = base_costs(g);
    for (const route::StepSpec& s : trace_.steps)
      for (const route::Injection& inj : s.injections) {
        done_.push_back(inj.schedule.hops.back().second);
        id_stride_ = std::max(id_stride_, inj.packet.id + 1);
      }
    std::sort(done_.begin(), done_.end());
  }

  Run fresh_run(std::size_t num_nodes, std::uint64_t seed) const {
    return Run(core::BalancingRouter(num_nodes, params_), geom::Rng(seed));
  }

  /// Inject this round's packets of the repeating trace.
  void inject(Run& run, Probe& probe) const {
    const route::Time period = trace_.horizon();
    const auto& injections = trace_.steps[run.t % period].injections;
    if (injections.empty()) return;
    const std::uint64_t cycle = run.t / period;
    probe.call(kRouterInject, [&] {
      for (const route::Injection& inj : injections) {
        route::Packet p = inj.packet;
        p.id += cycle * id_stride_;
        p.injected_at = run.t;
        run.router.inject(p, run.m);
      }
    });
    run.counters.injected += injections.size();
  }

  /// OPT deliveries completed in rounds [0, t).
  std::uint64_t opt_by(route::Time t) const {
    const route::Time period = trace_.horizon();
    const auto partial = static_cast<std::uint64_t>(
        std::lower_bound(done_.begin(), done_.end(), t % period) -
        done_.begin());
    return (t / period) * done_.size() + partial;
  }

  route::AdversaryTrace trace_;
  core::BalancingParams params_;
  std::vector<double> costs_;

 private:
  std::uint64_t checksum_rounds_;
  const char* collision_lemma_;
  std::vector<route::Time> done_;  ///< OPT delivery round of each packet
  std::uint64_t id_stride_ = 1;
};

// ---------------------------------------------------------------------------
// stack_mac: §3.3 — ΘALG, interference bounds, RandomizedMac, balancing.

class StackMac final : public TraceWorkload {
 public:
  static constexpr std::size_t kNodes = 100;
  static constexpr double kDelta = 0.25;
  static constexpr std::uint64_t kFieldSeed = 7;

  StackMac(std::uint64_t seed, Probe& probe)
      : TraceWorkload(/*checksum_rounds=*/50000, "Lemma 3.2") {
    geom::Rng rng(seed);
    const double n = static_cast<double>(kNodes);
    probe.setup("deployment", [&] {
      geom::Rng field(kFieldSeed);
      d_ = connected_uniform(kNodes, 1.0, 1.8 * std::sqrt(std::log(n) / n),
                             field);
    });
    probe.setup("topology.build", [&] { tt_.emplace(d_, kTheta); });
    probe.setup("interference.bounds", [&] {
      mac_.emplace(tt_->graph(), d_, interf::InterferenceModel{kDelta});
    });
    probe.setup("adversary.certify", [&] {
      // E7's recipe on OPT over N with the endpoints pinned: a sink at the
      // field centre and four sources 0.12 away (1-3 hops). The offered
      // load is fixed rather than E7's 40/(2I), which is ~10x what the
      // MAC can carry: below capacity no packet is dropped, and in steady
      // state deliveries track the offered load.
      route::TraceParams tp;
      tp.horizon = 500000;
      tp.injections_per_step = 0.004;
      tp.max_schedule_slack = 50;
      set_endpoints(tp, pin_star(d_, {0.5, 0.5}, 0.12));
      certify(tt_->graph(), tp, rng);
    });
    run_seed_ = rng();
  }

  StackMac(const StackMac&) = delete;
  StackMac& operator=(const StackMac&) = delete;

  Run start() const override { return fresh_run(kNodes, run_seed_); }

  void step(Run& run, Probe& probe, Fnv* fnv) const override {
    const graph::Graph& g = tt_->graph();
    probe.call(kMacActivate, [&] { run.active = mac_->activate(run.rng); });
    probe.call(kRouterPlan,
               [&] { run.router.plan_into(g, run.active, costs_, run.txs); });
    if (fnv != nullptr) fnv->mix_txs(run.txs);
    probe.call(kMacResolve, [&] { run.failed = mac_->resolve(run.txs); });
    probe.call(kRouterExecute, [&] {
      run.router.execute(run.txs, run.failed, costs_, run.t, run.m);
    });
    inject(run, probe);
    probe.call(kRouterEndStep, [&] { run.router.end_step(run.m); });
    run.counters.active_edges += run.active.size();
    run.counters.planned_tx += run.txs.size();
    ++run.counters.rounds;
    ++run.t;
  }

  void check(const Run& run, const Run& start,
             std::vector<std::string>& failures) const override {
    TraceWorkload::check(run, start, failures);
    // Theorem 3.3: at least (1-eps)/(8I) of the optimum's deliveries.
    const double opt = opt_deliveries(run, start);
    const double floor =
        (1.0 - kEps) / (8.0 * static_cast<double>(mac_->interference_bound()));
    const double got =
        static_cast<double>(run.m.deliveries - start.m.deliveries);
    if (opt > 0.0 && got < floor * opt)
      failures.push_back("throughput below the Theorem 3.3 floor (1-eps)/(8I)");
    // Planted bug: slotted ALOHA at p = 1 in place of RandomizedMac, run on
    // from this window's buffers. The Lemma 3.2 check must reject it.
    const route::RunMetrics planted = planted_aloha(run);
    std::printf(
        "planted slotted-ALOHA p=1: %zu of %zu transmissions collided\n",
        planted.failed_tx, planted.attempted_tx);
    if (collisions_within_half(planted))
      failures.push_back(
          "Lemma 3.2 check accepted the planted slotted-ALOHA p=1 MAC");
  }

  std::uint32_t interference_bound() const override {
    return mac_->interference_bound();
  }

 private:
  route::RunMetrics planted_aloha(Run run) const {
    const core::SlottedAlohaMac aloha(tt_->graph(), d_,
                                      interf::InterferenceModel{kDelta}, 1.0);
    route::RunMetrics m;
    for (int r = 0; r < 200; ++r, ++run.t) {
      run.active = aloha.activate(run.rng);
      run.router.plan_into(tt_->graph(), run.active, costs_, run.txs);
      run.failed = aloha.resolve(run.txs);
      run.router.execute(run.txs, run.failed, costs_, run.t, m);
      run.router.end_step(m);
    }
    return m;
  }

  topo::Deployment d_;
  std::optional<core::ThetaTopology> tt_;
  std::optional<core::RandomizedMac> mac_;
  std::uint64_t run_seed_ = 0;
};

// ---------------------------------------------------------------------------
// stack_honeycomb: §3.4 — fixed range 1, HoneycombMac, balancing.

class StackHoneycomb final : public TraceWorkload {
 public:
  static constexpr std::size_t kNodes = 400;
  static constexpr std::uint64_t kFieldSeed = 9;

  StackHoneycomb(std::uint64_t seed, Probe& probe)
      : TraceWorkload(/*checksum_rounds=*/5000, "Lemma 3.7") {
    geom::Rng rng(seed);
    const double side = std::sqrt(static_cast<double>(kNodes) / 4.0);
    const geom::Vec2 centre{side / 2.0, side / 2.0};
    probe.setup("deployment", [&] {
      geom::Rng field(kFieldSeed);
      d_ = connected_uniform(kNodes, side, 1.0, field);
    });
    probe.setup("topology.build",
                [&] { unit_ = topo::build_transmission_graph(d_); });
    probe.setup("honeycomb.build", [&] {
      mac_.emplace(d_, unit_, core::HoneycombParams{0.5, 1.0 / 6.0});
    });
    probe.setup("adversary.certify", [&] {
      // E9's recipe with the sink at the field centre and four sources
      // 1.2 away from it, booked on min-hop schedules (every hop costs
      // the same fixed strength). E9's 0.5 injections per step is ~5x
      // the capacity of the few hexagons a 10x10 field holds; 0.05 is
      // below it, so no packet is dropped.
      route::TraceParams tp;
      tp.horizon = 100000;
      tp.injections_per_step = 0.05;
      tp.max_schedule_slack = 100;
      tp.route_min_cost = false;
      set_endpoints(tp, pin_star(d_, centre, 1.2));
      certify(unit_, tp, rng);
    });
    run_seed_ = rng();
  }

  StackHoneycomb(const StackHoneycomb&) = delete;
  StackHoneycomb& operator=(const StackHoneycomb&) = delete;

  Run start() const override { return fresh_run(kNodes, run_seed_); }

  void step(Run& run, Probe& probe, Fnv* fnv) const override {
    core::HoneycombMac::SelectionStats sel;
    probe.call(kHoneycombSelect, [&] {
      run.txs = mac_->select(run.router, costs_, run.rng, &sel);
    });
    if (fnv != nullptr) fnv->mix_txs(run.txs);
    probe.call(kHoneycombResolve, [&] { run.failed = mac_->resolve(run.txs); });
    probe.call(kRouterExecute, [&] {
      run.router.execute(run.txs, run.failed, costs_, run.t, run.m);
    });
    inject(run, probe);
    probe.call(kRouterEndStep, [&] { run.router.end_step(run.m); });
    run.counters.candidate_pairs += sel.candidate_pairs;
    run.counters.contestants += sel.contestants;
    run.counters.planned_tx += run.txs.size();
    ++run.counters.rounds;
    ++run.t;
  }

 private:
  topo::Deployment d_;
  graph::Graph unit_;
  std::optional<core::HoneycombMac> mac_;
  std::uint64_t run_seed_ = 0;
};

// ---------------------------------------------------------------------------
// router_sustained: §3.2 — ΘALG with every edge usable (no MAC), the
// production sparse planner and a hotspot InjectionEngine.

class RouterSustained final : public Workload {
 public:
  static constexpr std::size_t kNodes = 1024;  // a 32 x 32 grid
  static constexpr std::uint64_t kFieldSeed = 3;
  static constexpr route::Time kWarmupRounds = 8000;

  RouterSustained(std::uint64_t seed, Probe& probe) {
    const double n = static_cast<double>(kNodes);
    probe.setup("deployment", [&] {
      // A planned field: a jittered 32 x 32 grid.
      geom::Rng field(kFieldSeed);
      d_.max_range = 1.6 * std::sqrt(std::log(n) / n);
      d_.kappa = 2.0;
      do {
        d_.positions = topo::grid_jitter(kNodes, 1.0, 0.4 / 32.0, field);
      } while (!graph::is_connected(topo::build_transmission_graph(d_)));
    });
    probe.setup("topology.build", [&] {
      tt_.emplace(d_, kTheta);
      costs_ = base_costs(tt_->graph());
    });
    probe.setup("router.warmup", [&] {
      // Every node sends to one hot sink. InjectionEngine draws the sink
      // from its own seed; the first engine seed, counting up from a value
      // drawn from --seed, whose sink is the node at the field centre pins
      // it there. (Counting up from --seed itself would map nearby seeds to
      // the same engine seed, since about one seed in n qualifies.)
      const graph::NodeId centre = pin_nodes(d_, {{0.5, 0.5}}).front();
      route::InjectionSpec spec;
      spec.process = route::InjectionSpec::Process::kHotspot;
      spec.rate = 3.0;
      spec.num_sources = 0;
      spec.num_destinations = 1;
      spec.window = 16384;  // room for the whole gradient ramp
      spec.seed = geom::Rng(seed)();
      while (route::InjectionEngine(tt_->graph(), spec).hot_target() != centre)
        ++spec.seed;
      warm_.emplace(core::BalancingRouter(kNodes, {0.5, 0.0, 64}),
                    geom::Rng(0));
      warm_->engine.emplace(tt_->graph(), spec);
      // Run until the gradient ramp is built; the window then measures the
      // steady state.
      Probe quiet(false);
      for (route::Time r = 0; r < kWarmupRounds; ++r)
        step(*warm_, quiet, nullptr);
      warm_->counters = {};
    });
  }

  RouterSustained(const RouterSustained&) = delete;
  RouterSustained& operator=(const RouterSustained&) = delete;

  Run start() const override { return *warm_; }

  void step(Run& run, Probe& probe, Fnv* fnv) const override {
    const graph::Graph& g = tt_->graph();
    probe.call(kRouterPlan,
               [&] { run.router.plan_all_edges_into(g, costs_, run.txs); });
    if (fnv != nullptr) fnv->mix_txs(run.txs);
    probe.call(kRouterExecute, [&] {
      run.router.execute(run.txs, no_failures_, costs_, run.t, run.m);
    });
    probe.call(kInjectionStep,
               [&] { run.engine->step(run.t, run.m, run.arrivals); });
    if (!run.arrivals.empty())
      probe.call(kRouterInject, [&] {
        for (const route::Packet& p : run.arrivals) run.router.inject(p, run.m);
      });
    probe.call(kRouterEndStep, [&] { run.router.end_step(run.m); });
    run.counters.injected += run.arrivals.size();
    run.counters.planned_tx += run.txs.size();
    ++run.counters.rounds;
    ++run.t;
  }

  std::uint64_t checksum_rounds() const override { return 200; }

  void check(const Run&, const Run&, std::vector<std::string>&) const override {
  }

  double opt_deliveries(const Run&, const Run&) const override { return 0.0; }

 private:
  topo::Deployment d_;
  std::optional<core::ThetaTopology> tt_;
  std::vector<double> costs_;
  const std::vector<bool> no_failures_;
  std::optional<Run> warm_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"stack_mac", "stack_honeycomb",
                                                 "router_sustained"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, Probe& probe) {
  if (name == "stack_mac") return std::make_unique<StackMac>(seed, probe);
  if (name == "stack_honeycomb")
    return std::make_unique<StackHoneycomb>(seed, probe);
  if (name == "router_sustained")
    return std::make_unique<RouterSustained>(seed, probe);
  return nullptr;
}

}  // namespace perfbench
