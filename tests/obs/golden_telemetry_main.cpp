// Golden-telemetry fixture driver (see tests/CMakeLists.txt): runs a fixed-
// seed workload — a parallel theta build + interference kernels, then a
// (T, gamma)-balancing router episode — and writes the deterministic
// telemetry dump. CTest runs this under TN_NUM_THREADS in {1, 2, 4},
// byte-compares each dump against the committed golden in tests/obs/golden/
// and a same-seed rerun against the first run, so any change to the dump
// format, the metric catalogue, or the merge algebra shows up as a
// reviewable golden diff.
//
// Exits non-zero if the run itself violates the headline series contract:
// max over the router.peak_buffer series must equal RunMetrics::peak_buffer.
//
// usage: golden_telemetry_main --out DUMP.json

#include <cstdio>
#include <cstring>
#include <numbers>
#include <string>
#include <vector>

#include "core/theta_topology.h"
#include "geom/rng.h"
#include "interference/model.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/timeseries.h"
#include "obs/trace_sink.h"
#include "sim/scenarios.h"
#include "topology/distributions.h"
#include "topology/transmission_graph.h"

int main(int argc, char** argv) {
  using namespace thetanet;

  if (argc != 3 || std::strcmp(argv[1], "--out") != 0) {
    std::fprintf(stderr, "usage: golden_telemetry_main --out DUMP.json\n");
    return 2;
  }
  const std::string out_path = argv[2];

  obs::set_recording(true);
  obs::MetricsRegistry::global().reset();
  obs::SeriesRegistry::global().reset();
  obs::reset_spans();

  // Phase 1: the parallel construction kernels — spans, grid counters.
  {
    geom::Rng rng(29);
    topo::Deployment d;
    d.positions = topo::uniform_square(400, 1.0, rng);
    d.max_range = 0.15;
    d.kappa = 2.0;
    const core::ThetaTopology tt(d, std::numbers::pi / 9.0);
    const interf::InterferenceModel model{1.0};
    (void)interf::interference_set_sizes(tt.graph(), d, model);
  }

  // Phase 2: a certified adversary trace through the Section 3.2 router —
  // the per-round series this fixture exists for.
  geom::Rng rng(7);
  topo::Deployment d;
  d.positions = topo::uniform_square(40, 1.0, rng);
  d.max_range = 0.5;
  d.kappa = 2.0;
  const graph::Graph topo = topo::build_transmission_graph(d);
  route::TraceParams tp;
  tp.horizon = 600;
  tp.injections_per_step = 2.0;
  tp.num_sources = 4;
  tp.num_destinations = 2;
  const route::AdversaryTrace trace = route::make_certified_trace(topo, tp, rng);
  const core::BalancingParams params =
      core::theorem31_params(trace.opt, 0.25, 4.0);
  const sim::ScenarioResult res = sim::run_mac_given(trace, params, 200);

  // The headline contract: the downsampled series still carries the exact
  // Theorem 3.1 peak the invariant checker consumed.
  std::uint64_t series_max = 0;
  bool found = false;
  for (const obs::SeriesSnapshot& s : obs::SeriesRegistry::global().snapshot()) {
    if (s.name != "router.peak_buffer") continue;
    found = true;
    for (const std::uint64_t v : s.upoints)
      series_max = series_max < v ? v : series_max;
  }
  if (!found) {
    std::fprintf(stderr, "router.peak_buffer series missing from the run\n");
    return 1;
  }
  if (series_max != res.metrics.peak_buffer) {
    std::fprintf(stderr,
                 "series max %llu != RunMetrics::peak_buffer %llu\n",
                 static_cast<unsigned long long>(series_max),
                 static_cast<unsigned long long>(res.metrics.peak_buffer));
    return 1;
  }

  if (!obs::write_telemetry_json(out_path)) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  return 0;
}
