// CI smoke driver for the large-n construction path (see tests/CMakeLists
// "construction_smoke_*"): builds one n=1e5-scale deployment, runs the
// parallelized construction kernels (sector table, ThetaALG, transmission
// graph, Gabriel graph, interference set sizes), and
//
//   1. fails if the process peak RSS exceeds --max-rss-mb — the memory
//      budget that pins the SoA/Morton layout's footprint in CI, and
//   2. writes the deterministic telemetry dump to --out, which ctest
//      byte-compares across TN_NUM_THREADS values (same contract as the
//      fuzz-driver telemetry diffs, exercised here at smoke scale on the
//      real construction pipeline).
//
// usage: construction_smoke_main --out DUMP.json [--n N] [--max-rss-mb MB]

#include <cmath>
#include <cstdio>
#include <cstring>
#include <numbers>
#include <string>

#if defined(__linux__)
#include <sys/resource.h>
#endif

#include "core/theta_topology.h"
#include "geom/rng.h"
#include "interference/model.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/timeseries.h"
#include "obs/trace_sink.h"
#include "topology/distributions.h"
#include "topology/proximity.h"
#include "topology/transmission_graph.h"
#include "topology/yao.h"

namespace {

double peak_rss_mb() {
#if defined(__linux__)
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
#else
  return 0.0;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  using namespace thetanet;

  std::string out_path;
  std::size_t n = 100000;
  double max_rss_mb = 0.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--n") == 0 && i + 1 < argc) {
      n = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--max-rss-mb") == 0 && i + 1 < argc) {
      max_rss_mb = std::strtod(argv[++i], nullptr);
    } else {
      std::fprintf(stderr,
                   "usage: construction_smoke_main --out DUMP.json [--n N] "
                   "[--max-rss-mb MB]\n");
      return 2;
    }
  }
  if (out_path.empty()) {
    std::fprintf(stderr, "construction_smoke_main: --out is required\n");
    return 2;
  }

  obs::set_recording(true);
  obs::MetricsRegistry::global().reset();
  obs::SeriesRegistry::global().reset();
  obs::reset_spans();

  geom::Rng rng(0xbe9c4 + n);
  topo::Deployment d;
  d.positions = topo::uniform_square(n, 1.0, rng);
  d.max_range = 1.6 * std::sqrt(std::log(static_cast<double>(n)) /
                                static_cast<double>(n));
  d.kappa = 2.0;

  constexpr double kTheta = std::numbers::pi / 9.0;
  std::uint64_t sink = 0;
  {
    const topo::SectorTable st = topo::compute_sector_table(d, kTheta);
    sink ^= static_cast<std::uint64_t>(st.sectors());
  }
  const core::ThetaTopology tt(d, kTheta);
  sink ^= tt.graph().num_edges();
  sink ^= topo::build_transmission_graph(d).num_edges();
  sink ^= topo::gabriel_graph(d).num_edges();
  const interf::InterferenceModel m{1.0};
  for (const std::uint32_t s : interf::interference_set_sizes(tt.graph(), d, m))
    sink += s;

  const double rss = peak_rss_mb();
  std::printf("construction_smoke: n=%zu sink=%llu peak_rss=%.1f MB\n", n,
              static_cast<unsigned long long>(sink), rss);
  if (!obs::write_telemetry_json(out_path)) {
    std::fprintf(stderr, "construction_smoke: cannot write %s\n",
                 out_path.c_str());
    return 1;
  }
  if (max_rss_mb > 0.0 && rss > max_rss_mb) {
    std::fprintf(stderr,
                 "construction_smoke: peak RSS %.1f MB exceeds the %.1f MB "
                 "budget\n",
                 rss, max_rss_mb);
    return 1;
  }
  return 0;
}
