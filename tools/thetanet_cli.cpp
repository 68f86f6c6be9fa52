// thetanet_cli — build and inspect ad hoc network topologies from the shell.
//
//   thetanet_cli generate --n 256 --dist uniform --seed 7 --out dep.tsv
//   thetanet_cli build    --in dep.tsv --topology theta --theta 20
//                         --out topo.tsv --svg topo.svg
//   thetanet_cli stats    --in dep.tsv --graph topo.tsv
//   thetanet_cli scoreboard --n 200 --dist uniform --seed 7
//                         --json scoreboard.json
//   thetanet_cli report   --in run.json --baseline prev.json
//                         --out report.md
//
// generate: node distributions (uniform | clustered | grid | civilized |
//           hub). --range defaults to the connectivity radius
//           1.6*sqrt(ln n / n); --kappa defaults to 2.
// build:    topologies (theta | yao | gabriel | rng | rdelaunay | knn |
//           mst | cbtc | beta | theta-theta | theta4 | hng | any registry
//           builder name). --theta in degrees (default 20); --beta, --k,
//           --alpha, --cones for the respective baselines.
// scoreboard: build every registered TopologyBuilder over one generated
//           deployment and print the cross-structure table (stretch, max
//           degree, interference, O(1)-memory routing ratio, router
//           throughput). --only restricts to a comma-separated builder
//           list; --json writes the "thetanet-scoreboard/1" record for
//           tools/bench_compare.py; --csv for plotting.
// stats:    degree / stretch / interference summary of a graph against the
//           deployment's transmission graph.
// report:   render a telemetry dump (obs::write_telemetry_json output) as a
//           markdown report: counters (delta-ranked against --baseline when
//           given), distribution summaries, one SVG sparkline per series
//           (written next to --out), and the verdict lines of a
//           --conformance report when given.
// serve:    interactive observability session on stdin/stdout — line
//           protocol (gen/add/move/leave/wake/route/subscribe telemetry);
//           see docs/serving.md.
// soak:     drive the injection engine for --rounds rounds with the drift
//           watchdog attached, streaming thetanet-telemetry-stream/1
//           frames to --stream (or stdout); --shards same-seed replicas
//           feed the determinism check; exits 1 on any violation.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <numbers>
#include <sstream>
#include <string>
#include <vector>

#include "core/theta_topology.h"
#include "obs/telemetry_reader.h"
#include "routing/injection.h"
#include "serve/session.h"
#include "serve/soak.h"
#include "graph/connectivity.h"
#include "graph/stretch.h"
#include "interference/model.h"
#include "sim/scoreboard.h"
#include "sim/svg.h"
#include "sim/table.h"
#include "topology/builder.h"
#include "topology/cbtc.h"
#include "topology/distributions.h"
#include "topology/hng.h"
#include "topology/io.h"
#include "topology/metrics.h"
#include "topology/proximity.h"
#include "topology/theta_graphs.h"
#include "topology/transmission_graph.h"

namespace {

using namespace thetanet;

using Args = std::map<std::string, std::string>;

Args parse_args(int argc, char** argv, int first) {
  Args args;
  for (int i = first; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      std::fprintf(stderr, "expected --flag, got '%s'\n", argv[i]);
      std::exit(2);
    }
    args[argv[i] + 2] = argv[i + 1];
  }
  return args;
}

std::string get(const Args& a, const std::string& key,
                const std::string& fallback) {
  const auto it = a.find(key);
  return it == a.end() ? fallback : it->second;
}

[[noreturn]] void bad_value(const std::string& key, const std::string& value) {
  std::fprintf(stderr, "bad value for --%s: '%s'\n", key.c_str(),
               value.c_str());
  std::exit(2);
}

/// A finite number; anything else (no digits, trailing garbage, inf, nan)
/// exits 2 with "bad value for --KEY".
double get_num(const Args& a, const std::string& key, double fallback) {
  const auto it = a.find(key);
  if (it == a.end()) return fallback;
  const char* s = it->second.c_str();
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || !std::isfinite(v)) bad_value(key, s);
  return v;
}

/// A count in [0, max]. Converting a negative or too-large double to an
/// unsigned type is undefined, so such values exit 2 like malformed ones.
std::uint64_t get_count(const Args& a, const std::string& key,
                        std::uint64_t fallback, std::uint64_t max) {
  const double v = get_num(a, key, static_cast<double>(fallback));
  if (v < 0.0 || v > static_cast<double>(max)) bad_value(key, get(a, key, ""));
  return static_cast<std::uint64_t>(v);
}

// Count caps: where the target type ends, or where doubles stop holding
// every integer (2^53).
constexpr std::uint64_t kU32 = std::numeric_limits<std::uint32_t>::max();
constexpr std::uint64_t kExact = std::uint64_t{1} << 53;

/// Shared deployment generator for `generate` and `scoreboard` (same flags,
/// same seeds, same distributions). Returns nullopt on an unknown --dist.
std::optional<topo::Deployment> make_deployment(const Args& args,
                                                std::string* dist_out) {
  const std::size_t n = get_count(args, "n", 256, kU32);
  const std::string dist = get(args, "dist", "uniform");
  if (dist_out) *dist_out = dist;
  geom::Rng rng(get_count(args, "seed", 1, kExact));
  topo::Deployment d;
  d.kappa = get_num(args, "kappa", 2.0);
  const double auto_range =
      1.6 * std::sqrt(std::log(static_cast<double>(std::max<std::size_t>(2, n))) /
                      static_cast<double>(n));
  d.max_range = get_num(args, "range", auto_range);
  if (dist == "uniform") {
    d.positions = topo::uniform_square(n, 1.0, rng);
  } else if (dist == "clustered") {
    d.positions = topo::clustered(n, 8, 0.04, 1.0, rng);
  } else if (dist == "grid") {
    d.positions = topo::grid_jitter(
        n, 1.0, 0.3 / std::sqrt(static_cast<double>(n)), rng);
  } else if (dist == "civilized") {
    d.positions =
        topo::civilized(n, 1.0, 0.5 / std::sqrt(static_cast<double>(n)), rng);
  } else if (dist == "hub") {
    d.positions = topo::hub_ring(n, 1.0, rng);
    d.max_range = get_num(args, "range", 1.2);
  } else {
    std::fprintf(stderr, "unknown --dist '%s'\n", dist.c_str());
    return std::nullopt;
  }
  return d;
}

int cmd_generate(const Args& args) {
  std::string dist;
  const auto maybe_d = make_deployment(args, &dist);
  if (!maybe_d) return 2;
  const topo::Deployment& d = *maybe_d;
  const std::string out = get(args, "out", "deployment.tsv");
  if (!topo::save_deployment(out, d)) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("wrote %s: %zu nodes, range %.4f, kappa %.1f (%s)\n",
              out.c_str(), d.size(), d.max_range, d.kappa, dist.c_str());
  return 0;
}

int cmd_build(const Args& args) {
  const std::string in = get(args, "in", "deployment.tsv");
  const auto d = topo::load_deployment(in);
  if (!d) {
    std::fprintf(stderr, "cannot read deployment %s\n", in.c_str());
    return 1;
  }
  const std::string kind = get(args, "topology", "theta");
  const double theta =
      get_num(args, "theta", 20.0) * std::numbers::pi / 180.0;
  graph::Graph g;
  if (kind == "theta") {
    g = core::ThetaTopology(*d, theta).graph();
  } else if (kind == "yao") {
    g = topo::yao_graph(*d, theta);
  } else if (kind == "gabriel") {
    g = topo::gabriel_graph(*d);
  } else if (kind == "rng") {
    g = topo::relative_neighborhood_graph(*d);
  } else if (kind == "rdelaunay") {
    g = topo::restricted_delaunay_graph(*d);
  } else if (kind == "knn") {
    g = topo::knn_graph(*d, get_count(args, "k", 3, kU32));
  } else if (kind == "mst") {
    g = topo::euclidean_mst(*d);
  } else if (kind == "cbtc") {
    g = topo::cbtc_graph(*d, get_num(args, "alpha", 120.0) *
                                 std::numbers::pi / 180.0);
  } else if (kind == "beta") {
    g = topo::beta_skeleton(*d, get_num(args, "beta", 1.0));
  } else if (kind == "gstar") {
    g = topo::build_transmission_graph(*d);
  } else if (kind == "theta-theta") {
    const auto cones = static_cast<int>(
        get_count(args, "cones", 12, std::numeric_limits<int>::max()));
    if (cones < 2) bad_value("cones", get(args, "cones", ""));  // k >= 2
    g = topo::theta_theta_graph(*d, topo::ConeScheme{cones, 0.0});
  } else if (kind == "theta4") {
    g = topo::theta4_graph(*d);
  } else if (kind == "hng") {
    g = topo::hng_graph(*d);
  } else if (const topo::TopologyBuilder* b = topo::find_builder(kind)) {
    g = b->build(*d);
  } else {
    std::fprintf(stderr, "unknown --topology '%s' (registry: %s)\n",
                 kind.c_str(), topo::builder_names().c_str());
    return 2;
  }
  const std::string out = get(args, "out", "topology.tsv");
  if (!topo::save_graph(out, g)) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("wrote %s: %zu nodes, %zu edges, max degree %zu, %s\n",
              out.c_str(), g.num_nodes(), g.num_edges(), g.max_degree(),
              graph::is_connected(g) ? "connected" : "DISCONNECTED");
  const std::string svg = get(args, "svg", "");
  if (!svg.empty()) {
    sim::SvgCanvas canvas(*d);
    canvas.add_edges(g, "#1f77b4", 1.0);
    canvas.add_nodes("#222222");
    if (canvas.write(svg)) std::printf("wrote %s\n", svg.c_str());
  }
  return 0;
}

int cmd_stats(const Args& args) {
  const auto d = topo::load_deployment(get(args, "in", "deployment.tsv"));
  if (!d) {
    std::fprintf(stderr, "cannot read deployment\n");
    return 1;
  }
  const auto g = topo::load_graph(get(args, "graph", "topology.tsv"));
  if (!g) {
    std::fprintf(stderr, "cannot read graph\n");
    return 1;
  }
  if (g->num_nodes() != d->size()) {
    std::fprintf(stderr, "graph/deployment node-count mismatch\n");
    return 1;
  }
  const graph::Graph gstar = topo::build_transmission_graph(*d);
  const auto deg = topo::degree_stats(*g);
  const auto len = topo::edge_length_stats(*g);
  const auto sc = graph::edge_stretch(*g, gstar, graph::Weight::kCost);
  const auto sl = graph::edge_stretch(*g, gstar, graph::Weight::kLength);
  const auto inum = interf::interference_number(
      *g, *d, interf::InterferenceModel{get_num(args, "delta", 1.0)});

  sim::Table t("topology stats", {"metric", "value"});
  t.row({"nodes", sim::fmt(g->num_nodes())})
      .row({"edges", sim::fmt(g->num_edges())})
      .row({"connected", graph::is_connected(*g) ? "yes" : "no"})
      .row({"max degree", sim::fmt(deg.max)})
      .row({"mean degree", sim::fmt(deg.mean, 2)})
      .row({"edge length mean/max",
            sim::fmt(len.mean, 4) + " / " + sim::fmt(len.max, 4)})
      .row({"energy-stretch vs G*",
            sc.disconnected ? "inf" : sim::fmt(sc.max, 3)})
      .row({"distance-stretch vs G*",
            sl.disconnected ? "inf" : sim::fmt(sl.max, 3)})
      .row({"interference number", sim::fmt(inum)});
  t.print(std::cout);
  return 0;
}

int cmd_scoreboard(const Args& args) {
  std::string dist;
  const auto d = make_deployment(args, &dist);
  if (!d) return 2;

  sim::ScoreboardOptions opt;
  opt.delta = get_num(args, "delta", 1.0);
  opt.routing_pairs = get_count(args, "pairs", 512, kU32);
  opt.routing_seed = get_count(args, "routing-seed", 1, kExact);
  opt.trace_seed = get_count(args, "trace-seed", 1, kExact);
  opt.run_router = get_num(args, "router", 1) != 0;
  const std::string only = get(args, "only", "");
  for (std::size_t pos = 0; pos < only.size();) {
    const std::size_t comma = std::min(only.find(',', pos), only.size());
    if (comma > pos) {
      const std::string name = only.substr(pos, comma - pos);
      if (!topo::find_builder(name)) {
        std::fprintf(stderr, "unknown builder '%s' in --only (registry: %s)\n",
                     name.c_str(), topo::builder_names().c_str());
        return 2;
      }
      opt.only.push_back(name);
    }
    pos = comma + 1;
  }

  const sim::Scoreboard sb = sim::run_scoreboard(*d, opt);
  const sim::Table t = sim::scoreboard_table(sb);
  t.print(std::cout);

  const std::string csv = get(args, "csv", "");
  if (!csv.empty()) {
    std::ofstream cf(csv, std::ios::binary | std::ios::trunc);
    if (!cf) {
      std::fprintf(stderr, "cannot write %s\n", csv.c_str());
      return 1;
    }
    t.print_csv(cf);
    std::printf("wrote %s\n", csv.c_str());
  }

  const std::string json = get(args, "json", "");
  if (!json.empty()) {
    std::ofstream jf(json, std::ios::binary | std::ios::trunc);
    if (!jf) {
      std::fprintf(stderr, "cannot write %s\n", json.c_str());
      return 1;
    }
    sim::ScoreboardMeta meta;
    meta.seed = get_count(args, "seed", 1, kExact);
    meta.dist = dist;
    sim::write_scoreboard_json(jf, meta, sb);
    if (!jf) {
      std::fprintf(stderr, "cannot write %s\n", json.c_str());
      return 1;
    }
    std::printf("wrote %s\n", json.c_str());
  }
  return 0;
}

/// Series names become sparkline file names; keep them path-safe.
std::string slug(const std::string& name) {
  std::string s = name;
  for (char& c : s) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_';
    if (!ok) c = '_';
  }
  return s;
}

std::string fmt_point(double v) {
  // Integral values (u64 series, counters) print without a fraction.
  if (v == static_cast<double>(static_cast<long long>(v)))
    return std::to_string(static_cast<long long>(v));
  std::ostringstream ss;
  ss.precision(6);
  ss << v;
  return ss.str();
}

int cmd_report(const Args& args) {
  const std::string in = get(args, "in", "");
  if (in.empty()) {
    std::fprintf(stderr, "report: --in <telemetry.json> is required\n");
    return 2;
  }
  std::string error;
  const auto cur = obs::load_telemetry_file(in, &error);
  if (!cur) {
    std::fprintf(stderr, "cannot read telemetry %s: %s\n", in.c_str(),
                 error.c_str());
    return 1;
  }
  std::optional<obs::ParsedTelemetry> base;
  const std::string baseline = get(args, "baseline", "");
  if (!baseline.empty()) {
    base = obs::load_telemetry_file(baseline, &error);
    if (!base) {
      std::fprintf(stderr, "cannot read baseline %s: %s\n", baseline.c_str(),
                   error.c_str());
      return 1;
    }
  }

  const std::string out = get(args, "out", "telemetry_report.md");
  const std::filesystem::path out_path(out);
  const std::filesystem::path assets_dir =
      out_path.parent_path() / (out_path.stem().string() + "_assets");

  std::ostringstream md;
  md << "# thetanet telemetry report\n\n"
     << "Source: `" << in << "` (schema `" << cur->schema << "`)";
  if (base) md << ", baseline: `" << baseline << '`';
  md << "\n\n";

  // Counters — delta-ranked against the baseline when one is given.
  md << "## Counters\n\n";
  if (base) {
    struct Row {
      std::string name;
      std::uint64_t cur = 0, base = 0;
      long long delta() const {
        return static_cast<long long>(cur) - static_cast<long long>(base);
      }
    };
    std::vector<Row> rows;
    for (const auto& [name, v] : cur->counters) {
      const auto it = base->counters.find(name);
      rows.push_back({name, v, it == base->counters.end() ? 0 : it->second});
    }
    for (const auto& [name, v] : base->counters)
      if (!cur->counters.count(name)) rows.push_back({name, 0, v});
    std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
      const auto da = std::llabs(a.delta()), db = std::llabs(b.delta());
      return da != db ? da > db : a.name < b.name;
    });
    md << "| counter | value | baseline | delta |\n"
       << "|---|---:|---:|---:|\n";
    for (const Row& r : rows)
      md << "| `" << r.name << "` | " << r.cur << " | " << r.base << " | "
         << (r.delta() > 0 ? "+" : "") << r.delta() << " |\n";
  } else {
    md << "| counter | value |\n|---|---:|\n";
    for (const auto& [name, v] : cur->counters)
      md << "| `" << name << "` | " << v << " |\n";
  }

  if (!cur->distributions.empty()) {
    md << "\n## Distributions\n\n"
       << "| distribution | count | min | max | sum | p50 | p99 |\n"
       << "|---|---:|---:|---:|---:|---:|---:|\n";
    for (const auto& [name, d] : cur->distributions)
      md << "| `" << name << "` | " << d.count << " | " << d.min << " | "
         << d.max << " | " << d.sum << " | " << d.p50 << " | " << d.p99
         << " |\n";
  }

  if (!cur->series.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(assets_dir, ec);
    if (ec) {
      std::fprintf(stderr, "cannot create %s: %s\n",
                   assets_dir.string().c_str(), ec.message().c_str());
      return 1;
    }
    md << "\n## Series\n";
    for (const auto& [name, s] : cur->series) {
      double lo = 0.0, hi = 0.0;
      if (!s.points.empty()) {
        lo = hi = s.points[0];
        for (const double v : s.points) {
          lo = std::min(lo, v);
          hi = std::max(hi, v);
        }
      }
      md << "\n### `" << name << "`\n\n"
         << s.agg << " of " << s.kind << " per round; " << s.rounds
         << " rounds in " << s.points.size() << " points (stride " << s.stride
         << "), min " << fmt_point(lo) << ", max " << fmt_point(hi) << ".";
      if (base) {
        const auto it = base->series.find(name);
        if (it != base->series.end()) {
          double bhi = 0.0;
          for (const double v : it->second.points) bhi = std::max(bhi, v);
          md << " Baseline max " << fmt_point(bhi) << '.';
        }
      }
      md << "\n\n";
      const std::string file = slug(name) + ".svg";
      if (!sim::write_sparkline_svg((assets_dir / file).string(), s.points)) {
        std::fprintf(stderr, "cannot write %s\n",
                     (assets_dir / file).string().c_str());
        return 1;
      }
      md << "![" << name << "](" << assets_dir.filename().string() << '/'
         << file << ")\n";
    }
  }

  const std::string conf = get(args, "conformance", "");
  if (!conf.empty()) {
    std::ifstream cf(conf);
    if (!cf) {
      std::fprintf(stderr, "cannot read conformance report %s\n",
                   conf.c_str());
      return 1;
    }
    md << "\n## Conformance\n\n```\n";
    std::string line;
    while (std::getline(cf, line)) {
      // Keep the verdict lines; drop per-violation details into the report
      // verbatim as well — the file is already deterministic text.
      md << line << '\n';
    }
    md << "```\n";
  }

  std::ofstream of(out, std::ios::binary | std::ios::trunc);
  if (!of) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  of << md.str();
  if (!of) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("wrote %s (%zu counters, %zu distributions, %zu series)\n",
              out.c_str(), cur->counters.size(), cur->distributions.size(),
              cur->series.size());
  return 0;
}

int cmd_serve(const Args& args) {
  // Pure protocol on stdout (responses + telemetry frames); bookkeeping on
  // stderr so piping the session through a script stays clean.
  if (!args.empty()) {
    std::fprintf(stderr, "serve takes no flags; commands arrive on stdin\n");
    return 2;
  }
  const std::uint64_t handled = serve::run_serve(std::cin, std::cout);
  std::fprintf(stderr, "serve: handled %llu commands\n",
               static_cast<unsigned long long>(handled));
  return 0;
}

int cmd_soak(const Args& args) {
  serve::SoakSpec spec;
  spec.n = get_count(args, "n", 512, kU32);
  spec.topo_seed = get_count(args, "seed", 1, kExact);
  spec.rounds = get_count(args, "rounds", 200000, kExact);
  spec.interval = get_count(args, "interval", 5000, kExact);
  spec.shards = static_cast<int>(
      get_count(args, "shards", 2, std::numeric_limits<int>::max()));
  spec.quantum = get_count(args, "quantum", 0, kU32);
  spec.threshold = get_num(args, "threshold", 0.5);
  spec.gamma = get_num(args, "gamma", 0.0);
  spec.max_height = get_count(args, "max-height", 32, kU32);
  spec.fold_check = get_num(args, "fold-check", 0) != 0;
  spec.plant_leak = get_num(args, "plant-leak", 0) != 0;
  spec.watchdog.rss_allowance_mb =
      get_num(args, "rss-allowance", spec.watchdog.rss_allowance_mb);

  const std::string process = get(args, "process", "poisson");
  if (!route::parse_injection_process(process.c_str(),
                                      &spec.inject.process)) {
    std::fprintf(stderr, "unknown --process '%s'\n", process.c_str());
    return 2;
  }
  spec.inject.rate = get_num(args, "rate", 1.0);
  spec.inject.window =
      static_cast<std::uint32_t>(get_count(args, "window", 4096, kU32));
  spec.inject.seed = get_count(args, "inject-seed", 1, kExact);

  // Frames go to --stream (a file) or stdout; the human-readable summary
  // always goes to stderr so the stream stays machine-parseable.
  const std::string stream_path = get(args, "stream", "");
  std::ofstream stream_file;
  if (!stream_path.empty()) {
    stream_file.open(stream_path, std::ios::binary | std::ios::trunc);
    if (!stream_file) {
      std::fprintf(stderr, "cannot write %s\n", stream_path.c_str());
      return 1;
    }
  }
  std::ostream& frames_out = stream_path.empty() ? std::cout : stream_file;

  const serve::SoakResult r = serve::run_soak(spec, frames_out);

  const std::string dump_path = get(args, "dump", "");
  if (!dump_path.empty()) {
    std::ofstream df(dump_path, std::ios::binary | std::ios::trunc);
    df << r.final_dump;
    if (!df) {
      std::fprintf(stderr, "cannot write %s\n", dump_path.c_str());
      return 1;
    }
  }

  std::fprintf(stderr,
               "soak: rounds=%llu frames=%llu deliveries=%llu accepted=%llu "
               "leftover=%llu checksum=%016llx warm_rss=%.1fMiB "
               "peak_rss=%.1fMiB fold=%s\n",
               static_cast<unsigned long long>(r.rounds),
               static_cast<unsigned long long>(r.frames),
               static_cast<unsigned long long>(r.deliveries),
               static_cast<unsigned long long>(r.injected_accepted),
               static_cast<unsigned long long>(r.leftover),
               static_cast<unsigned long long>(r.checksum), r.warm_rss_mb,
               r.peak_rss_mb, r.fold_ok ? "ok" : "FAIL");
  for (const std::string& v : r.violations)
    std::fprintf(stderr, "soak: WATCHDOG %s\n", v.c_str());
  if (!r.ok) {
    std::fprintf(stderr, "soak: FAILED (%zu violations)\n",
                 r.violations.size());
    return 1;
  }
  std::fprintf(stderr, "soak: ok\n");
  return 0;
}

void usage() {
  std::fprintf(
      stderr,
      "usage: thetanet_cli <generate|build|stats|scoreboard|report|serve|"
      "soak> [--flag value]...\n"
      "see the header comment of tools/thetanet_cli.cpp\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string cmd = argv[1];
  const Args args = parse_args(argc, argv, 2);
  if (cmd == "generate") return cmd_generate(args);
  if (cmd == "build") return cmd_build(args);
  if (cmd == "stats") return cmd_stats(args);
  if (cmd == "scoreboard") return cmd_scoreboard(args);
  if (cmd == "report") return cmd_report(args);
  if (cmd == "serve") return cmd_serve(args);
  if (cmd == "soak") return cmd_soak(args);
  usage();
  return 2;
}
