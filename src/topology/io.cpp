#include "topology/io.h"

#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

namespace thetanet::topo {
namespace {

constexpr int kPrecision = std::numeric_limits<double>::max_digits10;

}  // namespace

void save_deployment(std::ostream& os, const Deployment& d) {
  os << std::setprecision(kPrecision);
  os << "deployment v1 " << d.size() << ' ' << d.max_range << ' ' << d.kappa
     << '\n';
  for (const geom::Vec2 p : d.positions) os << p.x << ' ' << p.y << '\n';
}

bool save_deployment(const std::string& path, const Deployment& d) {
  std::ofstream out(path);
  if (!out) return false;
  save_deployment(out, d);
  return static_cast<bool>(out);
}

std::optional<Deployment> load_deployment(std::istream& is) {
  std::string tag, version;
  std::size_t n = 0;
  Deployment d;
  if (!(is >> tag >> version >> n >> d.max_range >> d.kappa)) return std::nullopt;
  if (tag != "deployment" || version != "v1") return std::nullopt;
  if (d.max_range <= 0.0 || d.kappa < 1.0) return std::nullopt;
  // Node ids are 32-bit. No reserve(n): a header that overstates n fails at
  // its first missing line instead of allocating for it.
  if (n >= graph::kInvalidNode) return std::nullopt;
  for (std::size_t i = 0; i < n; ++i) {
    geom::Vec2 p;
    if (!(is >> p.x >> p.y)) return std::nullopt;
    d.positions.push_back(p);
  }
  return d;
}

std::optional<Deployment> load_deployment(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  return load_deployment(in);
}

void save_graph(std::ostream& os, const graph::Graph& g) {
  os << std::setprecision(kPrecision);
  os << "graph v1 " << g.num_nodes() << ' ' << g.num_edges() << '\n';
  for (const graph::Edge& e : g.edges())
    os << e.u << ' ' << e.v << ' ' << e.length << ' ' << e.cost << '\n';
}

bool save_graph(const std::string& path, const graph::Graph& g) {
  std::ofstream out(path);
  if (!out) return false;
  save_graph(out, g);
  return static_cast<bool>(out);
}

std::optional<graph::Graph> load_graph(std::istream& is) {
  std::string tag, version;
  std::size_t n = 0, m = 0;
  if (!(is >> tag >> version >> n >> m)) return std::nullopt;
  if (tag != "graph" || version != "v1") return std::nullopt;
  if (n >= graph::kInvalidNode) return std::nullopt;
  graph::GraphBuilder b(n);
  for (std::size_t i = 0; i < m; ++i) {
    graph::NodeId u, v;
    double len, cost;
    if (!(is >> u >> v >> len >> cost)) return std::nullopt;
    if (u >= n || v >= n || u == v || len < 0.0 || cost < 0.0)
      return std::nullopt;
    b.add_edge(u, v, len, cost);
  }
  graph::Graph g = std::move(b).build();
  // Graph leaves parallel edges to its caller; a file may hold `u v` twice,
  // or both `u v` and `v u`.
  std::vector<graph::NodeId> seen_from(n, graph::kInvalidNode);
  for (graph::NodeId u = 0; u < n; ++u)
    for (const graph::Half& h : g.neighbors(u)) {
      if (seen_from[h.to] == u) return std::nullopt;
      seen_from[h.to] = u;
    }
  return g;
}

std::optional<graph::Graph> load_graph(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  return load_graph(in);
}

}  // namespace thetanet::topo
