#pragma once
// Undirected weighted graph kernel. Every topology in the library — the
// transmission graph G*, ThetaALG's output N, and all baseline proximity
// graphs — is materialized as a Graph whose edges carry both the Euclidean
// length |uv| and the transmission-energy cost |uv|^kappa (Section 2 of the
// paper).
//
// Storage is struct-of-arrays, sized for the 10^6-node regime:
//   * edges live in four parallel arrays (u, v, length, cost) — 24 bytes per
//     edge with no per-edge allocation, and scans that only need one field
//     (Dijkstra reads costs, stretch reads lengths) stream just that array;
//   * adjacency is CSR (one offsets array + one flat Half array) instead of
//     a vector per node, built once by GraphBuilder::build().
// A Graph never changes after it is made, so any number of threads may read
// one. Edge ids and the per-node adjacency order are identical to the
// historical vector-of-vectors layout (adjacency is filled in edge-id
// order), so every output and golden file is unchanged.

#include <cstdint>
#include <iterator>
#include <span>
#include <utility>
#include <vector>

#include "common/assert.h"

namespace thetanet::graph {

using NodeId = std::uint32_t;
using EdgeId = std::uint32_t;
inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);
inline constexpr EdgeId kInvalidEdge = static_cast<EdgeId>(-1);

struct Edge {
  NodeId u = kInvalidNode;
  NodeId v = kInvalidNode;
  double length = 0.0;  ///< Euclidean distance |uv|
  double cost = 0.0;    ///< transmission energy |uv|^kappa

  NodeId other(NodeId x) const {
    TN_DCHECK(x == u || x == v);
    return x == u ? v : u;
  }
};

/// An adjacency entry: the neighbour and the id of the connecting edge.
struct Half {
  NodeId to = kInvalidNode;
  EdgeId edge = kInvalidEdge;
};

class Graph {
 public:
  class EdgeRange;

  Graph() = default;
  /// The edgeless graph on n nodes.
  explicit Graph(std::size_t n) : num_nodes_(n) { build_adjacency(); }

  std::size_t num_nodes() const { return num_nodes_; }
  std::size_t num_edges() const { return eu_.size(); }

  std::span<const Half> neighbors(NodeId u) const {
    TN_ASSERT(u < num_nodes_);
    return {adj_half_.data() + adj_off_[u], adj_off_[u + 1] - adj_off_[u]};
  }

  /// The edge with the given id, assembled from the four arrays. Returned
  /// by value; `const Edge& e = g.edge(id)` binds fine (lifetime
  /// extension). Hot loops that need one field should use edge_u()/
  /// edge_v()/edge_length()/edge_cost() and skip the assembly.
  Edge edge(EdgeId e) const {
    TN_ASSERT(e < eu_.size());
    return {eu_[e], ev_[e], elen_[e], ecost_[e]};
  }

  NodeId edge_u(EdgeId e) const { return eu_[e]; }
  NodeId edge_v(EdgeId e) const { return ev_[e]; }
  double edge_length(EdgeId e) const { return elen_[e]; }
  double edge_cost(EdgeId e) const { return ecost_[e]; }

  /// Iterable view over all edges in id order (values, not references —
  /// range-for with `const Edge&` works unchanged).
  EdgeRange edges() const;

  std::size_t degree(NodeId u) const { return neighbors(u).size(); }

  std::size_t max_degree() const {
    std::size_t d = 0;
    for (NodeId u = 0; u < num_nodes_; ++u) {
      const std::size_t deg = adj_off_[u + 1] - adj_off_[u];
      d = deg > d ? deg : d;
    }
    return d;
  }

  bool has_edge(NodeId u, NodeId v) const {
    if (degree(u) > degree(v)) {
      const NodeId t = u;
      u = v;
      v = t;
    }
    for (const Half& h : neighbors(u))
      if (h.to == v) return true;
    return false;
  }

  EdgeId find_edge(NodeId u, NodeId v) const {
    for (const Half& h : neighbors(u))
      if (h.to == v) return h.edge;
    return kInvalidEdge;
  }

  /// Sum of edge costs (total energy to light every link once).
  double total_cost() const {
    double s = 0.0;
    for (const double c : ecost_) s += c;
    return s;
  }

  double total_length() const {
    double s = 0.0;
    for (const double l : elen_) s += l;
    return s;
  }

 private:
  friend class GraphBuilder;

  // Counting sort of the half-edges by endpoint, in edge-id order — exactly
  // the order the old per-node vectors accumulated in, so neighbour
  // enumeration (and everything downstream: Dijkstra tie-breaks, router
  // traces, goldens) is unchanged.
  void build_adjacency() {
    TN_ASSERT(num_nodes_ < kInvalidNode);
    adj_off_.assign(num_nodes_ + 1, 0);
    for (std::size_t e = 0; e < eu_.size(); ++e) {
      ++adj_off_[eu_[e] + 1];
      ++adj_off_[ev_[e] + 1];
    }
    for (std::size_t u = 0; u < num_nodes_; ++u) adj_off_[u + 1] += adj_off_[u];
    adj_half_.resize(2 * eu_.size());
    std::vector<std::uint32_t> cursor(adj_off_.begin(), adj_off_.end() - 1);
    for (std::size_t e = 0; e < eu_.size(); ++e) {
      const auto id = static_cast<EdgeId>(e);
      adj_half_[cursor[eu_[e]]++] = {ev_[e], id};
      adj_half_[cursor[ev_[e]]++] = {eu_[e], id};
    }
  }

  std::size_t num_nodes_ = 0;
  // Edge arrays (struct-of-arrays; index = EdgeId).
  std::vector<NodeId> eu_;
  std::vector<NodeId> ev_;
  std::vector<double> elen_;
  std::vector<double> ecost_;
  // CSR adjacency: halves of node u occupy adj_half_[adj_off_[u]..
  // adj_off_[u+1]). Derived from the edge arrays by build_adjacency().
  std::vector<std::uint32_t> adj_off_;
  std::vector<Half> adj_half_;
};

/// Collects a graph's edges; `std::move(builder).build()` then moves the
/// edge arrays into the Graph and builds its adjacency, once.
class GraphBuilder {
 public:
  explicit GraphBuilder(std::size_t n) { g_.num_nodes_ = n; }

  /// Pre-size the edge arrays (builders know their edge count after dedup).
  void reserve_edges(std::size_t m) {
    g_.eu_.reserve(m);
    g_.ev_.reserve(m);
    g_.elen_.reserve(m);
    g_.ecost_.reserve(m);
  }

  /// Add undirected edge (u, v); parallel edges are the caller's
  /// responsibility to avoid (topology builders dedup before insertion).
  EdgeId add_edge(NodeId u, NodeId v, double length, double cost) {
    TN_ASSERT(u < g_.num_nodes_ && v < g_.num_nodes_ && u != v);
    const EdgeId id = static_cast<EdgeId>(g_.eu_.size());
    g_.eu_.push_back(u);
    g_.ev_.push_back(v);
    g_.elen_.push_back(length);
    g_.ecost_.push_back(cost);
    return id;
  }

  Graph build() && {
    g_.build_adjacency();
    return std::move(g_);
  }

 private:
  Graph g_;
};

/// Proxy iterator over a Graph's edges: dereferences to an Edge *value*
/// assembled from the SoA arrays. Supports everything range-for and simple
/// index arithmetic need.
class Graph::EdgeRange {
 public:
  class iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = Edge;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = Edge;

    iterator() = default;
    iterator(const Graph* g, EdgeId e) : g_(g), e_(e) {}
    Edge operator*() const { return g_->edge(e_); }
    iterator& operator++() {
      ++e_;
      return *this;
    }
    iterator operator++(int) {
      iterator t = *this;
      ++e_;
      return t;
    }
    friend bool operator==(iterator a, iterator b) { return a.e_ == b.e_; }
    friend bool operator!=(iterator a, iterator b) { return a.e_ != b.e_; }

   private:
    const Graph* g_ = nullptr;
    EdgeId e_ = 0;
  };

  explicit EdgeRange(const Graph* g) : g_(g) {}
  iterator begin() const { return {g_, 0}; }
  iterator end() const { return {g_, static_cast<EdgeId>(g_->num_edges())}; }
  std::size_t size() const { return g_->num_edges(); }
  bool empty() const { return g_->num_edges() == 0; }
  Edge operator[](std::size_t i) const {
    return g_->edge(static_cast<EdgeId>(i));
  }

 private:
  const Graph* g_;
};

inline Graph::EdgeRange Graph::edges() const { return EdgeRange(this); }

/// Which per-edge weight a path computation minimizes.
enum class Weight {
  kCost,    ///< transmission energy |uv|^kappa -> energy-stretch
  kLength,  ///< Euclidean length -> distance-stretch
  kHops,    ///< unit weights -> hop count
};

inline double edge_weight(const Edge& e, Weight w) {
  switch (w) {
    case Weight::kCost:
      return e.cost;
    case Weight::kLength:
      return e.length;
    case Weight::kHops:
      return 1.0;
  }
  TN_ASSERT_MSG(false, "unreachable");
  return 0.0;
}

/// Single-field read for hot relaxation loops: touches only the array the
/// weight actually needs instead of assembling a full Edge.
inline double edge_weight(const Graph& g, EdgeId e, Weight w) {
  switch (w) {
    case Weight::kCost:
      return g.edge_cost(e);
    case Weight::kLength:
      return g.edge_length(e);
    case Weight::kHops:
      return 1.0;
  }
  TN_ASSERT_MSG(false, "unreachable");
  return 0.0;
}

}  // namespace thetanet::graph
