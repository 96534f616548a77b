#include "graph/graph.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <initializer_list>
#include <sstream>
#include <stdexcept>
#include <tuple>

namespace gsp {

Graph::Graph(std::size_t n, std::span<const Edge> edges) : adjacency_(n) {
    edges_.reserve(edges.size());
    for (const Edge& e : edges) add_edge(e.u, e.v, e.weight);
}

void Graph::check_endpoints(VertexId u, VertexId v, Weight w) const {
    if (u >= num_vertices() || v >= num_vertices()) {
        throw std::out_of_range("Graph::add_edge: endpoint out of range");
    }
    if (u == v) throw std::invalid_argument("Graph::add_edge: self-loop");
    if (!(w > 0.0) || !std::isfinite(w)) {
        throw std::invalid_argument("Graph::add_edge: weight must be positive and finite");
    }
}

EdgeId Graph::add_edge(VertexId u, VertexId v, Weight w) {
    check_endpoints(u, v, w);
    const auto id = static_cast<EdgeId>(edges_.size());
    edges_.push_back(Edge{u, v, w});
    adjacency_[u].push_back(HalfEdge{v, w, id});
    adjacency_[v].push_back(HalfEdge{u, w, id});
    return id;
}

EdgeId Graph::add_edge_unique(VertexId u, VertexId v, Weight w) {
    check_endpoints(u, v, w);
    if (has_edge(u, v)) throw std::invalid_argument("Graph::add_edge_unique: duplicate edge");
    return add_edge(u, v, w);
}

bool Graph::has_edge(VertexId u, VertexId v) const {
    // Scan the smaller adjacency list.
    if (degree(u) > degree(v)) std::swap(u, v);
    for (const HalfEdge& h : adjacency_.at(u)) {
        if (h.to == v) return true;
    }
    return false;
}

std::size_t Graph::max_degree() const {
    std::size_t best = 0;
    for (const auto& adj : adjacency_) best = std::max(best, adj.size());
    return best;
}

Weight Graph::total_weight() const {
    Weight sum = 0.0;
    for (const Edge& e : edges_) sum += e.weight;
    return sum;
}

Graph Graph::edge_subgraph(std::span<const EdgeId> ids) const {
    Graph sub(num_vertices());
    for (EdgeId id : ids) {
        const Edge& e = edge(id);
        sub.add_edge(e.u, e.v, e.weight);
    }
    return sub;
}

std::string Graph::summary() const {
    std::ostringstream ss;
    ss << "Graph{n=" << num_vertices() << ", m=" << num_edges()
       << ", w=" << total_weight() << ", maxdeg=" << max_degree() << "}";
    return ss.str();
}

bool same_edge_set(const Graph& a, const Graph& b) {
    if (a.num_vertices() != b.num_vertices() || a.num_edges() != b.num_edges()) return false;
    auto canonical = [](const Graph& g) {
        std::vector<std::tuple<VertexId, VertexId, Weight>> out;
        out.reserve(g.num_edges());
        for (const Edge& e : g.edges()) {
            out.emplace_back(std::min(e.u, e.v), std::max(e.u, e.v), e.weight);
        }
        std::sort(out.begin(), out.end());
        return out;
    };
    return canonical(a) == canonical(b);
}

std::uint64_t edge_sequence_digest(const Graph& g) {
    std::uint64_t h = 14695981039346656037ull;  // FNV-1a, byte by byte
    for (const Edge& e : g.edges()) {
        for (const std::uint64_t word : {std::uint64_t{e.u}, std::uint64_t{e.v},
                                         std::bit_cast<std::uint64_t>(e.weight)}) {
            for (int byte = 0; byte < 8; ++byte) {
                h = (h ^ ((word >> (8 * byte)) & 0xffu)) * 1099511628211ull;
            }
        }
    }
    return h;
}

}  // namespace gsp
