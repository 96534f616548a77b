// Undirected weighted graph with incremental edge insertion.
//
// This is the substrate type of the whole library: the greedy spanner is a
// loop that *grows* a graph while running shortest-path queries on the
// partial result, so the representation is adjacency lists (cheap append)
// rather than CSR (cheap scan, expensive append).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/types.hpp"

namespace gsp {

/// Undirected graph with positive edge weights.
///
/// Invariants:
///  * every edge has weight > 0 and distinct endpoints within range;
///  * parallel edges are permitted by the representation (some intermediate
///    constructions use them) but `add_edge_unique` offers checked insertion.
class Graph {
public:
    Graph() = default;

    /// An edgeless graph on n vertices.
    explicit Graph(std::size_t n) : adjacency_(n) {}

    /// Build from an explicit edge list over n vertices.
    Graph(std::size_t n, std::span<const Edge> edges);

    [[nodiscard]] std::size_t num_vertices() const { return adjacency_.size(); }
    [[nodiscard]] std::size_t num_edges() const { return edges_.size(); }
    [[nodiscard]] bool empty() const { return edges_.empty(); }

    /// Append one undirected edge; returns its id. Throws on self-loops,
    /// out-of-range endpoints, or non-positive / non-finite weight.
    EdgeId add_edge(VertexId u, VertexId v, Weight w);

    /// As add_edge, but throws if (u, v) is already present.
    EdgeId add_edge_unique(VertexId u, VertexId v, Weight w);

    /// True iff some edge joins u and v (linear in deg(u)).
    [[nodiscard]] bool has_edge(VertexId u, VertexId v) const;

    /// The edge with the given id.
    [[nodiscard]] const Edge& edge(EdgeId id) const { return edges_.at(id); }

    /// All edges in insertion order.
    [[nodiscard]] std::span<const Edge> edges() const { return edges_; }

    /// Adjacency of u.
    [[nodiscard]] std::span<const HalfEdge> neighbors(VertexId u) const {
        return adjacency_.at(u);
    }

    [[nodiscard]] std::size_t degree(VertexId u) const { return adjacency_.at(u).size(); }

    /// Maximum degree over all vertices (0 for the empty graph).
    [[nodiscard]] std::size_t max_degree() const;

    /// Sum of all edge weights, w(G).
    [[nodiscard]] Weight total_weight() const;

    /// Subgraph on the same vertex set containing exactly the edges whose
    /// ids are listed (ids refer to this graph's edge list).
    [[nodiscard]] Graph edge_subgraph(std::span<const EdgeId> ids) const;

    /// Human-readable one-line summary (for logs and examples).
    [[nodiscard]] std::string summary() const;

private:
    void check_endpoints(VertexId u, VertexId v, Weight w) const;

    std::vector<Edge> edges_;
    std::vector<std::vector<HalfEdge>> adjacency_;
};

/// Structural equality as *edge sets* (order-insensitive, canonical
/// orientation, exact weight match). Both graphs must have the same vertex
/// count. Used by the Lemma-3 fixpoint tests (greedy(greedy(G)) == greedy(G)).
[[nodiscard]] bool same_edge_set(const Graph& a, const Graph& b);

/// FNV-1a over (u, v, weight bits) of every edge in id order: a fingerprint
/// of the exact edge sequence, orientation included, for checking that two
/// builds (or two versions of the library) produced the same spanner.
[[nodiscard]] std::uint64_t edge_sequence_digest(const Graph& g);

}  // namespace gsp
