// The textbook greedy spanner (Algorithm 1 of the paper), written to share
// nothing with GreedyEngine: no buckets, no candidate stream, no CSR view,
// no bounds. Sort the candidates, then keep one iff a one-sided Dijkstra
// on the plain Graph, limited to t * w, does not reach the other endpoint.
// Every equivalence suite takes its edge set from here.
#pragma once

#include <algorithm>
#include <cmath>
#include <functional>
#include <queue>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "api/candidate_source.hpp"
#include "graph/graph.hpp"

namespace gsp {

/// Greedy over `cands`, in the order a stable sort by weight leaves them.
inline Graph reference_greedy_loop(Graph h, std::vector<GreedyCandidate> cands, double t) {
    std::stable_sort(cands.begin(), cands.end(),
                     [](const GreedyCandidate& a, const GreedyCandidate& b) {
                         return a.weight < b.weight;
                     });
    for (const GreedyCandidate& c : cands) {
        if (!std::isfinite(t * c.weight)) {
            throw std::invalid_argument("reference_greedy: non-finite threshold t * w");
        }
    }
    std::vector<Weight> dist(h.num_vertices(), kInfiniteWeight);
    std::vector<VertexId> touched;
    using Label = std::pair<Weight, VertexId>;
    for (const GreedyCandidate& c : cands) {
        const Weight limit = t * c.weight;
        std::priority_queue<Label, std::vector<Label>, std::greater<>> heap;
        dist[c.u] = 0.0;
        touched.push_back(c.u);
        heap.emplace(0.0, c.u);
        bool reached = false;
        while (!heap.empty()) {
            const auto [d, x] = heap.top();
            heap.pop();
            if (x == c.v) {
                reached = true;  // delta_H(u, v) <= t * w: reject
                break;
            }
            if (d > dist[x]) continue;
            for (const HalfEdge& e : h.neighbors(x)) {
                const Weight nd = d + e.weight;
                if (nd <= limit && nd < dist[e.to]) {
                    if (dist[e.to] == kInfiniteWeight) touched.push_back(e.to);
                    dist[e.to] = nd;
                    heap.emplace(nd, e.to);
                }
            }
        }
        for (const VertexId x : touched) dist[x] = kInfiniteWeight;
        touched.clear();
        if (!reached) h.add_edge(c.u, c.v, c.weight);
    }
    return h;
}

/// Greedy over the edges of g by (weight, min endpoint, max endpoint);
/// edges enter in id order, so stability supplies the id tie-break.
inline Graph reference_greedy(const Graph& g, double t) {
    std::vector<Edge> edges(g.edges().begin(), g.edges().end());
    std::stable_sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
        return std::make_tuple(a.weight, std::min(a.u, a.v), std::max(a.u, a.v)) <
               std::make_tuple(b.weight, std::min(b.u, b.v), std::max(b.u, b.v));
    });
    std::vector<GreedyCandidate> cands;
    for (const Edge& e : edges) cands.push_back(GreedyCandidate{e.u, e.v, e.weight});
    return reference_greedy_loop(Graph(g.num_vertices()), std::move(cands), t);
}

/// Greedy over the source's materialized candidates (in its tie order),
/// on top of the edges it seeds. Source-side engine overrides do not apply:
/// pass the stretch the engine would run at.
inline Graph reference_greedy(CandidateSource& source, double t) {
    Graph h(source.num_vertices());
    source.seed(h);
    std::vector<GreedyCandidate> cands;
    source.materialize(cands);
    return reference_greedy_loop(std::move(h), std::move(cands), t);
}

}  // namespace gsp
