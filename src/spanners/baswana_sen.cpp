#include "spanners/baswana_sen.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "util/random.hpp"

namespace gsp {

namespace {

/// Active edge incident to a vertex during the clustering rounds.
struct ActiveEdge {
    VertexId to;
    Weight weight;
};

/// Key of the adjacency entry `to` in the list of `from`.
std::uint64_t directed_key(VertexId from, VertexId to) {
    return (static_cast<std::uint64_t>(from) << 32) | to;
}

}  // namespace

Graph baswana_sen_spanner(const Graph& g, unsigned k, std::uint64_t seed) {
    if (k < 1) throw std::invalid_argument("baswana_sen_spanner: k must be >= 1");
    const std::size_t n = g.num_vertices();
    Graph h(n);
    if (n == 0 || g.num_edges() == 0) return h;

    Rng rng(seed);
    const double sample_p = std::pow(static_cast<double>(n), -1.0 / static_cast<double>(k));

    // Active adjacency (both directions), pruned as the algorithm discards
    // edges. Parallel edges are collapsed to the lightest up front.
    std::vector<std::unordered_map<VertexId, Weight>> lightest(n);
    for (const Edge& e : g.edges()) {
        auto relax = [&](VertexId a, VertexId b) {
            auto [it, inserted] = lightest[a].try_emplace(b, e.weight);
            if (!inserted && e.weight < it->second) it->second = e.weight;
        };
        relax(e.u, e.v);
        relax(e.v, e.u);
    }
    std::vector<std::vector<ActiveEdge>> adj(n);
    for (VertexId v = 0; v < n; ++v) {
        adj[v].reserve(lightest[v].size());
        for (const auto& [to, w] : lightest[v]) adj[v].push_back({to, w});
    }

    // cluster[v]: center of v's current cluster, or kNoVertex once v has
    // been discarded from the clustering.
    std::vector<VertexId> cluster(n);
    for (VertexId v = 0; v < n; ++v) cluster[v] = v;

    auto add_spanner_edge = [&](VertexId a, VertexId b, Weight w) {
        if (!h.has_edge(a, b)) h.add_edge(a, b, w);
    };

    for (unsigned round = 1; round < k; ++round) {
        // 1. Sample cluster centers.
        std::unordered_set<VertexId> sampled;
        {
            std::unordered_set<VertexId> centers;
            for (VertexId v = 0; v < n; ++v) {
                if (cluster[v] != kNoVertex) centers.insert(cluster[v]);
            }
            for (VertexId c : centers) {
                if (rng.uniform01() < sample_p) sampled.insert(c);
            }
        }

        std::vector<VertexId> next_cluster(cluster);

        // 2. Each clustered vertex outside every sampled cluster picks edges.
        for (VertexId v = 0; v < n; ++v) {
            if (cluster[v] == kNoVertex) continue;
            if (sampled.contains(cluster[v])) continue;

            // Lightest incident edge per adjacent cluster.
            std::unordered_map<VertexId, ActiveEdge> best;  // cluster center -> edge
            for (const ActiveEdge& e : adj[v]) {
                const VertexId c = cluster[e.to];
                if (c == kNoVertex || c == cluster[v]) continue;
                auto [it, inserted] = best.try_emplace(c, e);
                if (!inserted && e.weight < it->second.weight) it->second = e;
            }

            // Lightest edge into a *sampled* adjacent cluster, if any.
            bool have_sampled = false;
            VertexId join_center = kNoVertex;
            ActiveEdge join_edge{kNoVertex, kInfiniteWeight};
            for (const auto& [c, e] : best) {
                if (sampled.contains(c) &&
                    (!have_sampled || e.weight < join_edge.weight)) {
                    have_sampled = true;
                    join_center = c;
                    join_edge = e;
                }
            }

            if (!have_sampled) {
                // Discarded: keep one lightest edge per adjacent cluster,
                // then leave the clustering for good.
                for (const auto& [c, e] : best) add_spanner_edge(v, e.to, e.weight);
                next_cluster[v] = kNoVertex;
                adj[v].clear();
            } else {
                // Join the sampled cluster; keep the joining edge plus one
                // lightest edge to every strictly lighter adjacent cluster.
                add_spanner_edge(v, join_edge.to, join_edge.weight);
                next_cluster[v] = join_center;
                std::unordered_set<VertexId> dropped_clusters;
                for (const auto& [c, e] : best) {
                    if (c == join_center) continue;
                    if (e.weight < join_edge.weight) {
                        add_spanner_edge(v, e.to, e.weight);
                        dropped_clusters.insert(c);
                    }
                }
                dropped_clusters.insert(join_center);
                // Remove v's edges into dropped clusters (spanner paths for
                // them are now certified through the kept edges).
                std::erase_if(adj[v], [&](const ActiveEdge& e) {
                    const VertexId c = cluster[e.to];
                    return c != kNoVertex && dropped_clusters.contains(c);
                });
            }
        }

        cluster = std::move(next_cluster);

        // 3. Drop edges internal to the new clusters and edges into
        // discarded vertices (mirror lists may still hold them).
        for (VertexId v = 0; v < n; ++v) {
            if (cluster[v] == kNoVertex) {
                adj[v].clear();
                continue;
            }
            std::erase_if(adj[v], [&](const ActiveEdge& e) {
                return cluster[e.to] == kNoVertex || cluster[e.to] == cluster[v];
            });
        }

        // 4. Drop one-sided entries. A joining vertex removed its edges
        // into dropped clusters from its own list only; the mirror entry
        // on the other endpoint must go too. Otherwise the next round (or
        // phase 2) can pick an edge whose stretch is already accounted
        // for in place of one that still needs a spanner path, and the
        // 2k - 1 bound breaks.
        std::unordered_set<std::uint64_t> present;
        for (VertexId v = 0; v < n; ++v) {
            for (const ActiveEdge& e : adj[v]) present.insert(directed_key(v, e.to));
        }
        for (VertexId v = 0; v < n; ++v) {
            std::erase_if(adj[v], [&](const ActiveEdge& e) {
                return !present.contains(directed_key(e.to, v));
            });
        }
    }

    // Phase 2: vertex-to-cluster joining on whatever survived.
    for (VertexId v = 0; v < n; ++v) {
        std::unordered_map<VertexId, ActiveEdge> best;
        for (const ActiveEdge& e : adj[v]) {
            const VertexId c = cluster[e.to];
            if (c == kNoVertex || (cluster[v] != kNoVertex && c == cluster[v])) continue;
            auto [it, inserted] = best.try_emplace(c, e);
            if (!inserted && e.weight < it->second.weight) it->second = e;
        }
        for (const auto& [c, e] : best) add_spanner_edge(v, e.to, e.weight);
    }

    return h;
}

}  // namespace gsp
