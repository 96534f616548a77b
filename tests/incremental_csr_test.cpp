// IncrementalCsrView: the gap-buffered incremental adjacency every greedy
// engine probe runs on. The contract is exactness under arbitrary
// insert/merge sequences -- after any interleaving of refresh() and
// add_edge() mirroring a growing Graph, the view must enumerate exactly
// the Graph's own adjacency, across relocations and arena compactions, and
// Dijkstra answers must agree.
#include "graph/incremental_csr.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "gen/graphs.hpp"
#include "graph/dijkstra.hpp"
#include "graph/graph.hpp"
#include "util/random.hpp"

namespace gsp {
namespace {

/// Canonical (to, weight, edge-id) multiset of a vertex's neighbors.
template <class View>
std::vector<std::tuple<VertexId, Weight, EdgeId>> adjacency_of(const View& v,
                                                               VertexId u) {
    std::vector<std::tuple<VertexId, Weight, EdgeId>> out;
    for (const HalfEdge& h : v.neighbors(u)) {
        out.emplace_back(h.to, h.weight, h.edge);
    }
    std::sort(out.begin(), out.end());
    return out;
}

/// The view must describe the same multigraph as g itself.
void expect_matches_graph(const IncrementalCsrView& view, const Graph& g,
                          const std::string& label) {
    ASSERT_EQ(view.num_vertices(), g.num_vertices()) << label;
    ASSERT_EQ(view.num_half_edges(), 2 * g.num_edges()) << label;
    for (VertexId u = 0; u < g.num_vertices(); ++u) {
        EXPECT_EQ(adjacency_of(view, u), adjacency_of(g, u)) << label << " vertex " << u;
    }
}

/// The issue's instance families: Erdos-Renyi, grid, Euclidean.
std::vector<std::pair<std::string, Graph>> instance_family(std::uint64_t seed) {
    Rng rng(seed);
    std::vector<std::pair<std::string, Graph>> out;
    out.emplace_back("erdos_renyi", erdos_renyi(50, 0.15, {.lo = 0.5, .hi = 3.0}, rng));
    out.emplace_back("grid", grid_graph(7, 8, {.lo = 1.0, .hi = 2.0}, rng));
    out.emplace_back("euclidean", random_geometric(60, 0.3, rng));
    return out;
}

TEST(IncrementalCsrTest, RefreshMatchesGraph) {
    for (const auto& [name, g] : instance_family(5)) {
        IncrementalCsrView view;
        EXPECT_TRUE(view.refresh(g));  // first sync is a full build
        expect_matches_graph(view, g, name);
        EXPECT_EQ(view.rebuilds(), 1u);
        // Nothing changed: the explicit no-op fast path.
        EXPECT_FALSE(view.refresh(g));
        EXPECT_EQ(view.rebuilds(), 1u);
    }
}

TEST(IncrementalCsrTest, RandomizedInsertMergeEquivalence) {
    // Arbitrary insert/refresh sequences over every generator family must
    // keep the view identical to the Graph's adjacency at every
    // checkpoint, across gap exhaustion (relocations) and
    // merge-on-threshold compactions.
    for (const std::uint64_t seed : {3u, 17u, 101u}) {
        for (auto& [name, g] : instance_family(seed)) {
            Rng rng(seed * 977 + 13);
            IncrementalCsrView view;
            ASSERT_TRUE(view.refresh(g));
            const std::size_t n = g.num_vertices();
            for (int round = 0; round < 6; ++round) {
                // A burst of random insertions mirrored into the view.
                const std::size_t burst = rng.index(40) + 10;
                for (std::size_t k = 0; k < burst; ++k) {
                    auto u = static_cast<VertexId>(rng.index(n));
                    auto v = static_cast<VertexId>(rng.index(n));
                    if (u == v) v = (v + 1) % static_cast<VertexId>(n);
                    const Weight w = rng.uniform(0.1, 3.0);
                    const EdgeId id = g.add_edge(u, v, w);
                    view.add_edge(u, v, w, id);
                }
                expect_matches_graph(view, g, name + " round " +
                                                     std::to_string(round));
                // Interleave no-op refreshes: must never rebuild (the
                // mirror is exact) and must never corrupt the layout.
                EXPECT_FALSE(view.refresh(g)) << name;
            }
            // Heavy same-vertex appends force relocations (gap exhaustion)
            // and eventually a compaction.
            const auto hub = static_cast<VertexId>(rng.index(n));
            for (int k = 0; k < 200; ++k) {
                const auto v = static_cast<VertexId>(rng.index(n));
                if (v == hub) continue;
                const Weight w = rng.uniform(0.1, 1.0);
                const EdgeId id = g.add_edge(hub, v, w);
                view.add_edge(hub, v, w, id);
            }
            EXPECT_GT(view.relocations(), 0u) << name;
            expect_matches_graph(view, g, name + " hub-heavy");
        }
    }
}

TEST(IncrementalCsrTest, CompactionPreservesAdjacency) {
    // Drive the arena into repeated relocations until merge-on-threshold
    // fires, then verify exactness straight after.
    Graph g(16);
    IncrementalCsrView view;
    ASSERT_TRUE(view.refresh(g));
    Rng rng(99);
    bool compacted = false;
    for (int k = 0; k < 3000 && !compacted; ++k) {
        const auto u = static_cast<VertexId>(rng.index(16));
        auto v = static_cast<VertexId>(rng.index(16));
        if (u == v) v = (v + 1) % 16;
        const EdgeId id = g.add_edge(u, v, 1.0 + 0.001 * k);
        view.add_edge(u, v, g.edge(id).weight, id);
        compacted = view.compactions() > 0;
    }
    EXPECT_TRUE(compacted) << "threshold never fired after 3000 insertions";
    expect_matches_graph(view, g, "post-compaction");
}

TEST(IncrementalCsrTest, RunsStaySortedByWeight) {
    // The kWeightSortedRuns contract: after a refresh from a graph whose
    // adjacency is out of weight order, out-of-order inserts, relocations
    // and a compaction, every run is nondecreasing in weight and still a
    // permutation of the graph's adjacency of that vertex.
    static_assert(IncrementalCsrView::kWeightSortedRuns);
    Rng rng(4242);
    const std::size_t n = 24;
    Graph g(n);
    for (VertexId u = 0; u < n; ++u) {
        for (VertexId v = u + 1; v < n; ++v) {
            if (rng.chance(0.3)) g.add_edge(u, v, rng.uniform(0.1, 3.0));
        }
    }
    IncrementalCsrView view;
    ASSERT_TRUE(view.refresh(g));
    const auto expect_sorted_permutation = [&](const std::string& label) {
        for (VertexId v = 0; v < n; ++v) {
            const auto run = view.neighbors(v);
            EXPECT_TRUE(std::is_sorted(run.begin(), run.end(),
                                       [](const HalfEdge& a, const HalfEdge& b) {
                                           return a.weight < b.weight;
                                       }))
                << label << " vertex " << v;
            EXPECT_EQ(adjacency_of(view, v), adjacency_of(g, v)) << label << " vertex " << v;
        }
    };
    expect_sorted_permutation("refresh");
    // Inserts in random weight order, concentrated on a few hubs so runs
    // exhaust their gaps and relocate, until a compaction fires.
    for (int k = 0; k < 5000 && view.compactions() == 0; ++k) {
        const auto u = static_cast<VertexId>(rng.index(4));
        auto v = static_cast<VertexId>(rng.index(n));
        if (u == v) v = (v + 1) % static_cast<VertexId>(n);
        const EdgeId id = g.add_edge(u, v, rng.uniform(0.1, 3.0));
        view.add_edge(u, v, g.edge(id).weight, id);
    }
    EXPECT_GT(view.relocations(), 0u);
    ASSERT_GT(view.compactions(), 0u);
    expect_sorted_permutation("after compaction");
    for (int k = 0; k < 60; ++k) {  // equal weights, and lighter than any run entry
        const auto u = static_cast<VertexId>(rng.index(n));
        auto v = static_cast<VertexId>(rng.index(n));
        if (u == v) v = (v + 1) % static_cast<VertexId>(n);
        const EdgeId id = g.add_edge(u, v, k % 2 == 0 ? 1.0 : 0.01);
        view.add_edge(u, v, g.edge(id).weight, id);
    }
    expect_sorted_permutation("after ties");
}

TEST(IncrementalCsrTest, DijkstraAgreesWithGraph) {
    Rng rng(11);
    Graph g = erdos_renyi(50, 0.12, {.lo = 0.5, .hi = 3.0}, rng);
    IncrementalCsrView view;
    ASSERT_TRUE(view.refresh(g));
    for (int i = 0; i < 30; ++i) {
        const auto u = static_cast<VertexId>(rng.index(50));
        const auto v = static_cast<VertexId>(rng.index(50));
        if (u == v) continue;
        const EdgeId id = g.add_edge(u, v, rng.uniform(0.1, 1.0));
        view.add_edge(u, v, g.edge(id).weight, id);
    }
    DijkstraWorkspace ws_graph(50);
    DijkstraWorkspace ws_view(50);
    for (VertexId s = 0; s < 10; ++s) {
        for (VertexId t = 10; t < 20; ++t) {
            for (const Weight limit : {2.0, 5.0, kInfiniteWeight}) {
                EXPECT_DOUBLE_EQ(ws_view.distance(view, s, t, limit),
                                 ws_graph.distance(g, s, t, limit))
                    << s << "->" << t << " limit " << limit;
                EXPECT_DOUBLE_EQ(
                    ws_view.distance_bidirectional(view, s, t, limit),
                    ws_graph.distance_bidirectional(g, s, t, limit))
                    << s << "->" << t << " limit " << limit;
            }
        }
    }
}

TEST(IncrementalCsrTest, RebuildsOnShapeMismatch) {
    // Engine reuse across runs: a different (smaller/empty) graph with the
    // same object must trigger a full rebuild, not a stale no-op.
    Rng rng(7);
    Graph g1 = erdos_renyi(30, 0.3, {.lo = 1.0, .hi = 2.0}, rng);
    IncrementalCsrView view;
    ASSERT_TRUE(view.refresh(g1));
    Graph g2(30);  // same n, zero edges
    EXPECT_TRUE(view.refresh(g2));
    expect_matches_graph(view, g2, "fresh empty run");
    Graph g3(12);  // smaller vertex set
    EXPECT_TRUE(view.refresh(g3));
    EXPECT_EQ(view.num_vertices(), 12u);
}

TEST(IncrementalCsrTest, RebuildsForDifferentGraphWithEqualCounts) {
    // The stale-mirror trap: a *different* graph whose vertex and edge
    // counts coincide must not be served the old adjacency. The last-edge
    // fingerprint catches it.
    Graph g1(5);
    g1.add_edge(0, 1, 1.0);
    g1.add_edge(2, 3, 2.0);
    IncrementalCsrView view;
    ASSERT_TRUE(view.refresh(g1));
    Graph g2(5);
    g2.add_edge(0, 1, 1.0);
    g2.add_edge(2, 4, 5.0);  // same n, same m, different newest edge
    EXPECT_TRUE(view.refresh(g2));
    expect_matches_graph(view, g2, "equal-count different graph");
}

}  // namespace
}  // namespace gsp
