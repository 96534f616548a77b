#include "graph/dijkstra.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include "graph/graph.hpp"
#include "graph/incremental_csr.hpp"
#include "graph/shortest_paths.hpp"
#include "util/random.hpp"

namespace gsp {
namespace {

Graph random_graph(std::size_t n, double p, Rng& rng) {
    Graph g(n);
    for (VertexId i = 0; i < n; ++i) {
        for (VertexId j = i + 1; j < n; ++j) {
            if (rng.chance(p)) g.add_edge(i, j, rng.uniform(0.1, 10.0));
        }
    }
    return g;
}

TEST(DijkstraTest, PathGraphDistances) {
    Graph g(4);
    g.add_edge(0, 1, 1.0);
    g.add_edge(1, 2, 2.0);
    g.add_edge(2, 3, 4.0);
    EXPECT_DOUBLE_EQ(dijkstra_distance(g, 0, 3), 7.0);
    EXPECT_DOUBLE_EQ(dijkstra_distance(g, 3, 0), 7.0);
    EXPECT_DOUBLE_EQ(dijkstra_distance(g, 1, 1), 0.0);
}

TEST(DijkstraTest, PicksCheaperOfTwoRoutes) {
    Graph g(3);
    g.add_edge(0, 1, 5.0);
    g.add_edge(0, 2, 1.0);
    g.add_edge(2, 1, 1.0);
    EXPECT_DOUBLE_EQ(dijkstra_distance(g, 0, 1), 2.0);
}

TEST(DijkstraTest, UnreachableIsInfinite) {
    Graph g(4);
    g.add_edge(0, 1, 1.0);
    g.add_edge(2, 3, 1.0);
    EXPECT_EQ(dijkstra_distance(g, 0, 3), kInfiniteWeight);
}

TEST(DijkstraTest, LimitCutsOffSearch) {
    Graph g(4);
    g.add_edge(0, 1, 1.0);
    g.add_edge(1, 2, 1.0);
    g.add_edge(2, 3, 1.0);
    EXPECT_DOUBLE_EQ(dijkstra_distance(g, 0, 3, 3.0), 3.0);   // exactly at limit
    EXPECT_EQ(dijkstra_distance(g, 0, 3, 2.999), kInfiniteWeight);
}

TEST(DijkstraTest, AllDistancesMatchSingleQueries) {
    Rng rng(7);
    const Graph g = random_graph(40, 0.2, rng);
    DijkstraWorkspace ws(g.num_vertices());
    const auto dist = dijkstra_all(g, 0);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
        EXPECT_DOUBLE_EQ(dist[v], ws.distance(g, 0, v, kInfiniteWeight)) << "v=" << v;
    }
}

TEST(DijkstraTest, PredecessorsFormShortestPathTree) {
    Rng rng(11);
    const Graph g = random_graph(30, 0.3, rng);
    DijkstraWorkspace ws(g.num_vertices());
    const auto& dist = ws.all_distances(g, 0, kInfiniteWeight);
    const auto& pred = ws.predecessors();
    for (VertexId v = 1; v < g.num_vertices(); ++v) {
        if (dist[v] == kInfiniteWeight) {
            EXPECT_EQ(pred[v], kNoVertex);
            continue;
        }
        ASSERT_NE(pred[v], kNoVertex);
        // Tree edge consistency: dist[v] = dist[pred[v]] + w(pred[v], v).
        const EdgeId eid = ws.predecessor_edges()[v];
        ASSERT_NE(eid, kNoEdge);
        const Edge& e = g.edge(eid);
        EXPECT_TRUE((e.u == pred[v] && e.v == v) || (e.v == pred[v] && e.u == v));
        EXPECT_NEAR(dist[v], dist[pred[v]] + e.weight, 1e-12);
    }
}

TEST(DijkstraTest, ShortestPathEndpointsAndWeight) {
    Graph g(5);
    g.add_edge(0, 1, 1.0);
    g.add_edge(1, 2, 1.0);
    g.add_edge(0, 2, 5.0);
    g.add_edge(2, 3, 1.0);
    const auto path = shortest_path(g, 0, 3);
    ASSERT_EQ(path.size(), 4u);
    EXPECT_EQ(path.front(), 0u);
    EXPECT_EQ(path.back(), 3u);
    EXPECT_EQ(path[1], 1u);
    EXPECT_EQ(path[2], 2u);
    EXPECT_TRUE(shortest_path(g, 0, 4).empty());
}

TEST(DijkstraTest, BallContainsExactlyTheLimitedNeighborhood) {
    Graph g(5);
    g.add_edge(0, 1, 1.0);
    g.add_edge(1, 2, 1.0);
    g.add_edge(2, 3, 1.0);
    g.add_edge(3, 4, 1.0);
    DijkstraWorkspace ws(5);
    const auto& ball = ws.ball(g, 0, 2.0);
    ASSERT_EQ(ball.size(), 3u);  // vertices 0, 1, 2
    EXPECT_EQ(ball[0].first, 0u);
    EXPECT_DOUBLE_EQ(ball[0].second, 0.0);
    EXPECT_EQ(ball[1].first, 1u);
    EXPECT_DOUBLE_EQ(ball[1].second, 1.0);
    EXPECT_EQ(ball[2].first, 2u);
    EXPECT_DOUBLE_EQ(ball[2].second, 2.0);
}

TEST(DijkstraTest, BallDistancesAreExact) {
    Rng rng(3);
    const Graph g = random_graph(50, 0.15, rng);
    DijkstraWorkspace ws(g.num_vertices());
    const auto reference = dijkstra_all(g, 5);
    const auto& ball = ws.ball(g, 5, 8.0);
    for (const auto& [v, d] : ball) {
        EXPECT_DOUBLE_EQ(d, reference[v]);
        EXPECT_LE(d, 8.0);
    }
}

TEST(DijkstraTest, WorkspaceReuseAcrossGrowingGraph) {
    // The greedy algorithm's pattern: query, insert an edge, query again.
    Graph g(3);
    DijkstraWorkspace ws(3);
    EXPECT_EQ(ws.distance(g, 0, 2, kInfiniteWeight), kInfiniteWeight);
    g.add_edge(0, 1, 1.0);
    g.add_edge(1, 2, 1.0);
    EXPECT_DOUBLE_EQ(ws.distance(g, 0, 2, kInfiniteWeight), 2.0);
    g.add_edge(0, 2, 0.5);
    EXPECT_DOUBLE_EQ(ws.distance(g, 0, 2, kInfiniteWeight), 0.5);
}

TEST(DijkstraTest, OutOfRangeThrows) {
    Graph g(2);
    g.add_edge(0, 1, 1.0);
    DijkstraWorkspace ws(2);
    EXPECT_THROW(ws.distance(g, 0, 9, kInfiniteWeight), std::out_of_range);
}

// ---------------------------------------------------------------------------
// Bidirectional bounded search (the greedy engine's point-query kernel).

TEST(BidirectionalTest, PathGraphDistancesAndLimits) {
    Graph g(4);
    g.add_edge(0, 1, 1.0);
    g.add_edge(1, 2, 1.0);
    g.add_edge(2, 3, 1.0);
    DijkstraWorkspace ws(4);
    EXPECT_DOUBLE_EQ(ws.distance_bidirectional(g, 0, 3, kInfiniteWeight), 3.0);
    EXPECT_DOUBLE_EQ(ws.distance_bidirectional(g, 1, 1, 5.0), 0.0);
    // Inclusive limit semantics, like the one-sided search.
    EXPECT_DOUBLE_EQ(ws.distance_bidirectional(g, 0, 3, 3.0), 3.0);
    EXPECT_EQ(ws.distance_bidirectional(g, 0, 3, 2.999), kInfiniteWeight);
}

TEST(BidirectionalTest, UnreachableAndOutOfRange) {
    Graph g(4);
    g.add_edge(0, 1, 1.0);
    g.add_edge(2, 3, 1.0);
    DijkstraWorkspace ws(4);
    EXPECT_EQ(ws.distance_bidirectional(g, 0, 3, kInfiniteWeight), kInfiniteWeight);
    EXPECT_THROW(ws.distance_bidirectional(g, 0, 9, 1.0), std::out_of_range);
}

TEST(BidirectionalTest, MeetEventsAccumulate) {
    Graph g(3);
    g.add_edge(0, 1, 1.0);
    g.add_edge(1, 2, 1.0);
    DijkstraWorkspace ws(3);
    EXPECT_EQ(ws.meet_events(), 0u);
    EXPECT_DOUBLE_EQ(ws.distance_bidirectional(g, 0, 2, kInfiniteWeight), 2.0);
    EXPECT_GT(ws.meet_events(), 0u);
}

class BidirectionalPropertyTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::size_t, double>> {};

TEST_P(BidirectionalPropertyTest, AgreesWithOneSidedSearch) {
    const auto [seed, n, p] = GetParam();
    Rng rng(seed ^ 0xb1d1);
    const Graph g = random_graph(n, p, rng);
    DijkstraWorkspace one(n);
    DijkstraWorkspace two(n);
    for (VertexId s = 0; s < std::min<std::size_t>(n, 6); ++s) {
        for (VertexId t = 0; t < n; ++t) {
            for (const Weight limit : {3.0, 8.0, kInfiniteWeight}) {
                const Weight d1 = one.distance(g, s, t, limit);
                const Weight d2 = two.distance_bidirectional(g, s, t, limit);
                if (d1 == kInfiniteWeight) {
                    EXPECT_EQ(d2, kInfiniteWeight) << s << "->" << t;
                } else {
                    EXPECT_NEAR(d2, d1, 1e-9) << s << "->" << t << " limit " << limit;
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, BidirectionalPropertyTest,
                         ::testing::Combine(::testing::Values(2u, 9u, 31u),
                                            ::testing::Values(20u, 45u),
                                            ::testing::Values(0.08, 0.3)));

// The same kernel on a weight-sorted view (IncrementalCsrView), where the
// scan of a run also stops at the first neighbor too heavy to matter.

/// Exact distances from `root` on any view: a drained one-sided ball.
template <class View>
std::vector<Weight> exact_from(const View& view, VertexId root) {
    DijkstraWorkspace ws(view.num_vertices());
    (void)ws.ball(view, root, kInfiniteWeight);
    std::vector<Weight> d(view.num_vertices());
    for (VertexId x = 0; x < d.size(); ++x) d[x] = ws.settled_distance(x);
    return d;
}

/// distance_bidirectional on `view` against one-sided `distance` on `ref`
/// (the same edges in any order, exact-sum weights), for every target of
/// the first `sources` sources, at limits {d, nextafter(d, -inf), 3, 8,
/// +inf}. Every finite harvested bound must be the length of a real path:
/// at least the exact distance from its root.
template <class Ref, class View>
void expect_bidirectional_matches(const Ref& ref, const View& view, std::size_t sources,
                                  const std::string& label) {
    const std::size_t n = ref.num_vertices();
    DijkstraWorkspace one(n);
    DijkstraWorkspace two(n);
    for (VertexId s = 0; s < std::min(n, sources); ++s) {
        const std::vector<Weight> from_s = exact_from(ref, s);
        for (VertexId t = 0; t < n; ++t) {
            const std::vector<Weight> from_t = exact_from(ref, t);
            const Weight d = from_s[t];
            std::vector<Weight> limits = {3.0, 8.0, kInfiniteWeight};
            if (d != kInfiniteWeight) {
                limits.push_back(d);
                limits.push_back(std::nextafter(d, -kInfiniteWeight));
            }
            for (const Weight limit : limits) {
                const std::string at = label + " " + std::to_string(s) + "->" +
                                       std::to_string(t) + " limit " + std::to_string(limit);
                const Weight want = one.distance(ref, s, t, limit);
                const Weight got = two.distance_bidirectional(view, s, t, limit);
                EXPECT_EQ(got, want) << at;
                if (s == t) continue;  // answered before any search: no labels
                for (VertexId x = 0; x < n; ++x) {
                    const Weight fb = two.last_forward_bound(x);
                    const Weight bb = two.last_backward_bound(x);
                    if (fb != kInfiniteWeight) {
                        EXPECT_GE(fb, from_s[x]) << at << " x=" << x;
                    }
                    if (bb != kInfiniteWeight) {
                        EXPECT_GE(bb, from_t[x]) << at << " x=" << x;
                    }
                }
            }
        }
    }
}

/// Weights in (0, 5] on a 1/8 grid: every path sum below is exact in
/// floating point, so the two kernels must agree exactly, even at a limit
/// of d or one ulp below it (random reals would leave last-ulp
/// reassociation differences there, see distance_bidirectional).
Weight dyadic_weight(Rng& rng) { return static_cast<Weight>(1 + rng.index(40)) / 8.0; }

class SortedViewBidirectionalTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SortedViewBidirectionalTest, AgreesWithOneSidedSearchOnTheGraph) {
    // Refreshed from a Graph whose adjacency is out of weight order, then
    // grown out of order too (parallel edges included); the last vertex
    // stays isolated.
    Rng rng(GetParam() ^ 0x5a17);
    const std::size_t n = 36;
    Graph g(n + 1);
    for (VertexId i = 0; i < n; ++i) {
        for (VertexId j = i + 1; j < n; ++j) {
            if (rng.chance(0.12)) g.add_edge(i, j, dyadic_weight(rng));
        }
    }
    IncrementalCsrView view;
    ASSERT_TRUE(view.refresh(g));
    for (int k = 0; k < 40; ++k) {
        auto u = static_cast<VertexId>(rng.index(n));
        auto v = static_cast<VertexId>(rng.index(n));
        if (u == v) v = (v + 1) % static_cast<VertexId>(n);
        const EdgeId id = g.add_edge(u, v, dyadic_weight(rng));
        view.add_edge(u, v, g.edge(id).weight, id);
    }
    for (int k = 0; k < 10; ++k) {  // parallel copies of existing edges
        const Edge e = g.edge(static_cast<EdgeId>(rng.index(g.num_edges())));
        const EdgeId id = g.add_edge(e.u, e.v, dyadic_weight(rng));
        view.add_edge(e.u, e.v, g.edge(id).weight, id);
    }
    // Every source, so the isolated vertex is a source as well as a target.
    expect_bidirectional_matches(g, view, n + 1, "random");
}

INSTANTIATE_TEST_SUITE_P(Seeds, SortedViewBidirectionalTest,
                         ::testing::Values(3u, 14u, 159u));

TEST(SortedViewBidirectionalTest, RootsJoinedByAnEdgeHeavierThanTheirLightest) {
    // s = 0 and t = 1 share an edge of weight 2; each root's lightest edge
    // weighs 1. At a limit in [2, 3) the direct edge is the only path
    // within the limit, and the cutoff must not skip it from either side.
    Graph g(5);
    g.add_edge(0, 1, 2.0);
    g.add_edge(0, 2, 1.0);
    g.add_edge(1, 3, 1.0);
    g.add_edge(2, 4, 1.5);
    g.add_edge(3, 4, 1.5);
    IncrementalCsrView view;
    ASSERT_TRUE(view.refresh(g));
    DijkstraWorkspace ws(5);
    for (const Weight limit : {2.0, 2.5, std::nextafter(3.0, 0.0)}) {
        EXPECT_EQ(ws.distance_bidirectional(view, 0, 1, limit), 2.0) << limit;
        EXPECT_EQ(ws.distance_bidirectional(view, 1, 0, limit), 2.0) << limit;
        EXPECT_EQ(ws.distance_bidirectional(g, 0, 1, limit), 2.0) << limit;
    }
    EXPECT_EQ(ws.distance_bidirectional(view, 0, 1, std::nextafter(2.0, 0.0)),
              kInfiniteWeight);
    expect_bidirectional_matches(g, view, 5, "adjacent roots");
}

TEST(SortedViewBidirectionalTest, ZeroWeightEdges) {
    // Graph rejects zero weights, so they are mirrored into the view only;
    // the reference is the one-sided search on the same view.
    Rng rng(2718);
    const std::size_t n = 30;
    Graph g(n);
    for (VertexId i = 0; i < n; ++i) {
        for (VertexId j = i + 1; j < n; ++j) {
            if (rng.chance(0.1)) g.add_edge(i, j, dyadic_weight(rng));
        }
    }
    IncrementalCsrView view;
    ASSERT_TRUE(view.refresh(g));
    for (int k = 0; k < 12; ++k) {
        auto u = static_cast<VertexId>(rng.index(n));
        auto v = static_cast<VertexId>(rng.index(n));
        if (u == v) v = (v + 1) % static_cast<VertexId>(n);
        view.add_edge(u, v, 0.0, static_cast<EdgeId>(g.num_edges() + k));
    }
    expect_bidirectional_matches(view, view, n, "zero weights");
}

// Property suite: Dijkstra agrees with Bellman-Ford and Floyd-Warshall on
// random graphs of varied density.
class DijkstraPropertyTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::size_t, double>> {};

TEST_P(DijkstraPropertyTest, AgreesWithReferences) {
    const auto [seed, n, p] = GetParam();
    Rng rng(seed);
    const Graph g = random_graph(n, p, rng);
    const auto fw = floyd_warshall(g);
    for (VertexId s = 0; s < std::min<std::size_t>(n, 8); ++s) {
        const auto dd = dijkstra_all(g, s);
        const auto bf = bellman_ford(g, s);
        for (VertexId v = 0; v < n; ++v) {
            if (fw[s][v] == kInfiniteWeight) {
                EXPECT_EQ(dd[v], kInfiniteWeight);
                EXPECT_EQ(bf[v], kInfiniteWeight);
            } else {
                EXPECT_NEAR(dd[v], fw[s][v], 1e-9);
                EXPECT_NEAR(bf[v], fw[s][v], 1e-9);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, DijkstraPropertyTest,
                         ::testing::Combine(::testing::Values(1u, 2u, 3u, 5u, 8u),
                                            ::testing::Values(12u, 25u, 40u),
                                            ::testing::Values(0.08, 0.25, 0.6)));

/// EXPECT_NEAR chokes on inf - inf; unreachable-vs-unreachable is a match.
void expect_same_weight(Weight got, Weight want, int round) {
    if (want == kInfiniteWeight || got == kInfiniteWeight) {
        EXPECT_EQ(got, want) << "round " << round;
    } else {
        EXPECT_NEAR(got, want, 1e-9) << "round " << round;
    }
}

TEST(DijkstraWorkspaceTest, InterleavedQueryKindsNeverSeeStaleState) {
    // Regression guard for the consolidated begin_query reset: a pooled
    // per-thread workspace alternates freely between ball(), one-sided and
    // bidirectional point queries; each query kind used to clear only its
    // own subset of the scratch. Every interleaved result must match a
    // fresh single-purpose workspace.
    Rng rng(77);
    const Graph g = random_graph(40, 0.2, rng);
    DijkstraWorkspace shared(g.num_vertices());
    for (int round = 0; round < 25; ++round) {
        const auto s = static_cast<VertexId>(rng.index(g.num_vertices()));
        const auto t = static_cast<VertexId>(rng.index(g.num_vertices()));
        const Weight limit = rng.uniform(0.5, 25.0);
        const int kind = round % 3;
        if (kind == 0) {
            const Weight got = shared.distance_bidirectional(g, s, t, limit);
            DijkstraWorkspace fresh(g.num_vertices());
            expect_same_weight(got, fresh.distance_bidirectional(g, s, t, limit), round);
        } else if (kind == 1) {
            const auto& ball = shared.ball(g, s, limit);
            DijkstraWorkspace fresh(g.num_vertices());
            const auto fresh_ball = fresh.ball(g, s, limit);
            ASSERT_EQ(ball.size(), fresh_ball.size()) << "round " << round;
            for (std::size_t i = 0; i < ball.size(); ++i) {
                EXPECT_EQ(ball[i].first, fresh_ball[i].first);
                EXPECT_NEAR(ball[i].second, fresh_ball[i].second, 1e-12);
            }
        } else {
            const Weight got = shared.distance(g, s, t, limit);
            DijkstraWorkspace fresh(g.num_vertices());
            expect_same_weight(got, fresh.distance(g, s, t, limit), round);
        }
    }
}

TEST(DijkstraWorkspacePoolTest, WorkspacesAreStableAndIndependent) {
    Rng rng(13);
    const Graph g = random_graph(30, 0.25, rng);
    DijkstraWorkspacePool pool;
    pool.configure(3, g.num_vertices());
    ASSERT_EQ(pool.size(), 3u);
    DijkstraWorkspace* first = &pool.at(0);
    // Growing the pool must not invalidate existing workspaces.
    pool.configure(5, g.num_vertices());
    ASSERT_EQ(pool.size(), 5u);
    EXPECT_EQ(&pool.at(0), first);
    // Each workspace answers independently.
    const Weight a = pool.at(1).distance(g, 0, 5, kInfiniteWeight);
    const Weight b = pool.at(4).distance(g, 0, 5, kInfiniteWeight);
    DijkstraWorkspace fresh(g.num_vertices());
    EXPECT_NEAR(a, fresh.distance(g, 0, 5, kInfiniteWeight), 1e-12);
    EXPECT_NEAR(b, a, 1e-12);
}

}  // namespace
}  // namespace gsp
