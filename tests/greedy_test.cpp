#include "core/greedy.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include "analysis/audit.hpp"
#include "api/candidate_source.hpp"
#include "api/session.hpp"
#include "core/greedy_engine.hpp"
#include "graph/girth.hpp"
#include "graph/graph.hpp"
#include "graph/mst.hpp"
#include "graph/traversal.hpp"
#include "core/self_optimality.hpp"
#include "reference_greedy.hpp"
#include "util/random.hpp"

namespace gsp {
namespace {

Graph random_connected_graph(std::size_t n, double extra_p, Rng& rng) {
    Graph g(n);
    for (VertexId v = 1; v < n; ++v) {
        g.add_edge(static_cast<VertexId>(rng.index(v)), v, rng.uniform(0.1, 10.0));
    }
    for (VertexId i = 0; i < n; ++i) {
        for (VertexId j = i + 1; j < n; ++j) {
            if (!g.has_edge(i, j) && rng.chance(extra_p)) {
                g.add_edge(i, j, rng.uniform(0.1, 10.0));
            }
        }
    }
    return g;
}

TEST(GreedyTest, RejectsStretchBelowOne) {
    Graph g(2);
    g.add_edge(0, 1, 1.0);
    EXPECT_THROW(greedy_spanner(g, 0.5), std::invalid_argument);
}

TEST(GreedyTest, EmptyAndTrivialGraphs) {
    EXPECT_EQ(greedy_spanner(Graph(0), 2.0).num_edges(), 0u);
    EXPECT_EQ(greedy_spanner(Graph(5), 2.0).num_edges(), 0u);
    Graph single(2);
    single.add_edge(0, 1, 3.0);
    const Graph h = greedy_spanner(single, 2.0);
    EXPECT_EQ(h.num_edges(), 1u);
}

TEST(GreedyTest, TriangleStretchDecidesChord) {
    Graph g(3);
    g.add_edge(0, 1, 1.0);
    g.add_edge(1, 2, 1.0);
    g.add_edge(0, 2, 1.5);
    // Path 0-1-2 has weight 2.0; edge (0,2) has weight 1.5.
    // t = 1.2: 2.0 > 1.8, chord kept. t = 1.5: 2.0 <= 2.25, chord dropped.
    EXPECT_EQ(greedy_spanner(g, 1.2).num_edges(), 3u);
    EXPECT_EQ(greedy_spanner(g, 1.5).num_edges(), 2u);
}

TEST(GreedyTest, HugeStretchYieldsExactlyTheMst) {
    Rng rng(42);
    const Graph g = random_connected_graph(30, 0.3, rng);
    const Graph h = greedy_spanner(g, 1e12);
    const MstResult mst = kruskal_mst(g);
    EXPECT_EQ(h.num_edges(), mst.edges.size());
    EXPECT_TRUE(same_edge_set(h, g.edge_subgraph(mst.edges)));
}

TEST(GreedyTest, StretchOneKeepsAllUniqueShortestEdges) {
    // t = 1: an edge is dropped only if an equally light path exists.
    Graph g(3);
    g.add_edge(0, 1, 1.0);
    g.add_edge(1, 2, 1.0);
    g.add_edge(0, 2, 2.0);  // exactly equals the path weight -> dropped
    const Graph h = greedy_spanner(g, 1.0);
    EXPECT_EQ(h.num_edges(), 2u);
    EXPECT_FALSE(h.has_edge(0, 2));
}

TEST(GreedyTest, ParallelEdgesSecondCopyDropped) {
    Graph g(2);
    g.add_edge(0, 1, 1.0);
    g.add_edge(0, 1, 1.0);
    g.add_edge(0, 1, 5.0);
    const Graph h = greedy_spanner(g, 1.0);
    EXPECT_EQ(h.num_edges(), 1u);
}

TEST(GreedyTest, DisconnectedInputSpansComponents) {
    Graph g(4);
    g.add_edge(0, 1, 1.0);
    g.add_edge(2, 3, 1.0);
    g.add_edge(3, 2, 4.0);  // parallel, must be dropped
    const Graph h = greedy_spanner(g, 2.0);
    EXPECT_EQ(h.num_edges(), 2u);
    EXPECT_EQ(connected_components(h), connected_components(g));
}

TEST(GreedyTest, StatsAreConsistent) {
    Rng rng(1);
    const Graph g = random_connected_graph(25, 0.4, rng);
    GreedyStats stats;
    const Graph h = greedy_spanner(g, 2.0, &stats);
    EXPECT_EQ(stats.edges_examined, g.num_edges());
    EXPECT_EQ(stats.edges_added, h.num_edges());
    // The full engine decides every candidate with at most one query, and
    // the shared-ball cache decides some with none at all.
    EXPECT_LE(stats.dijkstra_runs, g.num_edges());
    EXPECT_GT(stats.dijkstra_runs, 0u);
    EXPECT_LE(stats.cache_hits + stats.dijkstra_runs, g.num_edges());
    EXPECT_GT(stats.buckets, 0u);
    // The incremental store builds once per run; bucket boundaries are
    // free no-ops, not refreezes.
    EXPECT_EQ(stats.csr_rebuilds, 1u);
    EXPECT_GE(stats.seconds, 0.0);
}

TEST(GreedyTest, NaiveEngineConfigurationCountsOneQueryPerEdge) {
    Rng rng(1);
    const Graph g = random_connected_graph(25, 0.4, rng);
    SpannerSession session;
    BuildOptions options;
    options.stretch = 2.0;
    options.engine = EngineTuning::naive();  // all optimisations off
    GraphCandidateSource source(g);
    BuildReport report;
    const Graph h = session.build(source, options, &report);
    EXPECT_EQ(report.stats.dijkstra_runs, g.num_edges());
    EXPECT_EQ(report.stats.cache_hits, 0u);
    EXPECT_EQ(report.stats.csr_rebuilds, 1u);  // naive() runs on the CSR view too
    EXPECT_EQ(report.stats.balls_computed, 0u);
    EXPECT_TRUE(same_edge_set(h, reference_greedy(g, 2.0)));
}

// ---------------------------------------------------------------------------
// Property suite over random instances.

class GreedyPropertyTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::size_t, double, double>> {
};

TEST_P(GreedyPropertyTest, MatchesTheReference) {
    const auto [seed, n, p, t] = GetParam();
    Rng rng(seed ^ 0x3333);
    const Graph g = random_connected_graph(n, p, rng);
    const Graph h = greedy_spanner(g, t);
    const Graph want = reference_greedy(g, t);
    // Same edges in the same insertion order.
    ASSERT_EQ(h.num_edges(), want.num_edges());
    EXPECT_EQ(edge_sequence_digest(h), edge_sequence_digest(want));
}

TEST_P(GreedyPropertyTest, StretchIsRespected) {
    const auto [seed, n, p, t] = GetParam();
    Rng rng(seed);
    const Graph g = random_connected_graph(n, p, rng);
    const Graph h = greedy_spanner(g, t);
    EXPECT_LE(max_stretch_over_edges(g, h), t + 1e-9);
}

TEST_P(GreedyPropertyTest, ContainsKruskalMst) {
    const auto [seed, n, p, t] = GetParam();
    Rng rng(seed ^ 0x5555);
    const Graph g = random_connected_graph(n, p, rng);
    const Graph h = greedy_spanner(g, t);
    EXPECT_TRUE(contains_kruskal_mst(g, h));  // Observation 2
}

TEST_P(GreedyPropertyTest, SpannerIsSubgraphWithSameWeights) {
    const auto [seed, n, p, t] = GetParam();
    Rng rng(seed ^ 0xaaaa);
    const Graph g = random_connected_graph(n, p, rng);
    const Graph h = greedy_spanner(g, t);
    EXPECT_LE(h.num_edges(), g.num_edges());
    for (const Edge& e : h.edges()) {
        EXPECT_TRUE(g.has_edge(e.u, e.v));
    }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, GreedyPropertyTest,
                         ::testing::Combine(::testing::Values(3u, 7u, 19u),
                                            ::testing::Values(16u, 40u),
                                            ::testing::Values(0.15, 0.5),
                                            ::testing::Values(1.1, 2.0, 3.0, 5.0)));

// The classic girth certificate: in a unit-weight graph the greedy
// t-spanner has girth > t + 1 (any shorter cycle would have had its last
// examined edge rejected).
class GreedyGirthTest : public ::testing::TestWithParam<std::tuple<std::uint64_t, double>> {};

TEST_P(GreedyGirthTest, UnitWeightGirthExceedsStretchPlusOne) {
    const auto [seed, t] = GetParam();
    Rng rng(seed);
    Graph g(30);
    for (VertexId i = 0; i < 30; ++i) {
        for (VertexId j = i + 1; j < 30; ++j) {
            if (rng.chance(0.3)) g.add_edge(i, j, 1.0);
        }
    }
    const Graph h = greedy_spanner(g, t);
    const auto girth = unweighted_girth(h);
    if (girth != std::numeric_limits<std::uint32_t>::max()) {
        EXPECT_GT(static_cast<double>(girth), t + 1.0);
    }
}

INSTANTIATE_TEST_SUITE_P(Stretches, GreedyGirthTest,
                         ::testing::Combine(::testing::Values(2u, 6u, 12u),
                                            ::testing::Values(1.5, 2.0, 3.0, 4.0)));

}  // namespace
}  // namespace gsp
