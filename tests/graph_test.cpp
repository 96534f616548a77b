#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "graph/types.hpp"

namespace gsp {
namespace {

TEST(GraphTest, EmptyGraph) {
    Graph g;
    EXPECT_EQ(g.num_vertices(), 0u);
    EXPECT_EQ(g.num_edges(), 0u);
    EXPECT_TRUE(g.empty());
    EXPECT_EQ(g.max_degree(), 0u);
    EXPECT_EQ(g.total_weight(), 0.0);
}

TEST(GraphTest, AddEdgeBasics) {
    Graph g(4);
    const EdgeId e0 = g.add_edge(0, 1, 2.5);
    const EdgeId e1 = g.add_edge(1, 2, 1.0);
    EXPECT_EQ(e0, 0u);
    EXPECT_EQ(e1, 1u);
    EXPECT_EQ(g.num_edges(), 2u);
    EXPECT_DOUBLE_EQ(g.total_weight(), 3.5);
    EXPECT_TRUE(g.has_edge(0, 1));
    EXPECT_TRUE(g.has_edge(1, 0));
    EXPECT_TRUE(g.has_edge(2, 1));
    EXPECT_FALSE(g.has_edge(0, 2));
    EXPECT_EQ(g.degree(1), 2u);
    EXPECT_EQ(g.degree(3), 0u);
    EXPECT_EQ(g.max_degree(), 2u);
}

TEST(GraphTest, AdjacencyMirrorsEdges) {
    Graph g(3);
    g.add_edge(0, 2, 4.0);
    ASSERT_EQ(g.neighbors(0).size(), 1u);
    ASSERT_EQ(g.neighbors(2).size(), 1u);
    EXPECT_EQ(g.neighbors(0)[0].to, 2u);
    EXPECT_EQ(g.neighbors(0)[0].weight, 4.0);
    EXPECT_EQ(g.neighbors(0)[0].edge, 0u);
    EXPECT_EQ(g.neighbors(2)[0].to, 0u);
}

TEST(GraphTest, RejectsSelfLoop) {
    Graph g(3);
    EXPECT_THROW(g.add_edge(1, 1, 1.0), std::invalid_argument);
}

TEST(GraphTest, RejectsOutOfRangeEndpoint) {
    Graph g(3);
    EXPECT_THROW(g.add_edge(0, 3, 1.0), std::out_of_range);
    EXPECT_THROW(g.add_edge(7, 0, 1.0), std::out_of_range);
}

TEST(GraphTest, RejectsBadWeights) {
    Graph g(3);
    EXPECT_THROW(g.add_edge(0, 1, 0.0), std::invalid_argument);
    EXPECT_THROW(g.add_edge(0, 1, -2.0), std::invalid_argument);
    EXPECT_THROW(g.add_edge(0, 1, std::numeric_limits<double>::infinity()),
                 std::invalid_argument);
    EXPECT_THROW(g.add_edge(0, 1, std::numeric_limits<double>::quiet_NaN()),
                 std::invalid_argument);
}

TEST(GraphTest, AddEdgeUniqueRejectsDuplicates) {
    Graph g(3);
    g.add_edge_unique(0, 1, 1.0);
    EXPECT_THROW(g.add_edge_unique(1, 0, 2.0), std::invalid_argument);
    // Plain add_edge allows parallels (some constructions need them).
    EXPECT_NO_THROW(g.add_edge(1, 0, 2.0));
    EXPECT_EQ(g.num_edges(), 2u);
}

TEST(GraphTest, ConstructFromEdgeList) {
    const std::vector<Edge> edges = {{0, 1, 1.0}, {1, 2, 2.0}, {2, 3, 3.0}};
    Graph g(4, edges);
    EXPECT_EQ(g.num_edges(), 3u);
    EXPECT_DOUBLE_EQ(g.total_weight(), 6.0);
}

TEST(GraphTest, EdgeSubgraph) {
    Graph g(4);
    g.add_edge(0, 1, 1.0);
    g.add_edge(1, 2, 2.0);
    g.add_edge(2, 3, 3.0);
    const std::vector<EdgeId> keep = {0, 2};
    const Graph sub = g.edge_subgraph(keep);
    EXPECT_EQ(sub.num_vertices(), 4u);
    EXPECT_EQ(sub.num_edges(), 2u);
    EXPECT_TRUE(sub.has_edge(0, 1));
    EXPECT_FALSE(sub.has_edge(1, 2));
    EXPECT_TRUE(sub.has_edge(2, 3));
}

TEST(GraphTest, SameEdgeSetIsOrderInsensitive) {
    Graph a(3);
    a.add_edge(0, 1, 1.0);
    a.add_edge(1, 2, 2.0);
    Graph b(3);
    b.add_edge(2, 1, 2.0);  // reversed orientation, different insertion order
    b.add_edge(1, 0, 1.0);
    EXPECT_TRUE(same_edge_set(a, b));
}

TEST(GraphTest, SameEdgeSetDetectsWeightDifference) {
    Graph a(2);
    a.add_edge(0, 1, 1.0);
    Graph b(2);
    b.add_edge(0, 1, 1.5);
    EXPECT_FALSE(same_edge_set(a, b));
}

TEST(GraphTest, SameEdgeSetDetectsSizeMismatch) {
    Graph a(2);
    a.add_edge(0, 1, 1.0);
    Graph b(3);
    b.add_edge(0, 1, 1.0);
    EXPECT_FALSE(same_edge_set(a, b));  // vertex counts differ
}

TEST(GraphTest, SummaryMentionsCounts) {
    Graph g(2);
    g.add_edge(0, 1, 1.0);
    const std::string s = g.summary();
    EXPECT_NE(s.find("n=2"), std::string::npos);
    EXPECT_NE(s.find("m=1"), std::string::npos);
}

TEST(GraphTest, EdgeSequenceDigestTracksEveryEdgeField) {
    const std::vector<Edge> edges = {{0, 1, 1.0}, {1, 2, 2.5}, {2, 3, 0.75}};
    const std::uint64_t digest = edge_sequence_digest(Graph(4, edges));
    EXPECT_EQ(digest, edge_sequence_digest(Graph(4, edges)));
    EXPECT_NE(digest, edge_sequence_digest(Graph(4)));

    std::vector<Edge> heavier = edges;
    heavier[1].weight = std::nextafter(2.5, 3.0);  // one ulp
    EXPECT_NE(digest, edge_sequence_digest(Graph(4, heavier)));

    std::vector<Edge> flipped = edges;
    std::swap(flipped[2].u, flipped[2].v);
    EXPECT_NE(digest, edge_sequence_digest(Graph(4, flipped)));

    std::vector<Edge> reordered = edges;
    std::swap(reordered[0], reordered[1]);
    EXPECT_NE(digest, edge_sequence_digest(Graph(4, reordered)));
}

}  // namespace
}  // namespace gsp
