// Self-test of the textbook greedy reference (tests/reference_greedy.hpp)
// on instances small enough to decide by hand, so the oracle of every
// equivalence suite is itself checked against something other than the
// engine.
#include "reference_greedy.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "graph/graph.hpp"

namespace gsp {
namespace {

TEST(ReferenceGreedyTest, FourCycleByHand) {
    // Cycle 0-1-2-3-0, edges inserted heaviest first so the sort matters.
    // The three unit edges always enter (no earlier path joins their
    // endpoints); the closing edge 3-0 of weight 2.5 then faces the path
    // 3-2-1-0 of length 3.
    Graph g(4);
    g.add_edge(3, 0, 2.5);
    g.add_edge(2, 3, 1.0);
    g.add_edge(1, 2, 1.0);
    g.add_edge(0, 1, 1.0);

    // t = 1: 3 > 1 * 2.5, so 3-0 is kept too.
    const Graph tight = reference_greedy(g, 1.0);
    EXPECT_EQ(tight.num_edges(), 4u);
    EXPECT_TRUE(same_edge_set(tight, g));
    // Insertion order is the sorted order: the unit edges by endpoints.
    EXPECT_EQ(tight.edge(0), (Edge{0, 1, 1.0}));
    EXPECT_EQ(tight.edge(1), (Edge{1, 2, 1.0}));
    EXPECT_EQ(tight.edge(2), (Edge{2, 3, 1.0}));
    EXPECT_EQ(tight.edge(3), (Edge{3, 0, 2.5}));

    // t = 3: 3 <= 3 * 2.5, so 3-0 is rejected.
    const Graph loose = reference_greedy(g, 3.0);
    EXPECT_EQ(loose.num_edges(), 3u);
    EXPECT_FALSE(loose.has_edge(3, 0));
}

TEST(ReferenceGreedyTest, EqualWeightParallelEdgesKeepTheLowerId) {
    // Ids 0 and 2 join the same pair at the same weight, in opposite
    // orientations; the tie-break by edge id keeps id 0 (oriented 0 -> 1)
    // and rejects id 2, whose pair is then one edge of weight 2 apart.
    Graph g(3);
    g.add_edge(0, 1, 2.0);
    g.add_edge(1, 2, 1.0);
    g.add_edge(1, 0, 2.0);
    const Graph h = reference_greedy(g, 1.0);
    ASSERT_EQ(h.num_edges(), 2u);
    EXPECT_EQ(h.edge(0), (Edge{1, 2, 1.0}));
    EXPECT_EQ(h.edge(1), (Edge{0, 1, 2.0}));
}

TEST(ReferenceGreedyTest, OverflowingThresholdThrows) {
    // 2 * 9e307 overflows to +Inf: no finite distance could exceed it, so
    // the loop would silently reject every such edge. It refuses instead.
    Graph g(3);
    g.add_edge(0, 1, 9e307);
    g.add_edge(1, 2, 9e307);
    EXPECT_THROW((void)reference_greedy(g, 2.0), std::invalid_argument);
}

}  // namespace
}  // namespace gsp
