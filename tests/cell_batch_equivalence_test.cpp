// Cell-batched rejection bit-identity: a grid-streamed build (one drained
// ball per cell anchor deciding that cell's candidates at once, plus
// via-landmark coarse rejects -- what the grid source installs) must
// return the edge set of the textbook greedy loop (reference_greedy.hpp:
// one one-sided point query per candidate on the plain Graph) and examine
// every candidate once, across {uniform, clustered} point sets, thread
// counts {1, 2, 4, hardware}, and chunking {auto-streamed, materialized}.
// Every shortcut the batched path takes is a sound upper bound or an exact
// distance compared against the same exact threshold, so decisions -- not
// just the spanner -- must be preserved bit for bit.
#include "api/session.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "api/build_options.hpp"
#include "api/grid_source.hpp"
#include "core/greedy_engine.hpp"
#include "gen/points.hpp"
#include "graph/graph.hpp"
#include "reference_greedy.hpp"
#include "util/random.hpp"

namespace gsp {
namespace {

const std::size_t kThreadCounts[] = {1, 2, 4, 0};
const BuildOptions::Chunking kChunkings[] = {BuildOptions::Chunking::kChunked,
                                             BuildOptions::Chunking::kMaterialize};

const char* chunking_name(BuildOptions::Chunking c) {
    return c == BuildOptions::Chunking::kChunked ? "chunked" : "materialize";
}

/// Reference build: the textbook loop over the grid's materialized
/// candidate sequence. Every batched variant must reproduce its decisions.
void check_points(const EuclideanMetric& pts, double separation, const std::string& what) {
    constexpr double kStretch = 2.0;
    GridCandidateSource reference_source(pts, separation);
    std::vector<GreedyCandidate> candidates;
    reference_source.materialize(candidates);
    const Graph reference = reference_greedy(reference_source, kStretch);

    for (const std::size_t threads : kThreadCounts) {
        for (const BuildOptions::Chunking chunking : kChunkings) {
            const std::string label = what + " threads=" + std::to_string(threads) +
                                      " chunking=" + chunking_name(chunking);
            BuildOptions batched;
            batched.stretch = kStretch;
            batched.chunking = chunking;
            batched.engine.num_threads = threads;
            GridCandidateSource source(pts, separation);
            SpannerSession session;
            BuildReport report;
            const Graph h = session.build(source, batched, &report);
            EXPECT_TRUE(same_edge_set(h, reference)) << label;
            EXPECT_EQ(report.stats.edges_examined, candidates.size()) << label;
            EXPECT_EQ(report.stats.candidates_streamed, candidates.size()) << label;
            EXPECT_EQ(report.stats.edges_added, reference.num_edges()) << label;
            EXPECT_EQ(report.edges, reference.num_edges()) << label;
            EXPECT_EQ(report.weight, reference.total_weight()) << label;
        }
    }
}

class CellBatchEquivalenceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CellBatchEquivalenceTest, UniformPointsDecideIdentically) {
    Rng rng(GetParam());
    const EuclideanMetric pts = uniform_points(320, 2, 180.0, rng);
    check_points(pts, 5.0, "uniform");
}

TEST_P(CellBatchEquivalenceTest, ClusteredPointsDecideIdentically) {
    Rng rng(GetParam() ^ 0x5eed);
    const EuclideanMetric pts = clustered_points(300, 2, 6, 160.0, 1.5, rng);
    check_points(pts, 5.0, "clustered");
}

INSTANTIATE_TEST_SUITE_P(Seeds, CellBatchEquivalenceTest,
                         ::testing::Values(11u, 407u, 9001u));

TEST(CellBatchEquivalenceTest, CellCountersAreThreadCountInvariant) {
    // The prefilter's verdict bitset is commutative (relaxed fetch_or) and
    // groups partition the batch deterministically, so the batched
    // counters -- not just the decisions -- are a pure function of the
    // input at every *parallel* worker count. (The serial path probes
    // differently, so thread count 1 is covered by the decision-identity
    // sweeps above, not by counter equality.)
    Rng rng(131);
    const EuclideanMetric pts = uniform_points(360, 2, 200.0, rng);

    BuildOptions options;
    options.stretch = 2.0;
    options.engine.num_threads = 2;
    GridCandidateSource first_source(pts, 5.0);
    SpannerSession first_session;
    BuildReport first;
    const Graph reference = first_session.build(first_source, options, &first);

    for (const std::size_t threads : {std::size_t{3}, std::size_t{4}, std::size_t{8}}) {
        options.engine.num_threads = threads;
        GridCandidateSource source(pts, 5.0);
        SpannerSession session;
        BuildReport report;
        const Graph h = session.build(source, options, &report);
        const std::string label = "threads=" + std::to_string(threads);
        EXPECT_TRUE(same_edge_set(h, reference)) << label;
        EXPECT_EQ(report.stats.cell_balls, first.stats.cell_balls) << label;
        EXPECT_EQ(report.stats.cell_ball_decisions, first.stats.cell_ball_decisions)
            << label;
        EXPECT_EQ(report.stats.coarse_rejects, first.stats.coarse_rejects) << label;
    }
}

}  // namespace
}  // namespace gsp
