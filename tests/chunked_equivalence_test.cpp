// Chunked-vs-materialized bit-identity: a build routed through the
// streaming candidate path (BuildOptions::Chunking::kChunked) must return
// the edge set of the textbook greedy loop (reference_greedy.hpp) and the
// same decision stats as the materializing path (kMaterialize), across
// every source family {graph, metric, wspd, grid}, thread counts {1, 2, 4,
// hardware}, and chunk sizes down to a single candidate per pull. Chunk
// boundaries only ever split weight buckets, which the engine's bucketing
// makes decision preserving -- this suite is that claim, property-tested.
#include "api/session.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "api/build_options.hpp"
#include "api/candidate_source.hpp"
#include "api/grid_source.hpp"
#include "gen/graphs.hpp"
#include "gen/points.hpp"
#include "graph/graph.hpp"
#include "reference_greedy.hpp"
#include "util/random.hpp"

namespace gsp {
namespace {

const std::size_t kThreadCounts[] = {1, 2, 4, 0};
const std::size_t kChunkCaps[] = {1, 64, 1 << 16};

/// Decision stats (schedule-independent counters) must match exactly;
/// wall clock and the memory counters legitimately differ between paths.
void expect_decisions_equal(const GreedyStats& a, const GreedyStats& b,
                            const std::string& label) {
    EXPECT_EQ(a.edges_examined, b.edges_examined) << label;
    EXPECT_EQ(a.edges_added, b.edges_added) << label;
    EXPECT_EQ(a.candidates_streamed, b.candidates_streamed) << label;
}

/// Build materialized, then chunked at every chunk cap, and compare edge
/// sets with the textbook reference and decision stats with the
/// materialized build.
void check_source(CandidateSource& source, BuildOptions options, const std::string& what) {
    const Graph reference = reference_greedy(source, options.stretch);
    options.chunking = BuildOptions::Chunking::kMaterialize;
    SpannerSession materialized_session;
    BuildReport materialized_report;
    const Graph materialized =
        materialized_session.build(source, options, &materialized_report);
    EXPECT_TRUE(same_edge_set(materialized, reference)) << what << " materialized";

    for (const std::size_t threads : kThreadCounts) {
        for (const std::size_t cap : kChunkCaps) {
            const std::string label =
                what + " threads=" + std::to_string(threads) + " cap=" + std::to_string(cap);
            BuildOptions chunked = options;
            chunked.chunking = BuildOptions::Chunking::kChunked;
            chunked.engine.num_threads = threads;
            chunked.engine.chunk_soft_cap = cap;
            SpannerSession session;
            BuildReport report;
            const Graph h = session.build(source, chunked, &report);
            EXPECT_TRUE(same_edge_set(h, reference)) << label;
            expect_decisions_equal(report.stats, materialized_report.stats, label);
            EXPECT_EQ(report.candidates, materialized_report.candidates) << label;
            EXPECT_EQ(report.edges, materialized_report.edges) << label;
            EXPECT_EQ(report.weight, materialized_report.weight) << label;
        }
    }
}

class ChunkedEquivalenceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChunkedEquivalenceTest, GraphSourceFallbackChunking) {
    Rng rng(GetParam());
    const Graph g = erdos_renyi(60, 0.25, {.lo = 0.5, .hi = 3.0}, rng);
    GraphCandidateSource source(g);
    ASSERT_EQ(source.chunk_support(), ChunkSupport::kFallback);
    BuildOptions options;
    options.stretch = 1.8;
    check_source(source, options, "graph");
}

TEST_P(ChunkedEquivalenceTest, MetricSourceFallbackChunking) {
    Rng rng(GetParam() ^ 0x9e1);
    const EuclideanMetric pts = uniform_points(42, 2, 50.0, rng);
    MetricCandidateSource source(pts);
    ASSERT_EQ(source.chunk_support(), ChunkSupport::kFallback);
    BuildOptions options;
    options.stretch = 1.4;
    check_source(source, options, "metric");
}

TEST_P(ChunkedEquivalenceTest, WspdSourceStreamsIdentically) {
    Rng rng(GetParam() ^ 0x44f);
    const EuclideanMetric pts = clustered_points(110, 2, 4, 70.0, 1.2, rng);
    WspdCandidateSource source(pts, 9.0);
    ASSERT_EQ(source.chunk_support(), ChunkSupport::kStreaming);
    BuildOptions options;
    options.stretch = 1.5;
    check_source(source, options, "wspd");
}

TEST_P(ChunkedEquivalenceTest, GridSourceStreamsIdentically) {
    Rng rng(GetParam() ^ 0xb33);
    const EuclideanMetric pts = uniform_points(100, 2, 60.0, rng);
    GridCandidateSource source(pts, 8.0);
    ASSERT_EQ(source.chunk_support(), ChunkSupport::kStreaming);
    BuildOptions options;
    options.stretch = 1.6;
    check_source(source, options, "grid");
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChunkedEquivalenceTest, ::testing::Values(2u, 83u, 641u));

TEST(ChunkedEquivalenceTest, StreamedChunksMatchMaterializeForStreamingSources) {
    // The raw chunk sequence (not just the resulting spanner) must be the
    // materialized sequence, for both streaming generators.
    Rng rng(19);
    const EuclideanMetric pts = clustered_points(90, 2, 3, 40.0, 0.8, rng);
    const auto check_sequence = [](CandidateSource& source, const char* what) {
        std::vector<GreedyCandidate> full;
        source.materialize(full);
        for (const std::size_t cap : {std::size_t{1}, std::size_t{17}, std::size_t{4096}}) {
            const auto chunks = source.chunks();
            std::vector<GreedyCandidate> streamed;
            std::vector<GreedyCandidate> buf;
            while (chunks->next_chunk(cap, buf)) {
                streamed.insert(streamed.end(), buf.begin(), buf.end());
                buf.clear();
            }
            ASSERT_EQ(streamed.size(), full.size()) << what << " cap=" << cap;
            for (std::size_t i = 0; i < full.size(); ++i) {
                EXPECT_EQ(streamed[i].u, full[i].u) << what << " cap=" << cap << " " << i;
                EXPECT_EQ(streamed[i].v, full[i].v) << what << " cap=" << cap << " " << i;
                EXPECT_EQ(streamed[i].weight, full[i].weight)
                    << what << " cap=" << cap << " " << i;
            }
        }
    };
    WspdCandidateSource wspd(pts, 8.0);
    GridCandidateSource grid(pts, 8.0);
    check_sequence(wspd, "wspd");
    check_sequence(grid, "grid");
}

TEST(ChunkedEquivalenceTest, AutoChunksExactlyTheStreamingSources) {
    Rng rng(7);
    const EuclideanMetric pts = uniform_points(60, 2, 30.0, rng);
    const Graph g = erdos_renyi(40, 0.3, {.lo = 1.0, .hi = 2.0}, rng);
    BuildOptions options;
    options.stretch = 1.7;
    SpannerSession session;

    // kAuto + streaming source: the buffer peak must stay strictly below
    // the full candidate list (the source really streamed).
    GridCandidateSource grid(pts, 8.0);
    BuildReport report;
    (void)session.build(grid, options, &report);
    ASSERT_GT(report.candidates, 0u);
    EXPECT_LE(report.stats.candidate_buffer_peak_bytes,
              report.candidates * sizeof(GreedyCandidate));

    // kAuto + fallback source: the materializing path reports the full
    // list as its peak.
    GraphCandidateSource graph_source(g);
    (void)session.build(graph_source, options, &report);
    EXPECT_EQ(report.stats.candidate_buffer_peak_bytes,
              report.candidates * sizeof(GreedyCandidate));
}

}  // namespace
}  // namespace gsp
