// API equivalence: every registry entry built through a SpannerSession
// must be bit-identical to its one-shot convenience entry point or
// baseline construction (property-tested across {graph, metric,
// euclidean} inputs and thread counts {1, 2, 4, hardware}) -- and, for the
// greedy entries, to the textbook loop of reference_greedy.hpp over the
// same candidates -- and a session reused across heterogeneous builds must
// match fresh sessions exactly -- edge sets *and* stats.
#include "api/session.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "api/build_options.hpp"
#include "api/candidate_source.hpp"
#include "api/registry.hpp"
#include "core/approx_greedy.hpp"
#include "core/greedy.hpp"
#include "core/greedy_metric.hpp"
#include "gen/graphs.hpp"
#include "gen/points.hpp"
#include "graph/graph.hpp"
#include "spanners/baswana_sen.hpp"
#include "spanners/net_spanner.hpp"
#include "spanners/theta_graph.hpp"
#include "spanners/wspd_spanner.hpp"
#include "spanners/yao_graph.hpp"
#include "reference_greedy.hpp"
#include "util/random.hpp"

namespace gsp {
namespace {

/// Thread counts the issue names (0 = hardware concurrency).
const std::size_t kThreadCounts[] = {1, 2, 4, 0};

/// Field-by-field stats equality, seconds excluded (wall clock is the one
/// legitimately nondeterministic field).
void expect_stats_equal(const GreedyStats& a, const GreedyStats& b,
                        const std::string& label) {
    EXPECT_EQ(a.edges_examined, b.edges_examined) << label;
    EXPECT_EQ(a.edges_added, b.edges_added) << label;
    EXPECT_EQ(a.dijkstra_runs, b.dijkstra_runs) << label;
    EXPECT_EQ(a.balls_computed, b.balls_computed) << label;
    EXPECT_EQ(a.cache_hits, b.cache_hits) << label;
    EXPECT_EQ(a.csr_rebuilds, b.csr_rebuilds) << label;
    EXPECT_EQ(a.csr_compactions, b.csr_compactions) << label;
    EXPECT_EQ(a.bidirectional_meets, b.bidirectional_meets) << label;
    EXPECT_EQ(a.probe_pushes, b.probe_pushes) << label;
    EXPECT_EQ(a.buckets, b.buckets) << label;
    EXPECT_EQ(a.snapshot_accepts, b.snapshot_accepts) << label;
    EXPECT_EQ(a.sketch_hits, b.sketch_hits) << label;
    EXPECT_EQ(a.sketch_accepts, b.sketch_accepts) << label;
    EXPECT_EQ(a.landmark_refreshes, b.landmark_refreshes) << label;
    EXPECT_EQ(a.landmark_rejects, b.landmark_rejects) << label;
    EXPECT_EQ(a.handoff_peak_bytes, b.handoff_peak_bytes) << label;
}

class ApiEquivalenceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ApiEquivalenceTest, GreedyRegistryEntryMatchesConvenienceAtEveryThreadCount) {
    Rng rng(GetParam());
    const Graph g = erdos_renyi(70, 0.2, {.lo = 0.5, .hi = 3.0}, rng);
    const double t = 1.8;
    const Graph reference = reference_greedy(g, t);
    const Graph legacy = greedy_spanner(g, t);
    EXPECT_TRUE(same_edge_set(legacy, reference));
    for (const std::size_t threads : kThreadCounts) {
        SpannerSession session;
        BuildOptions options;
        options.stretch = t;
        options.engine.num_threads = threads;
        const Graph h = AlgorithmRegistry::global().build("greedy", session,
                                                          BuildInput::of(g), options);
        EXPECT_TRUE(same_edge_set(h, reference)) << "threads=" << threads;
    }
}

TEST_P(ApiEquivalenceTest, MetricRegistryEntryMatchesConvenienceAtEveryThreadCount) {
    Rng rng(GetParam() ^ 0xabcd);
    const EuclideanMetric pts = uniform_points(45, 2, 60.0, rng);
    const double t = 1.4;
    MetricCandidateSource source(pts);
    const Graph reference = reference_greedy(source, t);
    const Graph legacy = greedy_spanner_metric(pts, t);
    EXPECT_TRUE(same_edge_set(legacy, reference));
    for (const std::size_t threads : kThreadCounts) {
        SpannerSession session;
        BuildOptions options;
        options.stretch = t;
        options.engine.num_threads = threads;
        const Graph h = AlgorithmRegistry::global().build(
            "greedy-metric", session, BuildInput::of(pts), options);
        EXPECT_TRUE(same_edge_set(h, reference)) << "threads=" << threads;
    }
}

TEST_P(ApiEquivalenceTest, ApproxRegistryEntryMatchesConvenienceAtEveryThreadCount) {
    Rng rng(GetParam() ^ 0x7777);
    const EuclideanMetric pts = uniform_points(120, 2, 80.0, rng);
    BuildOptions options;
    options.approx.epsilon = 0.5;
    // The simulation: E0 seeded, the rest of G' decided at t_sim.
    BaseSpannerCandidateSource source(pts, options);
    const Graph reference = reference_greedy(source, source.t_sim());
    const ApproxGreedyResult legacy = approx_greedy_spanner(pts, 0.5);
    EXPECT_TRUE(same_edge_set(legacy.spanner, reference));
    for (const std::size_t threads : kThreadCounts) {
        SpannerSession session;
        options.engine.num_threads = threads;
        const Graph h = AlgorithmRegistry::global().build(
            "greedy-approx", session, BuildInput::of(pts), options);
        EXPECT_TRUE(same_edge_set(h, reference)) << "threads=" << threads;
    }
}

TEST_P(ApiEquivalenceTest, BaselineRegistryEntriesMatchTheirDirectConstructors) {
    Rng rng(GetParam() ^ 0x1357);
    const std::size_t n = 60;
    const Graph g = erdos_renyi(n, 0.25, {.lo = 1.0, .hi = 2.0}, rng);
    const EuclideanMetric pts = uniform_points(n, 2, 50.0, rng);
    SpannerSession session;
    BuildOptions options;
    options.geometric.cones = 10;
    options.geometric.epsilon = 0.5;
    options.geometric.net_degree_cap = 16;
    options.baswana_sen.k = 2;
    options.baswana_sen.seed = GetParam();
    const AlgorithmRegistry& registry = AlgorithmRegistry::global();

    EXPECT_TRUE(same_edge_set(
        registry.build("theta", session, BuildInput::of(pts), options),
        theta_graph_sweep(pts, 10)));
    EXPECT_TRUE(same_edge_set(
        registry.build("yao", session, BuildInput::of(pts), options),
        yao_graph(pts, 10)));
    EXPECT_TRUE(same_edge_set(
        registry.build("wspd", session, BuildInput::of(pts), options),
        wspd_spanner(pts, 0.5)));
    EXPECT_TRUE(same_edge_set(
        registry.build("net", session, BuildInput::of(pts), options),
        net_spanner(pts, NetSpannerOptions{.epsilon = 0.5, .degree_cap = 16})));
    EXPECT_TRUE(same_edge_set(
        registry.build("baswana-sen", session, BuildInput::of(g), options),
        baswana_sen_spanner(g, 2, GetParam())));
}

TEST_P(ApiEquivalenceTest, WspdGreedyMatchesReferenceAtEveryThreadCount) {
    // greedy-wspd has no legacy entry point: the reference over the same
    // WSPD pairs is its only oracle.
    Rng rng(GetParam() ^ 0x2468);
    const EuclideanMetric pts = uniform_points(80, 2, 70.0, rng);
    BuildOptions options;
    options.stretch = 1.5;
    options.geometric.wspd_separation = 10.0;
    WspdCandidateSource source(pts, 10.0);
    const Graph reference = reference_greedy(source, 1.5);
    for (const std::size_t threads : kThreadCounts) {
        SpannerSession session;
        options.engine.num_threads = threads;
        const Graph h = AlgorithmRegistry::global().build(
            "greedy-wspd", session, BuildInput::of(pts), options);
        EXPECT_TRUE(same_edge_set(h, reference)) << "threads=" << threads;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ApiEquivalenceTest, ::testing::Values(3u, 41u, 907u));

TEST(SessionReuseTest, ThreeHeterogeneousBuildsMatchThreeFreshSessions) {
    // The session-reuse contract, stats included: warm arenas must never
    // leak one build's state into the next.
    Rng rng(77);
    const Graph g = erdos_renyi(64, 0.2, {.lo = 0.5, .hi = 3.0}, rng);
    const EuclideanMetric pts = uniform_points(40, 2, 50.0, rng);
    const EuclideanMetric pts_big = uniform_points(52, 2, 80.0, rng);

    BuildOptions graph_options;
    graph_options.stretch = 2.0;
    graph_options.engine.num_threads = 2;
    BuildOptions metric_options;
    metric_options.stretch = 1.4;
    BuildOptions wspd_options;
    wspd_options.stretch = 1.5;
    wspd_options.engine.num_threads = 2;
    wspd_options.geometric.wspd_separation = 9.0;

    GraphCandidateSource graph_source(g);
    MetricCandidateSource metric_source(pts);
    WspdCandidateSource wspd_source(pts_big, 9.0);

    // One session, three heterogeneous builds (different sources, vertex
    // counts, thread counts).
    SpannerSession reused;
    BuildReport r1, r2, r3;
    const Graph h1 = reused.build(graph_source, graph_options, &r1);
    const Graph h2 = reused.build(metric_source, metric_options, &r2);
    const Graph h3 = reused.build(wspd_source, wspd_options, &r3);

    // Three fresh sessions.
    SpannerSession f1, f2, f3;
    BuildReport s1, s2, s3;
    const Graph k1 = f1.build(graph_source, graph_options, &s1);
    const Graph k2 = f2.build(metric_source, metric_options, &s2);
    const Graph k3 = f3.build(wspd_source, wspd_options, &s3);

    EXPECT_TRUE(same_edge_set(h1, k1));
    EXPECT_TRUE(same_edge_set(h2, k2));
    EXPECT_TRUE(same_edge_set(h3, k3));
    expect_stats_equal(r1.stats, s1.stats, "graph build");
    expect_stats_equal(r2.stats, s2.stats, "metric build");
    expect_stats_equal(r3.stats, s3.stats, "wspd build");
    // And the warm session really was warm where shapes repeated.
    EXPECT_EQ(r3.pools_constructed, 0u);  // the mt2 pool came from build 1
}

TEST(SessionReuseTest, ApproxThroughOneSessionMatchesFreshSessions) {
    Rng rng(91);
    const EuclideanMetric pts = uniform_points(150, 2, 90.0, rng);
    BuildOptions options;
    options.approx.epsilon = 0.5;
    options.engine.num_threads = 2;

    SpannerSession reused;
    const ApproxGreedyResult a = approx_greedy_build(reused, pts, options);
    const ApproxGreedyResult b = approx_greedy_build(reused, pts, options);
    SpannerSession fresh;
    const ApproxGreedyResult c = approx_greedy_build(fresh, pts, options);
    EXPECT_TRUE(same_edge_set(a.spanner, b.spanner));
    EXPECT_TRUE(same_edge_set(a.spanner, c.spanner));
    EXPECT_EQ(a.exact_queries, c.exact_queries);
    EXPECT_EQ(a.light_edges, c.light_edges);
}

}  // namespace
}  // namespace gsp
