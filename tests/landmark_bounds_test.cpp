// Landmark witness trees: the table's bounds are sound upper bounds on
// spanner distances (and stay sound as the spanner grows), landmark
// selection is a deterministic farthest-point order, and engine builds
// that consult the table return exactly the textbook reference's edge set.
#include "core/landmark_bounds.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "api/candidate_source.hpp"
#include "api/grid_source.hpp"
#include "api/session.hpp"
#include "gen/graphs.hpp"
#include "gen/points.hpp"
#include "graph/dijkstra.hpp"
#include "graph/graph.hpp"
#include "graph/incremental_csr.hpp"
#include "reference_greedy.hpp"
#include "util/random.hpp"

namespace gsp {
namespace {

constexpr std::size_t kK = 16;

/// A table bound sums a path's weights from the landmark's side, the
/// reference Dijkstra from u's side: equal paths may differ in the last
/// ulp, the same class as the engine's bidirectional queries.
constexpr double kUlpSlack = 1e-12;

/// Every pair's table bound must dominate its exact distance in g; pairs
/// with a landmark endpoint must be exact.
void expect_sound(const LandmarkTable& table, const Graph& g, const std::string& what) {
    const std::size_t n = g.num_vertices();
    std::vector<bool> is_landmark(n, false);
    for (const VertexId l : table.landmarks()) is_landmark[l] = true;
    for (VertexId u = 0; u < n; ++u) {
        const std::vector<Weight> d = dijkstra_all(g, u);
        for (VertexId v = 0; v < n; ++v) {
            const Weight ub = table.upper_bound(u, v);
            ASSERT_GE(ub, d[v] * (1.0 - kUlpSlack)) << what << " u=" << u << " v=" << v;
            if (is_landmark[u] || is_landmark[v]) {
                ASSERT_LE(ub, d[v] * (1.0 + kUlpSlack)) << what << " u=" << u << " v=" << v;
            }
        }
    }
}

TEST(LandmarkTableTest, EmptyUntilRefreshed) {
    LandmarkTable table;
    table.reset(10, kK);
    EXPECT_FALSE(table.ready());
    EXPECT_EQ(table.upper_bound(0, 1), kInfiniteWeight);
    EXPECT_EQ(table.bytes(), 0u);  // sized by the first refresh
    EXPECT_EQ(table.refresh_cost(40), kK * (10 + 40));
    table.refresh(Graph(10), 0);
    EXPECT_TRUE(table.ready());
    EXPECT_EQ(table.bytes(), 10 * kK * sizeof(Weight));
}

TEST(LandmarkTableTest, UpperBoundsDominateDistancesAndSurviveInsertions) {
    for (const std::uint64_t seed : {3u, 71u, 512u}) {
        Rng rng(seed);
        // Sparse and not forced connected: some pairs share no landmark
        // component and must stay at +infinity.
        Graph g = erdos_renyi(160, 0.015, {.lo = 0.5, .hi = 3.0}, rng, false);
        LandmarkTable table;
        table.reset(g.num_vertices(), kK);
        table.refresh(g, g.num_edges());
        ASSERT_TRUE(table.ready());
        expect_sound(table, g, "seed " + std::to_string(seed));

        // The spanner only grows: bounds built on the old graph stay
        // upper bounds on the new distances without a refresh.
        for (int i = 0; i < 200; ++i) {
            const auto u = static_cast<VertexId>(rng.index(g.num_vertices()));
            const auto v = static_cast<VertexId>(rng.index(g.num_vertices()));
            if (u != v) g.add_edge(u, v, rng.uniform(0.5, 3.0));
        }
        for (VertexId u = 0; u < g.num_vertices(); ++u) {
            const std::vector<Weight> d = dijkstra_all(g, u);
            for (VertexId v = 0; v < g.num_vertices(); ++v) {
                ASSERT_GE(table.upper_bound(u, v), d[v] * (1.0 - kUlpSlack))
                    << "after inserts, seed " << seed;
            }
        }
        table.refresh(g, g.num_edges());
        expect_sound(table, g, "refreshed, seed " + std::to_string(seed));
    }
}

TEST(LandmarkTableTest, IncrementalViewMatchesGraph) {
    Rng rng(19);
    const Graph g = erdos_renyi(120, 0.05, {.lo = 1.0, .hi = 2.0}, rng);
    IncrementalCsrView view;
    view.refresh(g);
    LandmarkTable on_graph;
    LandmarkTable on_view;
    on_graph.reset(g.num_vertices(), kK);
    on_view.reset(g.num_vertices(), kK);
    on_graph.refresh(g, g.num_edges());
    on_view.refresh(view, g.num_edges());
    ASSERT_EQ(std::vector<VertexId>(on_graph.landmarks().begin(), on_graph.landmarks().end()),
              std::vector<VertexId>(on_view.landmarks().begin(), on_view.landmarks().end()));
    for (VertexId u = 0; u < g.num_vertices(); ++u) {
        for (VertexId v = 0; v < g.num_vertices(); ++v) {
            ASSERT_EQ(on_graph.upper_bound(u, v), on_view.upper_bound(u, v));
        }
    }
}

TEST(LandmarkTableTest, FarthestPointSelectionIsDeterministic) {
    // A unit-weight path 0..9 plus isolated vertices 10, 11, 12.
    Graph g(13);
    for (VertexId i = 0; i + 1 < 10; ++i) g.add_edge(i, i + 1, 1.0);
    LandmarkTable table;
    table.reset(g.num_vertices(), 6);
    table.refresh(g, g.num_edges());
    // Vertex 0 first (every vertex ties at +infinity); then the vertices
    // unreachable from every landmark, smallest id first; then the far
    // end of the path; then the tie between 4 and 5 (both 4 away from
    // the chosen set) goes to the smaller id.
    const std::vector<VertexId> want = {0, 10, 11, 12, 9, 4};
    EXPECT_EQ(std::vector<VertexId>(table.landmarks().begin(), table.landmarks().end()),
              want);

    // Same graph, same landmarks, same bounds -- also on a warm table.
    Rng rng(5);
    const Graph r = erdos_renyi(200, 0.03, {.lo = 1.0, .hi = 4.0}, rng);
    LandmarkTable a;
    a.reset(r.num_vertices(), kK);
    a.refresh(r, r.num_edges());
    table.reset(r.num_vertices(), kK);
    ASSERT_TRUE(table.refresh(r, r.num_edges()));
    ASSERT_EQ(std::vector<VertexId>(a.landmarks().begin(), a.landmarks().end()),
              std::vector<VertexId>(table.landmarks().begin(), table.landmarks().end()));
    for (VertexId u = 0; u < r.num_vertices(); ++u) {
        for (VertexId v = 0; v < r.num_vertices(); ++v) {
            ASSERT_EQ(a.upper_bound(u, v), table.upper_bound(u, v));
        }
    }
}

/// The landmarks and every pair's bound of `table`.
struct TableImage {
    std::vector<VertexId> landmarks;
    std::vector<Weight> bounds;
    bool operator==(const TableImage&) const = default;
};

TableImage image_of(const LandmarkTable& table, std::size_t n) {
    TableImage img;
    img.landmarks.assign(table.landmarks().begin(), table.landmarks().end());
    for (VertexId u = 0; u < n; ++u) {
        for (VertexId v = 0; v < n; ++v) img.bounds.push_back(table.upper_bound(u, v));
    }
    return img;
}

TEST(LandmarkTableTest, RefreshOnAnUnchangedSpannerKeepsTheTable) {
    Rng rng(23);
    Graph g = erdos_renyi(150, 0.03, {.lo = 1.0, .hi = 3.0}, rng, false);
    const std::size_t n = g.num_vertices();
    LandmarkTable table;
    table.reset(n, kK);
    ASSERT_TRUE(table.refresh(g, g.num_edges()));
    const TableImage before = image_of(table, n);

    // No edge since the last refresh: the table is kept...
    EXPECT_FALSE(table.refresh(g, g.num_edges()));
    EXPECT_EQ(image_of(table, n), before);
    // ...and is bit for bit what a recompute on the same spanner builds.
    LandmarkTable fresh;
    fresh.reset(n, kK);
    ASSERT_TRUE(fresh.refresh(g, g.num_edges()));
    EXPECT_EQ(image_of(fresh, n), before);

    // One insertion later the refresh recomputes.
    g.add_edge(0, static_cast<VertexId>(n - 1), 0.25);
    EXPECT_TRUE(table.refresh(g, g.num_edges()));
    fresh.reset(n, kK);
    ASSERT_TRUE(fresh.refresh(g, g.num_edges()));
    EXPECT_EQ(image_of(table, n), image_of(fresh, n));
    EXPECT_NE(image_of(table, n), before);

    // reset() drops the table in force: the next refresh always builds.
    table.reset(n, kK);
    EXPECT_TRUE(table.refresh(g, g.num_edges()));
}

TEST(LandmarkTableTest, FewerVerticesThanLandmarks) {
    Graph g(3);
    g.add_edge(0, 1, 2.0);
    LandmarkTable table;
    table.reset(3, kK);
    table.refresh(g, g.num_edges());
    EXPECT_EQ(table.landmarks().size(), 3u);
    EXPECT_EQ(table.upper_bound(0, 1), 2.0);
    EXPECT_EQ(table.upper_bound(1, 2), kInfiniteWeight);
}

// --- Engine builds: bit-identical to the reference ---------------------

const std::size_t kThreadCounts[] = {1, 2, 4, 0};  // 0 = hardware concurrency

/// Builds `make_source()` with the textbook reference and with the
/// default engine at each thread count, checks the edge sets agree, and
/// returns the engine's reports (one per thread count). Every input here
/// is big enough for the refresh rule to fire, so the table is consulted.
template <class MakeSource>
std::vector<BuildReport> check_against_reference(MakeSource make_source, double stretch,
                                                 const std::string& what) {
    auto reference_source = make_source();
    const Graph reference = reference_greedy(reference_source, stretch);

    std::vector<BuildReport> reports;
    for (const std::size_t threads : kThreadCounts) {
        BuildOptions options;
        options.stretch = stretch;
        options.engine.num_threads = threads;
        auto source = make_source();
        SpannerSession session;
        BuildReport report;
        const Graph h = session.build(source, options, &report);
        const std::string label = what + " threads=" + std::to_string(threads);
        EXPECT_TRUE(same_edge_set(h, reference)) << label;
        EXPECT_EQ(report.stats.edges_added, reference.num_edges()) << label;
        EXPECT_GT(report.stats.landmark_refreshes, 0u) << label;
        reports.push_back(report);
    }
    // Stage 2 runs at every parallel worker count (not serially), and its
    // probes are pure functions of the bucket-start view: the push count
    // is schedule-free from two workers up.
    EXPECT_EQ(reports[2].stats.probe_pushes, reports[1].stats.probe_pushes) << what;
    return reports;
}

TEST(LandmarkEngineTest, LongLinkGeometricGraphMatchesReference) {
    Rng rng(3);
    const std::size_t n = 1024;
    const Graph g = random_geometric(n, 3.0 / std::sqrt(static_cast<double>(n)), rng, true);
    const auto reports = check_against_reference(
        [&] { return GraphCandidateSource(g); }, 2.0, "geometric long-link");
    for (std::size_t i = 0; i < reports.size(); ++i) {
        EXPECT_GT(reports[i].stats.landmark_rejects, 0u)
            << "threads=" << kThreadCounts[i];
    }
}

TEST(LandmarkEngineTest, ErdosRenyiMatchesReference) {
    // n = 600: on smaller inputs the frontier-pruned point queries are too
    // cheap for the refresh rule to buy a table, and this test must
    // exercise one.
    Rng rng(41);
    const Graph g = erdos_renyi(600, 0.05, {.lo = 0.5, .hi = 8.0}, rng);
    check_against_reference([&] { return GraphCandidateSource(g); }, 1.8, "erdos-renyi");
}

TEST(LandmarkEngineTest, EuclideanMetricMatchesReference) {
    Rng rng(88);
    const EuclideanMetric pts = uniform_points(300, 2, 100.0, rng);
    check_against_reference([&] { return MetricCandidateSource(pts); }, 1.5, "euclidean");
}

TEST(LandmarkEngineTest, GridStreamMatchesReference) {
    // n = 800: at the grid's 32 sketch ways the via-landmark rejects leave
    // smaller inputs too few probes for the refresh rule to buy a table,
    // and this test must exercise one.
    Rng rng(123);
    const EuclideanMetric pts = uniform_points(800, 2, 200.0, rng);
    check_against_reference([&] { return GridCandidateSource(pts, 5.0); }, 2.0, "grid stream");
}

TEST(LandmarkEngineTest, WarmSessionCountsMatchFresh) {
    // The table is session-warm storage only: a warm build refreshes and
    // rejects exactly like a fresh one.
    Rng rng(3);
    const Graph g = random_geometric(1024, 3.0 / 32.0, rng, true);
    BuildOptions options;
    options.engine.num_threads = 2;
    SpannerSession session;
    BuildReport cold;
    BuildReport warm;
    GraphCandidateSource first(g);
    const Graph a = session.build(first, options, &cold);
    GraphCandidateSource second(g);
    const Graph b = session.build(second, options, &warm);
    EXPECT_TRUE(same_edge_set(a, b));
    EXPECT_GT(cold.stats.landmark_rejects, 0u);
    EXPECT_EQ(cold.stats.landmark_refreshes, warm.stats.landmark_refreshes);
    EXPECT_EQ(cold.stats.landmark_rejects, warm.stats.landmark_rejects);
    EXPECT_EQ(cold.stats.dijkstra_runs, warm.stats.dijkstra_runs);
    EXPECT_GT(cold.stats.probe_pushes, 0u);
    EXPECT_EQ(cold.stats.probe_pushes, warm.stats.probe_pushes);
}

TEST(LandmarkEngineTest, WarmTableNeverAnswersForALaterBuild) {
    // A session that built a large graph with the table on, then builds a
    // smaller one with the sketch (and so the table) off, must not consult
    // the first build's trees.
    Rng rng(3);
    const Graph big = random_geometric(1024, 3.0 / 32.0, rng, true);
    const Graph small = erdos_renyi(200, 0.05, {.lo = 0.5, .hi = 8.0}, rng);
    SpannerSession session;
    BuildOptions options;  // serial: the insertion loop consults the table
    BuildReport first;
    GraphCandidateSource big_source(big);
    (void)session.build(big_source, options, &first);
    ASSERT_GT(first.stats.landmark_refreshes, 0u);

    options.engine.bound_sketch = false;
    BuildReport second;
    GraphCandidateSource small_source(small);
    const Graph h = session.build(small_source, options, &second);
    EXPECT_EQ(second.stats.landmark_rejects, 0u);

    EXPECT_TRUE(same_edge_set(h, reference_greedy(small, options.stretch)));
}

}  // namespace
}  // namespace gsp
