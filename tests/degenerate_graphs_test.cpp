// Degenerate graph inputs, table-driven over every graph-input registry
// entry at one and four threads: all-equal weights, weights {1, 2^52}, a
// four-component disconnected graph, an edgeless graph, n = 0, parallel
// edges, and two threshold-overflow cases (weights near DBL_MAX at t = 2,
// and t = +Inf). Each build must either meet its own stretch_target
// (checked over every input edge) or refuse the input with
// std::invalid_argument -- never return a spanner that misses its
// guarantee, and never fail with any other exception type.
#include "api/registry.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/audit.hpp"
#include "api/build_options.hpp"
#include "api/session.hpp"
#include "core/greedy.hpp"
#include "gen/graphs.hpp"
#include "graph/graph.hpp"
#include "util/random.hpp"

namespace gsp {
namespace {

struct GraphCase {
    std::string name;
    Graph g;
    double stretch = 2.0;  ///< BuildOptions::stretch
};

/// A path 0 - 1 - 2 with both weights 9e307: every weight is finite, but
/// 2 * 9e307 overflows, so the greedy threshold t * w is +Inf.
Graph overflow_path() {
    Graph g(3);
    g.add_edge(0, 1, 9e307);
    g.add_edge(1, 2, 9e307);
    return g;
}

std::vector<GraphCase> graph_cases() {
    std::vector<GraphCase> cases;
    {
        Rng rng(11);
        cases.push_back({"all-equal weights", erdos_renyi(40, 0.3, {.lo = 1.0, .hi = 1.0}, rng)});
    }
    {
        // Two weight classes 52 binary orders apart: the light edges form
        // a spanning path, the heavy ones a random chord set on top.
        Rng rng(12);
        Graph g(40);
        for (VertexId v = 1; v < 40; ++v) g.add_edge(v - 1, v, 1.0);
        for (int i = 0; i < 120; ++i) {
            const auto u = static_cast<VertexId>(rng.uniform_int(0, 39));
            const auto v = static_cast<VertexId>(rng.uniform_int(0, 39));
            if (u != v) g.add_edge(u, v, i % 2 == 0 ? 1.0 : std::ldexp(1.0, 52));
        }
        cases.push_back({"weights {1, 2^52}", std::move(g)});
    }
    {
        Rng rng(13);
        Graph g(4 * 15);
        for (VertexId c = 0; c < 4; ++c) {
            const Graph part = erdos_renyi(15, 0.4, {.lo = 1.0, .hi = 4.0}, rng);
            for (const Edge& e : part.edges()) {
                g.add_edge(c * 15 + e.u, c * 15 + e.v, e.weight);
            }
        }
        cases.push_back({"4 components", std::move(g)});
    }
    cases.push_back({"edgeless", Graph(12)});
    cases.push_back({"n=0", Graph(0)});
    {
        // Parallel edges: every pair twice (once per weight), one pair
        // four times with identical weights.
        Graph g(6);
        for (VertexId v = 1; v < 6; ++v) {
            g.add_edge(v - 1, v, 1.0 + v);
            g.add_edge(v, v - 1, 0.5 + v);
        }
        for (int i = 0; i < 4; ++i) g.add_edge(0, 5, 3.0);
        cases.push_back({"parallel edges", std::move(g)});
    }
    cases.push_back({"overflowing threshold", overflow_path()});
    {
        Graph g(3);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 1.0);
        g.add_edge(0, 2, 1.5);
        cases.push_back({"infinite stretch", std::move(g),
                         std::numeric_limits<double>::infinity()});
    }
    return cases;
}

TEST(DegenerateGraphsTest, EveryGraphEntryMeetsItsTargetOrRefuses) {
    const AlgorithmRegistry& registry = AlgorithmRegistry::global();
    const std::vector<GraphCase> cases = graph_cases();
    for (const AlgorithmInfo* info : registry.algorithms()) {
        if (info->input != InputKind::kGraph) continue;
        for (const std::size_t threads : {1u, 4u}) {
            for (const GraphCase& c : cases) {
                const std::string label = std::string(info->name) + " on " + c.name +
                                          " at threads=" + std::to_string(threads);
                SpannerSession session;
                BuildOptions options;
                options.stretch = c.stretch;
                options.engine.num_threads = threads;
                try {
                    BuildReport report;
                    const Graph h = registry.build(info->name, session, BuildInput::of(c.g),
                                                   options, &report);
                    ASSERT_EQ(h.num_vertices(), c.g.num_vertices()) << label;
                    const double stretch = max_stretch_over_edges(c.g, h);
                    EXPECT_LE(stretch, report.stretch_target * (1.0 + 1e-12))
                        << label << ": " << h.num_edges() << " edges";
                } catch (const std::invalid_argument&) {
                    // Refusing the input is a valid outcome.
                } catch (const std::exception& e) {
                    ADD_FAILURE() << label << " threw a non-invalid_argument exception: "
                                  << e.what();
                }
            }
        }
    }
}

TEST(DegenerateGraphsTest, OverflowingThresholdsAreRefused) {
    // An unreachable pair's distance is +Inf, and +Inf <= +Inf: without
    // the input check the greedy would reject every edge of a connected
    // input and return an empty spanner.
    const Graph path = overflow_path();
    const AlgorithmRegistry& registry = AlgorithmRegistry::global();
    SpannerSession session;
    EXPECT_THROW((void)registry.build("greedy", session, BuildInput::of(path), BuildOptions{}),
                 std::invalid_argument);
    EXPECT_THROW((void)greedy_spanner(path, 2.0), std::invalid_argument);

    const double inf = std::numeric_limits<double>::infinity();
    BuildOptions infinite;
    infinite.stretch = inf;
    EXPECT_THROW(infinite.validate(), std::invalid_argument);
    Graph triangle(3);
    triangle.add_edge(0, 1, 1.0);
    triangle.add_edge(1, 2, 1.0);
    EXPECT_THROW((void)registry.build("greedy", session, BuildInput::of(triangle), infinite),
                 std::invalid_argument);
    EXPECT_THROW((void)greedy_spanner(triangle, inf), std::invalid_argument);

    // The same weights at t = 1 stay finite and keep both edges.
    EXPECT_EQ(greedy_spanner(path, 1.0).num_edges(), 2u);
}

}  // namespace
}  // namespace gsp
