// Pinned registry outputs: the edge-sequence digests of the four greedy
// entries on spanner_cli's default instances, at n in {300, 1024} and 1 or
// 4 threads. The greedy spanner is unique for a fixed candidate order, so
// a change to the engine's mechanisms (sketch, landmarks, probes, stage 2)
// or to a source's emission must leave every digest as it is; a new
// digest means the edge set or its insertion order moved. The instance
// recipe is spanner_cli's, so
//   spanner_cli all --n <n> --threads <w>
// prints the same digests on its timing lines.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>

#include "api/registry.hpp"
#include "api/session.hpp"
#include "gen/graphs.hpp"
#include "gen/points.hpp"
#include "graph/graph.hpp"
#include "util/random.hpp"

namespace gsp {
namespace {

/// spanner_cli's shared instances at its default seed: one weighted graph,
/// then one 2D point set from the same generator.
struct CliInstance {
    Graph g;
    EuclideanMetric pts;

    explicit CliInstance(std::size_t n, std::uint64_t seed = 7)
        : CliInstance(n, Rng(seed)) {}

private:
    CliInstance(std::size_t n, Rng rng)
        : g(random_graph_nm(n, 8 * n, {.lo = 1.0, .hi = 2.0}, rng)),
          pts(uniform_points(n, 2, std::sqrt(static_cast<double>(n)) * 10.0, rng)) {}
};

/// spanner_cli's default build options at `threads` workers.
BuildOptions cli_options(std::size_t threads) {
    BuildOptions options;
    options.stretch = 2.0;
    options.engine.num_threads = threads;
    options.approx.epsilon = 0.5;
    options.geometric.epsilon = 0.5;
    options.geometric.wspd_separation = 0.0;
    options.geometric.cones = 12;
    return options;
}

struct Pin {
    const char* algorithm;
    std::size_t n;
    std::uint64_t digest;
};

// Recorded with spanner_cli; greedy-metric and greedy-grid build the same
// spanner.
constexpr Pin kPins[] = {
    {"greedy", 300, 0x50b92d2201828857ULL},
    {"greedy-metric", 300, 0xd35629530de87615ULL},
    {"greedy-wspd", 300, 0x0a1cf0977272a27aULL},
    {"greedy-grid", 300, 0xd35629530de87615ULL},
    {"greedy", 1024, 0xe85183135cd8e250ULL},
    {"greedy-metric", 1024, 0xbfa1c6b4803b4fecULL},
    {"greedy-wspd", 1024, 0x5d3ebe6098f51ff7ULL},
    {"greedy-grid", 1024, 0xbfa1c6b4803b4fecULL},
};

TEST(RegistryPinTest, GreedyEdgeDigestsMatchThePins) {
    const AlgorithmRegistry& registry = AlgorithmRegistry::global();
    for (const std::size_t n : {std::size_t{300}, std::size_t{1024}}) {
        const CliInstance inst(n);
        for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
            SpannerSession session;
            const BuildOptions options = cli_options(threads);
            for (const Pin& pin : kPins) {
                if (pin.n != n) continue;
                const AlgorithmInfo* info = registry.find(pin.algorithm);
                ASSERT_NE(info, nullptr) << pin.algorithm;
                const BuildInput input = info->input == InputKind::kGraph
                                             ? BuildInput::of(inst.g)
                                             : BuildInput::of(inst.pts);
                const Graph h = registry.build(pin.algorithm, session, input, options);
                EXPECT_EQ(edge_sequence_digest(h), pin.digest)
                    << pin.algorithm << " n=" << n << " threads=" << threads
                    << " digest " << std::hex << edge_sequence_digest(h);
            }
        }
    }
}

TEST(RegistryPinTest, SkippedLandmarkRefreshesKeepEveryCounter) {
    // Serial greedy-metric at n = 1024 stops inserting in bucket 8, and
    // the refresh rule fires again at buckets 9 and 10 on the unchanged
    // spanner: both keep the table instead of rebuilding it. Every
    // counter below was recorded when each of those refreshes still
    // rebuilt the trees, so the skip changes no decision and no stat.
    const CliInstance inst(1024);
    SpannerSession session;
    BuildReport report;
    const Graph h = AlgorithmRegistry::global().build(
        "greedy-metric", session, BuildInput::of(inst.pts), cli_options(1), &report);
    const GreedyStats& s = report.stats;
    EXPECT_EQ(edge_sequence_digest(h), 0xbfa1c6b4803b4fecULL);
    EXPECT_EQ(s.buckets, 11u);
    EXPECT_EQ(s.landmark_refreshes, 3u);
    EXPECT_EQ(s.landmark_rejects, 383742u);
    EXPECT_EQ(s.edges_examined, 523776u);
    EXPECT_EQ(s.edges_added, 1432u);
    EXPECT_EQ(s.dijkstra_runs, 6742u);
    EXPECT_EQ(s.balls_computed, 2183u);
    EXPECT_EQ(s.cache_hits, 124987u);
    EXPECT_EQ(s.sketch_hits, 290u);
    EXPECT_EQ(s.sketch_accepts, 0u);
    EXPECT_EQ(s.coarse_rejects, 8015u);
    EXPECT_EQ(s.bidirectional_meets, 4014u);
    EXPECT_EQ(s.probe_pushes, 509736u);
    EXPECT_EQ(s.group_probes, 2118u);
    EXPECT_EQ(s.group_probe_decisions, 126831u);
    EXPECT_EQ(s.group_probe_early_exits, 2032u);
}

}  // namespace
}  // namespace gsp
