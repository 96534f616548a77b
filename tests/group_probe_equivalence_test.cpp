// Multi-target group-probe bit-identity: a build whose source groups are
// decided by the batched group probe (one traversal deciding a whole
// source group against per-member radii -- what every source but the grid
// gets) must return the same edge set and the same decision stats as the
// naive kernel (EngineTuning::naive(): one one-sided point query per
// candidate), across the sources that probe ({graph, metric, wspd}),
// thread counts {1, 2, 4, hardware}, and chunking {chunked,
// materialized}. Every kernel verdict is an exact distance or a sound far
// certificate against the same view the point probes query, so decisions
// -- not just the spanner -- must be preserved bit for bit.
#include "api/session.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "api/build_options.hpp"
#include "api/candidate_source.hpp"
#include "api/registry.hpp"
#include "core/greedy_engine.hpp"
#include "gen/graphs.hpp"
#include "gen/points.hpp"
#include "graph/batched_probe.hpp"
#include "graph/dijkstra.hpp"
#include "graph/graph.hpp"
#include "metric/euclidean.hpp"
#include "util/random.hpp"

namespace gsp {
namespace {

const std::size_t kThreadCounts[] = {1, 2, 4, 0};
const BuildOptions::Chunking kChunkings[] = {BuildOptions::Chunking::kChunked,
                                             BuildOptions::Chunking::kMaterialize};

const char* chunking_name(BuildOptions::Chunking c) {
    return c == BuildOptions::Chunking::kChunked ? "chunked" : "materialize";
}

/// Schedule-independent decision counters must match exactly between the
/// batched-probe and naive paths; probe-strategy counters (dijkstra runs,
/// cache hits, group probes) legitimately differ.
void expect_decisions_equal(const GreedyStats& a, const GreedyStats& b,
                            const std::string& label) {
    EXPECT_EQ(a.edges_examined, b.edges_examined) << label;
    EXPECT_EQ(a.edges_added, b.edges_added) << label;
    EXPECT_EQ(a.candidates_streamed, b.candidates_streamed) << label;
}

/// Reference build: the naive kernel over the source's materialized
/// candidate sequence, single thread, no source-side engine overrides.
Graph naive_build(CandidateSource& source, double stretch, GreedyStats& stats) {
    std::vector<GreedyCandidate> candidates;
    source.materialize(candidates);
    GreedyEngineOptions options;
    static_cast<EngineTuning&>(options) = EngineTuning::naive();
    options.stretch = stretch;
    GreedyEngine engine(source.num_vertices(), options);
    return engine.run(Graph(source.num_vertices()), candidates, &stats);
}

void check_source(const std::function<std::unique_ptr<CandidateSource>()>& make_source,
                  double stretch, const std::string& what) {
    GreedyStats reference_stats;
    const auto reference_source = make_source();
    const Graph reference = naive_build(*reference_source, stretch, reference_stats);
    EXPECT_EQ(reference_stats.group_probes, 0u) << what;

    for (const std::size_t threads : kThreadCounts) {
        for (const BuildOptions::Chunking chunking : kChunkings) {
            const std::string label = what + " threads=" + std::to_string(threads) +
                                      " chunking=" + chunking_name(chunking);
            BuildOptions probed;
            probed.stretch = stretch;
            probed.chunking = chunking;
            probed.engine.num_threads = threads;
            const auto source = make_source();
            SpannerSession session;
            BuildReport report;
            const Graph h = session.build(*source, probed, &report);
            EXPECT_TRUE(same_edge_set(h, reference)) << label;
            expect_decisions_equal(report.stats, reference_stats, label);
            EXPECT_EQ(report.edges, reference.num_edges()) << label;
            EXPECT_EQ(report.weight, reference.total_weight()) << label;
        }
    }
}

class GroupProbeEquivalenceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GroupProbeEquivalenceTest, GraphEdgesDecideIdentically) {
    Rng rng(GetParam());
    const Graph g = erdos_renyi(150, 0.12, {.lo = 0.5, .hi = 3.0}, rng);
    check_source([&] { return std::make_unique<GraphCandidateSource>(g); }, 1.8,
                 "graph");
}

TEST_P(GroupProbeEquivalenceTest, MetricPairsDecideIdentically) {
    Rng rng(GetParam() ^ 0xbeef);
    const EuclideanMetric pts = uniform_points(70, 2, 70.0, rng);
    check_source([&] { return std::make_unique<MetricCandidateSource>(pts); }, 1.5,
                 "metric");
}

TEST_P(GroupProbeEquivalenceTest, WspdPairsDecideIdentically) {
    Rng rng(GetParam() ^ 0x2468);
    const EuclideanMetric pts = uniform_points(110, 2, 90.0, rng);
    check_source([&] { return std::make_unique<WspdCandidateSource>(pts, 9.0); }, 1.5,
                 "wspd");
}

INSTANTIATE_TEST_SUITE_P(Seeds, GroupProbeEquivalenceTest,
                         ::testing::Values(7u, 521u, 4242u));

TEST(GroupProbeEquivalenceTest, SourcePicksTheGroupMechanism) {
    // No knob selects the group mechanism: the grid source installs cell
    // balls, and every other engine-backed registry entry's groups are
    // decided by group probes. Both must actually engage at default
    // settings.
    Rng rng(55);
    const EuclideanMetric pts = uniform_points(400, 2, 200.0, rng);
    const Graph g = erdos_renyi(300, 0.1, {.lo = 0.5, .hi = 3.0}, rng);
    const AlgorithmRegistry& registry = AlgorithmRegistry::global();
    SpannerSession session;

    for (const std::string_view name :
         {"greedy", "greedy-metric", "greedy-wspd", "greedy-approx"}) {
        const BuildInput input =
            name == "greedy" ? BuildInput::of(g) : BuildInput::of(pts);
        BuildReport report;
        (void)registry.build(name, session, input, BuildOptions{}, &report);
        EXPECT_GT(report.stats.group_probes, 0u) << name;
        EXPECT_GE(report.stats.group_probe_decisions, report.stats.group_probes) << name;
        EXPECT_EQ(report.stats.cell_balls, 0u) << name;
    }

    BuildReport grid;
    (void)registry.build("greedy-grid", session, BuildInput::of(pts), BuildOptions{},
                         &grid);
    EXPECT_GT(grid.stats.cell_balls, 0u);
    EXPECT_GE(grid.stats.cell_ball_decisions, grid.stats.cell_balls);
    EXPECT_EQ(grid.stats.group_probes, 0u);
}

TEST(GroupProbeEquivalenceTest, GroupProbeCountersAreThreadCountInvariant) {
    // Stage-2 groups are task-owned and the kernel's verdicts are pure
    // functions of (view, source, targets, radii), so the group-probe
    // counters -- not just the decisions -- are a pure function of the
    // input at every *parallel* worker count. (The serial path gates
    // probes on its own cost model, so thread count 1 is covered by the
    // decision-identity sweeps above, not by counter equality.)
    Rng rng(909);
    const Graph g = erdos_renyi(170, 0.12, {.lo = 0.5, .hi = 3.0}, rng);

    BuildOptions options;
    options.stretch = 1.8;
    options.engine.num_threads = 2;
    GraphCandidateSource first_source(g);
    SpannerSession first_session;
    BuildReport first;
    const Graph reference = first_session.build(first_source, options, &first);
    EXPECT_GT(first.stats.group_probes, 0u);

    for (const std::size_t threads : {std::size_t{3}, std::size_t{4}, std::size_t{8}}) {
        options.engine.num_threads = threads;
        GraphCandidateSource source(g);
        SpannerSession session;
        BuildReport report;
        const Graph h = session.build(source, options, &report);
        const std::string label = "threads=" + std::to_string(threads);
        EXPECT_TRUE(same_edge_set(h, reference)) << label;
        EXPECT_EQ(report.stats.group_probes, first.stats.group_probes) << label;
        EXPECT_EQ(report.stats.group_probe_decisions,
                  first.stats.group_probe_decisions)
            << label;
        EXPECT_EQ(report.stats.group_probe_early_exits,
                  first.stats.group_probe_early_exits)
            << label;
    }
}

TEST(GroupProbeEquivalenceTest, PlainRunVerdictsMatchDijkstra) {
    // The kernel's contract, checked target by target against one-sided
    // Dijkstra on the same graph: a slot is far iff its distance exceeds
    // its radius, a settled slot's bound is its exact distance, and the
    // settled frontier is exact -- and complete out to certified_radius().
    Rng rng(1717);
    const EuclideanMetric pts = uniform_points(120, 2, 60.0, rng);
    MetricCandidateSource source(pts);
    SpannerSession session;
    BuildOptions options;
    options.stretch = 1.6;
    const Graph g = session.build(source, options);

    BatchedProbe probe;
    DijkstraWorkspace ws;
    const auto exact = [&](VertexId s, VertexId x) {
        return ws.distance(g, s, x, kInfiniteWeight);
    };
    for (const VertexId source_v : {VertexId{0}, VertexId{17}, VertexId{63}}) {
        // Targets with spread radii: some settle, some certify far, and
        // the nondecreasing-radii invariant mirrors the engine's groups.
        // Repeating a target checks that duplicate slots are decided
        // independently.
        std::vector<VertexId> targets;
        std::vector<Weight> radii;
        for (VertexId t = 1; t < 40; ++t) {
            if (t == source_v) continue;
            targets.push_back(t);
            radii.push_back(0.4 * static_cast<Weight>(targets.size()));
        }
        targets.push_back(targets.front());
        radii.push_back(radii.back() + 1.0);
        probe.run(g, source_v, targets, radii);

        std::size_t far = 0;
        for (std::size_t i = 0; i < targets.size(); ++i) {
            const Weight d = exact(source_v, targets[i]);
            EXPECT_EQ(probe.target_far(i), d > radii[i]) << "slot " << i;
            if (probe.target_far(i)) {
                ++far;
                EXPECT_EQ(probe.target_bound(i), kInfiniteWeight) << "slot " << i;
            } else {
                EXPECT_EQ(probe.target_bound(i), d) << "slot " << i;
            }
        }
        EXPECT_GT(far, 0u);
        EXPECT_LT(far, targets.size());

        std::unordered_map<VertexId, Weight> settled;
        for (const auto& [x, d] : probe.settled()) {
            EXPECT_EQ(d, exact(source_v, x)) << "vertex " << x;
            settled.emplace(x, d);
        }
        const Weight r = probe.certified_radius();
        for (VertexId x = 0; x < g.num_vertices(); ++x) {
            if (exact(source_v, x) <= r) {
                EXPECT_TRUE(settled.contains(x)) << "vertex " << x << " radius " << r;
            }
        }
    }
}

}  // namespace
}  // namespace gsp
