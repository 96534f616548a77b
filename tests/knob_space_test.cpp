// Knob-space differential test: every decision-preserving EngineTuning
// field, drawn at random together with the candidate source kind {graph,
// metric, wspd, grid}, the worker count {1, 2, 4, hardware}, the chunk
// cap and the chunking mode, must build exactly the edge set of
// EngineTuning::naive() on the same candidate sequence.
//
// Each draw (instance *and* settings) is a pure function of its draw
// seed, which every failure message prints. Replay one draw with
//
//   GSP_KNOB_SEED=<seed> ./knob_space_test
//
// The hand-picked combinations of the other equivalence suites pin the
// corners each mechanism was built for; this suite covers the product
// space between them.
#include "api/session.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "api/build_options.hpp"
#include "api/candidate_source.hpp"
#include "api/grid_source.hpp"
#include "core/greedy_engine.hpp"
#include "gen/graphs.hpp"
#include "gen/points.hpp"
#include "graph/graph.hpp"
#include "metric/euclidean.hpp"
#include "util/random.hpp"

namespace gsp {
namespace {

/// Draws per run: enough to visit every value of every knob many times,
/// few enough for tier-1 (and TSan) time on small instances.
constexpr std::uint64_t kDraws = 160;
constexpr std::uint64_t kBaseSeed = 0x6b6e6f62;  // "knob"

enum class SourceKind { kGraph, kMetric, kWspd, kGrid };

const char* source_name(SourceKind k) {
    switch (k) {
        case SourceKind::kGraph: return "graph";
        case SourceKind::kMetric: return "metric";
        case SourceKind::kWspd: return "wspd";
        case SourceKind::kGrid: return "grid";
    }
    return "?";
}

/// kAuto / kOn / kOff, the declaration order of both tri-state knobs.
const char* mode_name(int mode) {
    return mode == 0 ? "auto" : mode == 1 ? "on" : "off";
}

/// kAuto / kMaterialize / kChunked.
const char* chunking_name(int mode) {
    return mode == 0 ? "auto" : mode == 1 ? "materialize" : "chunked";
}

template <class T, std::size_t N>
const T& pick(Rng& rng, const T (&values)[N]) {
    return values[rng.index(N)];
}

/// One drawn configuration: the instance recipe, the engine settings,
/// and a printable description of both.
struct Draw {
    SourceKind kind = SourceKind::kGraph;
    double stretch = 2.0;
    BuildOptions options;
    bool goal = false;        ///< goal_bound = the instance's metric
    bool probe_goal = false;  ///< probe_goal_bound = the instance's metric
    std::string text;
};

Draw draw_settings(Rng& rng) {
    Draw d;
    d.kind = pick(rng, {SourceKind::kGraph, SourceKind::kMetric, SourceKind::kWspd,
                        SourceKind::kGrid});
    d.stretch = pick(rng, {1.1, 1.5, 2.0, 3.0});
    EngineTuning& e = d.options.engine;
    e.bidirectional = rng.chance(0.5);
    e.ball_sharing = rng.chance(0.7);
    e.csr_snapshot = rng.chance(0.5);
    e.bound_sketch = rng.chance(0.6);
    e.num_threads = pick(rng, {std::size_t{1}, std::size_t{2}, std::size_t{4},
                               std::size_t{0}});
    e.parallel_prefilter = rng.chance(0.8);
    e.parallel_batch = pick(rng, {std::size_t{1}, std::size_t{7}, std::size_t{64},
                                  std::size_t{2048}});
    e.parallel_accept_gate = pick(rng, {0.0, 0.1, 0.25, 0.6, 1.0});
    e.sketch_ways = pick(rng, {std::size_t{1}, std::size_t{2}, std::size_t{4},
                               std::size_t{8}, std::size_t{16}});
    e.bucket_ratio = pick(rng, {1.05, 1.5, 2.0, 4.0});
    e.ball_share_min_group = pick(rng, {std::size_t{1}, std::size_t{2}, std::size_t{16},
                                        std::size_t{64}});
    const int cell = static_cast<int>(rng.index(3));
    const int group = static_cast<int>(rng.index(3));
    e.cell_batching = static_cast<EngineTuning::CellBatching>(cell);
    e.group_probing = static_cast<EngineTuning::GroupProbing>(group);
    e.chunk_soft_cap = pick(rng, {std::size_t{1}, std::size_t{5}, std::size_t{64},
                                  std::size_t{1} << 16});
    const int chunking = static_cast<int>(rng.index(3));
    d.options.chunking = static_cast<BuildOptions::Chunking>(chunking);
    // The goal oracles are sound only when edge weights are metric
    // distances: every source but the weighted-graph one.
    if (d.kind != SourceKind::kGraph) {
        d.goal = rng.chance(0.3);
        d.probe_goal = rng.chance(0.3);
    }
    d.options.stretch = d.stretch;

    std::ostringstream os;
    os << "source=" << source_name(d.kind) << " t=" << d.stretch
       << " bidirectional=" << e.bidirectional << " ball_sharing=" << e.ball_sharing
       << " csr_snapshot=" << e.csr_snapshot << " bound_sketch=" << e.bound_sketch
       << " num_threads=" << e.num_threads
       << " parallel_prefilter=" << e.parallel_prefilter
       << " parallel_batch=" << e.parallel_batch
       << " parallel_accept_gate=" << e.parallel_accept_gate
       << " sketch_ways=" << e.sketch_ways << " bucket_ratio=" << e.bucket_ratio
       << " ball_share_min_group=" << e.ball_share_min_group
       << " cell_batching=" << mode_name(cell) << " group_probing=" << mode_name(group)
       << " goal_bound=" << d.goal << " probe_goal_bound=" << d.probe_goal
       << " chunk_soft_cap=" << e.chunk_soft_cap << " chunking=" << chunking_name(chunking);
    d.text = os.str();
    return d;
}

/// The reference: the naive kernel over the source's materialized
/// candidate sequence, bypassing every source-side engine override.
Graph naive_build(CandidateSource& source, double stretch) {
    std::vector<GreedyCandidate> candidates;
    source.materialize(candidates);
    GreedyEngineOptions options;
    static_cast<EngineTuning&>(options) = EngineTuning::naive();
    options.stretch = stretch;
    GreedyEngine engine(source.num_vertices(), options);
    return engine.run(Graph(source.num_vertices()), candidates);
}

/// Build draw `seed` through a session and compare against naive.
void check_draw(std::uint64_t seed) {
    Rng rng(seed);
    Draw d = draw_settings(rng);
    const std::string label = "replay with GSP_KNOB_SEED=" + std::to_string(seed) +
                              " (" + d.text + ")";
    SCOPED_TRACE(label);

    // Small instances with tie-heavy weight ranges: all-equal weights are
    // one bucket of maximal ties, where stale snapshot facts abound.
    const WeightRange weights = pick(rng, {WeightRange{.lo = 0.5, .hi = 3.0},
                                           WeightRange{.lo = 1.0, .hi = 1.0},
                                           WeightRange{.lo = 1.0, .hi = 2.0}});
    const std::size_t n = 30 + rng.index(60);
    const Graph g = erdos_renyi(n, 0.2, weights, rng);
    const EuclideanMetric pts = rng.chance(0.5)
                                    ? uniform_points(n, 2, 40.0, rng)
                                    : clustered_points(n, 2, 3, 40.0, 1.0, rng);
    if (d.goal) d.options.engine.goal_bound = &pts;
    if (d.probe_goal) d.options.engine.probe_goal_bound = &pts;

    GraphCandidateSource graph_source(g);
    MetricCandidateSource metric_source(pts);
    WspdCandidateSource wspd_source(pts, 8.0);
    GridCandidateSource grid_source(pts, 8.0);
    CandidateSource* source = nullptr;
    switch (d.kind) {
        case SourceKind::kGraph: source = &graph_source; break;
        case SourceKind::kMetric: source = &metric_source; break;
        case SourceKind::kWspd: source = &wspd_source; break;
        case SourceKind::kGrid: source = &grid_source; break;
    }
    const Graph reference = naive_build(*source, d.stretch);
    SpannerSession session;
    BuildReport report;
    const Graph h = session.build(*source, d.options, &report);
    EXPECT_TRUE(same_edge_set(h, reference));
    EXPECT_EQ(report.stats.edges_examined, report.candidates);
}

TEST(KnobSpaceTest, RandomTuningMatchesNaive) {
    if (const char* replay = std::getenv("GSP_KNOB_SEED")) {
        check_draw(std::strtoull(replay, nullptr, 10));
        return;
    }
    for (std::uint64_t i = 0; i < kDraws; ++i) {
        check_draw(kBaseSeed + i);
        if (HasFailure()) return;  // the first failing seed is the one to replay
    }
}

}  // namespace
}  // namespace gsp
