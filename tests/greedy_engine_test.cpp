// Kernel-equivalence suite for the unified GreedyEngine: every combination
// of the three optimisations (bidirectional, ball sharing, bound sketch)
// must return exactly the edge set of the textbook greedy loop
// (reference_greedy.hpp), on every instance family -- that is the engine's
// core contract, and what lets bench_ablation attribute speed differences
// purely to the optimisations.
#include "core/greedy_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/greedy.hpp"
#include "gen/graphs.hpp"
#include "graph/graph.hpp"
#include "reference_greedy.hpp"
#include "util/random.hpp"

namespace gsp {
namespace {

GreedyEngineOptions config_from_mask(double t, unsigned mask) {
    GreedyEngineOptions options;
    options.stretch = t;
    options.bidirectional = (mask & 1u) != 0;
    options.ball_sharing = (mask & 2u) != 0;
    options.bound_sketch = (mask & 4u) != 0;
    return options;
}

std::string mask_name(unsigned mask) {
    std::string s;
    if (mask & 1u) s += "+bidirectional";
    if (mask & 2u) s += "+ball_sharing";
    if (mask & 4u) s += "+bound_sketch";
    return s.empty() ? "naive" : s;
}

/// Run a configured engine over a graph's sorted edge candidates (this
/// suite tests the engine itself, not the front doors).
Graph run_with(const Graph& g, const GreedyEngineOptions& options,
               GreedyStats* stats = nullptr) {
    GreedyEngine engine(g.num_vertices(), options);
    return engine.run(Graph(g.num_vertices()), sorted_graph_candidates(g), stats);
}

/// The instance families named by the issue: Erdos-Renyi, grid, Euclidean
/// (random geometric, with Euclidean edge weights).
std::vector<std::pair<std::string, Graph>> instance_family(std::uint64_t seed) {
    Rng rng(seed);
    std::vector<std::pair<std::string, Graph>> out;
    out.emplace_back("erdos_renyi", erdos_renyi(60, 0.15, {.lo = 0.5, .hi = 3.0}, rng));
    out.emplace_back("grid", grid_graph(8, 9, {.lo = 1.0, .hi = 2.0}, rng));
    out.emplace_back("euclidean", random_geometric(70, 0.25, rng));
    return out;
}

class EngineEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, double>> {};

TEST_P(EngineEquivalenceTest, EveryConfigurationMatchesTheReference) {
    const auto [seed, t] = GetParam();
    for (const auto& [name, g] : instance_family(seed)) {
        const Graph reference = reference_greedy(g, t);
        GreedyStats naive_stats;
        (void)run_with(g, config_from_mask(t, 0), &naive_stats);
        EXPECT_EQ(naive_stats.dijkstra_runs, g.num_edges()) << name;
        for (unsigned mask = 0; mask <= 7; ++mask) {
            GreedyStats stats;
            const Graph h = run_with(g, config_from_mask(t, mask), &stats);
            EXPECT_TRUE(same_edge_set(h, reference))
                << name << " diverges under " << mask_name(mask) << " at t=" << t;
            EXPECT_EQ(stats.edges_examined, g.num_edges());
            // No configuration may run *more* queries than the naive loop.
            EXPECT_LE(stats.dijkstra_runs, naive_stats.dijkstra_runs)
                << name << " " << mask_name(mask);
            // The incremental store builds once per run; no per-bucket
            // refreeze.
            EXPECT_EQ(stats.csr_rebuilds, 1u);
            if ((mask & 2u) == 0) {
                EXPECT_EQ(stats.balls_computed, 0u);
            }
            if ((mask & 4u) == 0) {
                EXPECT_EQ(stats.sketch_hits, 0u) << mask_name(mask);
                EXPECT_EQ(stats.sketch_accepts, 0u) << mask_name(mask);
                // The landmark table rides on the sketch switch.
                EXPECT_EQ(stats.landmark_refreshes, 0u) << mask_name(mask);
                EXPECT_EQ(stats.landmark_rejects, 0u) << mask_name(mask);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, EngineEquivalenceTest,
                         ::testing::Combine(::testing::Values(3u, 17u, 101u),
                                            ::testing::Values(1.1, 1.5, 2.0, 4.0)));

TEST(GreedyEngineTest, DeterministicAcrossRuns) {
    Rng rng(9);
    const Graph g = erdos_renyi(80, 0.2, {.lo = 0.5, .hi = 4.0}, rng);
    GreedyEngineOptions options;  // full engine
    options.stretch = 2.0;
    const Graph a = run_with(g, options);
    const Graph b = run_with(g, options);
    // Stronger than same_edge_set: identical insertion sequence.
    ASSERT_EQ(a.num_edges(), b.num_edges());
    for (EdgeId id = 0; id < a.num_edges(); ++id) {
        EXPECT_EQ(a.edge(id), b.edge(id));
    }
}

TEST(GreedyEngineTest, ReusedEngineInstanceIsStateless) {
    // One engine, two runs over different candidate lists: the scratch
    // (bounds, groups, epochs) must fully reset between runs.
    Rng rng(21);
    const Graph g1 = erdos_renyi(40, 0.3, {.lo = 1.0, .hi = 2.0}, rng);
    const Graph g2 = grid_graph(5, 8, {.lo = 1.0, .hi = 2.0}, rng);
    GreedyEngineOptions options;
    options.stretch = 1.5;
    // Same vertex count keeps one engine valid for both.
    ASSERT_EQ(g1.num_vertices(), g2.num_vertices());
    GreedyEngine engine(g1.num_vertices(), options);
    const Graph a1 = engine.run(Graph(g1.num_vertices()), sorted_graph_candidates(g1));
    const Graph a2 = engine.run(Graph(g2.num_vertices()), sorted_graph_candidates(g2));
    EXPECT_TRUE(same_edge_set(a1, reference_greedy(g1, 1.5)));
    EXPECT_TRUE(same_edge_set(a2, reference_greedy(g2, 1.5)));
}

TEST(GreedyEngineTest, RejectsUnsortedCandidates) {
    GreedyEngineOptions opts;
    opts.stretch = 2.0;
    GreedyEngine engine(3, opts);
    const std::vector<GreedyCandidate> unsorted = {{0, 1, 2.0}, {1, 2, 1.0}};
    EXPECT_THROW(engine.run(Graph(3), unsorted), std::invalid_argument);
}

/// Serves a fixed candidate list in chunks of at most `size`.
class FixedChunks final : public CandidateChunkSource {
public:
    FixedChunks(std::vector<GreedyCandidate> all, std::size_t size)
        : all_(std::move(all)), size_(size) {}

    bool next_chunk(std::size_t, std::vector<GreedyCandidate>& out) override {
        if (next_ == all_.size()) return false;
        const std::size_t end = std::min(next_ + size_, all_.size());
        out.insert(out.end(), all_.begin() + static_cast<std::ptrdiff_t>(next_),
                   all_.begin() + static_cast<std::ptrdiff_t>(end));
        next_ = end;
        return true;
    }

private:
    std::vector<GreedyCandidate> all_;
    std::size_t size_;
    std::size_t next_ = 0;
};

TEST(GreedyEngineTest, RejectsNonFiniteThresholds) {
    // An unreachable pair's distance is +Inf, and +Inf <= +Inf: a threshold
    // that overflows would silently reject every edge it guards. Both the
    // span and the chunked entry points refuse such input up front; only
    // the last (heaviest) candidate's threshold needs to overflow.
    GreedyEngineOptions opts;
    opts.stretch = 2.0;
    GreedyEngine engine(3, opts);
    const std::vector<GreedyCandidate> overflow = {{0, 1, 1.0}, {1, 2, 9e307}};
    EXPECT_THROW(engine.run(Graph(3), overflow), std::invalid_argument);
    std::vector<GreedyCandidate> buffer;
    FixedChunks chunks(overflow, 1);
    EXPECT_THROW(engine.run(Graph(3), chunks, buffer), std::invalid_argument);
    // The largest weight whose threshold stays finite is accepted.
    const std::vector<GreedyCandidate> fine = {{0, 1, 1.0}, {1, 2, 8e307}};
    EXPECT_EQ(engine.run(Graph(3), fine).num_edges(), 2u);
    FixedChunks fine_chunks(fine, 1);
    EXPECT_EQ(engine.run(Graph(3), fine_chunks, buffer).num_edges(), 2u);
}

TEST(GreedyEngineTest, RejectsBadOptions) {
    GreedyEngineOptions bad_stretch;
    bad_stretch.stretch = 0.5;
    EXPECT_THROW(GreedyEngine(3, bad_stretch), std::invalid_argument);
    GreedyEngineOptions nan_stretch;
    nan_stretch.stretch = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(GreedyEngine(3, nan_stretch), std::invalid_argument);
    GreedyEngineOptions inf_stretch;
    inf_stretch.stretch = std::numeric_limits<double>::infinity();
    EXPECT_THROW(GreedyEngine(3, inf_stretch), std::invalid_argument);
    GreedyEngineOptions bad_ratio;
    bad_ratio.bucket_ratio = 1.0;
    EXPECT_THROW(GreedyEngine(3, bad_ratio), std::invalid_argument);
    // The engine runs the same EngineTuning::validate as BuildOptions: a
    // NaN or negative accept gate is rejected here too.
    GreedyEngineOptions nan_gate;
    nan_gate.parallel_accept_gate = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(GreedyEngine(3, nan_gate), std::invalid_argument);
    GreedyEngineOptions negative_gate;
    negative_gate.parallel_accept_gate = -0.5;
    EXPECT_THROW(GreedyEngine(3, negative_gate), std::invalid_argument);
    GreedyEngineOptions bad_ways;
    bad_ways.sketch_ways = 3;
    EXPECT_THROW(GreedyEngine(3, bad_ways), std::invalid_argument);
}

/// Thread counts the issue names: serial, small, oversubscribed, hardware
/// (0 resolves to std::thread::hardware_concurrency).
const std::size_t kThreadCounts[] = {1, 2, 4, 0};

TEST(ParallelEngineTest, EdgeSetMatchesReferenceAtEveryThreadCount) {
    // The core contract of the three-stage pipeline: stage-2 facts are
    // sound and stage 3 re-verifies every surviving accept in tie order,
    // so the edge set is the reference's no matter how many workers
    // prefilter the buckets.
    for (const std::uint64_t seed : {3u, 101u}) {
        for (const auto& [name, g] : instance_family(seed)) {
            const Graph reference = reference_greedy(g, 2.0);
            for (const std::size_t threads : kThreadCounts) {
                for (const bool sharing : {true, false}) {
                    for (const bool sketch : {true, false}) {
                        for (const double accept_gate : {0.25, 1.0}) {
                            GreedyEngineOptions options;
                            options.stretch = 2.0;
                            options.ball_sharing = sharing;
                            options.bound_sketch = sketch;
                            options.num_threads = threads;
                            options.parallel_accept_gate = accept_gate;
                            GreedyStats stats;
                            const Graph h = run_with(g, options, &stats);
                            EXPECT_TRUE(same_edge_set(h, reference))
                                << name << " diverges at num_threads=" << threads
                                << " sharing=" << sharing << " sketch=" << sketch
                                << " gate=" << accept_gate;
                            EXPECT_EQ(stats.edges_examined, g.num_edges());
                            if (!sharing) {
                                EXPECT_EQ(stats.balls_computed, 0u);
                            }
                        }
                    }
                }
            }
        }
    }
}

TEST(ParallelEngineTest, StatsAreScheduleIndependent) {
    // Stage-2 decisions (which probes run, what they record) are pure
    // functions of the bucket-start snapshot, so even the *counters* must
    // be reproducible run to run at any fixed thread count.
    Rng rng(55);
    const Graph g = erdos_renyi(90, 0.15, {.lo = 0.5, .hi = 4.0}, rng);
    GreedyEngineOptions options;
    options.stretch = 1.8;
    options.num_threads = 4;
    GreedyStats a;
    GreedyStats b;
    const Graph ha = run_with(g, options, &a);
    const Graph hb = run_with(g, options, &b);
    EXPECT_TRUE(same_edge_set(ha, hb));
    EXPECT_EQ(a.dijkstra_runs, b.dijkstra_runs);
    EXPECT_EQ(a.balls_computed, b.balls_computed);
    EXPECT_EQ(a.cache_hits, b.cache_hits);
    EXPECT_EQ(a.snapshot_accepts, b.snapshot_accepts);
    EXPECT_EQ(a.sketch_hits, b.sketch_hits);
    EXPECT_EQ(a.sketch_accepts, b.sketch_accepts);
    EXPECT_EQ(a.landmark_refreshes, b.landmark_refreshes);
    EXPECT_EQ(a.landmark_rejects, b.landmark_rejects);
    EXPECT_EQ(a.probe_pushes, b.probe_pushes);
    EXPECT_EQ(a.csr_rebuilds, b.csr_rebuilds);
    EXPECT_EQ(a.csr_compactions, b.csr_compactions);
    EXPECT_EQ(a.handoff_peak_bytes, b.handoff_peak_bytes);
    EXPECT_EQ(a.edges_added, b.edges_added);
}

TEST(ParallelEngineTest, RepairedRejectsMatchExactDistances) {
    // A stale "far at snapshot" bit is only a tentative accept: when an
    // earlier insertion of the same batch created a <= threshold path,
    // the exact re-check must reject, as the reference does. Unit
    // weights + tiny batches manufacture exactly that: accepts early in
    // the batch shorten later candidates' pairs below their thresholds.
    for (const std::uint64_t seed : {5u, 23u, 77u}) {
        Rng rng(seed);
        const Graph g = erdos_renyi(80, 0.3, {.lo = 1.0, .hi = 1.0}, rng);
        const Graph want = reference_greedy(g, 2.5);
        for (const std::size_t batch : {8u, 64u}) {
            GreedyEngineOptions options;
            options.stretch = 2.5;
            options.num_threads = 2;
            options.parallel_batch = batch;
            options.ball_share_min_group = 2;
            GreedyStats stats;
            const Graph h = run_with(g, options, &stats);
            EXPECT_TRUE(same_edge_set(h, want)) << "seed " << seed << " batch " << batch;
        }
    }
}

TEST(ParallelEngineTest, AcceptHeavyBatchesForceNoFullRefreeze) {
    // The acceptance criterion of the incremental store: an accept-heavy
    // parallel run used to refreeze the CSR once per bucket *plus* once
    // per stage-2 batch that followed an insertion -- O(m) each. The
    // gap-buffered view mirrors insertions at O(degree), so the whole run
    // pays exactly one full build no matter how many batches insert.
    Rng rng(12);
    const Graph g = random_graph_nm(600, 4800, {.lo = 1.0, .hi = 2.0}, rng);
    GreedyEngineOptions options;
    options.stretch = 2.0;          // accept-heavy regime (MST-ish phases)
    options.num_threads = 2;
    options.parallel_batch = 64;    // many batches per bucket
    options.parallel_accept_gate = 1.0;  // force stage 2 for every batch
    GreedyStats stats;
    const Graph h = run_with(g, options, &stats);
    EXPECT_TRUE(same_edge_set(h, reference_greedy(g, 2.0)));
    EXPECT_GT(stats.edges_added, 100u);  // genuinely accept-heavy
    EXPECT_EQ(stats.csr_rebuilds, 1u);   // one build, zero refreezes
    // Amortized merge-on-threshold keeps compactions rare: a run that
    // inserts k edges performs O(k / threshold) compactions, not O(k).
    EXPECT_LE(stats.csr_compactions, 8u);
}

TEST(ParallelEngineTest, SnapshotCertificatesAreConsumed) {
    // On a reject-heavy instance most accepts happen with no insertion
    // since the bucket snapshot, so the insertion loop should be consuming
    // stage-2 "far at snapshot" certificates instead of re-querying.
    Rng rng(8);
    const Graph g = erdos_renyi(120, 0.2, {.lo = 1.0, .hi = 8.0}, rng);
    GreedyEngineOptions options;
    options.stretch = 3.0;  // deep rejection regime
    options.num_threads = 2;
    options.ball_sharing = false;      // route everything through point probes
    options.parallel_accept_gate = 1.0;  // prefilter every batch
    GreedyStats stats;
    const Graph h = run_with(g, options, &stats);
    EXPECT_TRUE(same_edge_set(h, reference_greedy(g, 3.0)));
    EXPECT_GT(stats.snapshot_accepts, 0u);
}

TEST(ParallelEngineTest, BallsNeverLeakAcrossBatchBoundaries) {
    // Regression guard: a ball's harvest only writes bounds for its own
    // batch-scoped group, so ball reuse must be keyed to the *batch*
    // sequence, not the bucket -- a bucket-keyed ball can be revalidated
    // by a tie-weight same-source candidate of the next batch whose bound
    // was never harvested, and accept an edge the reference rejects.
    //
    // Deterministic trigger (unit weights, one bucket, parallel_batch = 4,
    // t = 2.5, seed edge 3-0): batch 1 accepts 0-1 and 1-2, then source
    // 3's group {(3,1), (3,0)} grows a serial ball (radius 2.5, epoch
    // unchanged afterwards -- both candidates reject), and its 50% accept
    // rate makes stage 2 skip batch 2. Batch 2 holds a duplicate (3,1):
    // its bound was never harvested (different batch group), no insertion
    // happened since the ball, and the radius covers the tie threshold --
    // the buggy bucket-keyed guard accepts it even though the spanner
    // distance is 2 <= 2.5.
    const std::vector<GreedyCandidate> cands = {
        {0, 1, 1.0}, {1, 2, 1.0}, {3, 1, 1.0}, {3, 0, 1.0},  // batch 1
        {3, 1, 1.0},                                         // batch 2
    };
    const auto seeded = [] {
        Graph h(4);
        h.add_edge(3, 0, 1.0);
        return h;
    };
    const Graph want = reference_greedy_loop(seeded(), cands, 2.5);
    ASSERT_EQ(want.num_edges(), 3u);  // seed + 0-1 + 1-2; both (3,1) and (3,0) reject

    GreedyEngineOptions options;
    options.stretch = 2.5;
    options.num_threads = 2;
    options.parallel_batch = 4;
    options.parallel_accept_gate = 0.25;
    options.ball_share_min_group = 2;
    GreedyEngine parallel(4, options);
    const Graph got = parallel.run(seeded(), cands);
    EXPECT_TRUE(same_edge_set(got, want));

    // Broader randomized sweep over the same hazard: unit weights (one
    // bucket, constant tie thresholds) with tiny batches and mixed
    // accept/reject phases at t = 2.5.
    for (const std::uint64_t seed : {4u, 42u, 99u, 7u}) {
        Rng rng(seed);
        const Graph g = erdos_renyi(80, 0.3, {.lo = 1.0, .hi = 1.0}, rng);
        const Graph want_h = reference_greedy(g, 2.5);
        for (const std::size_t batch : {4u, 8u, 32u}) {
            GreedyEngineOptions sweep;
            sweep.stretch = 2.5;
            sweep.num_threads = 2;
            sweep.parallel_batch = batch;
            sweep.parallel_accept_gate = 0.25;
            sweep.ball_share_min_group = 2;
            const Graph h = run_with(g, sweep);
            EXPECT_TRUE(same_edge_set(h, want_h))
                << "seed " << seed << " batch " << batch;
        }
    }
}

TEST(GreedyEngineTest, SeededSpannerEdgesAreRespected) {
    // Pre-seeded edges (the approximate-greedy E0 set) participate in
    // distance queries from the first bucket on.
    Graph seed(4);
    seed.add_edge(0, 1, 1.0);
    seed.add_edge(1, 2, 1.0);
    GreedyEngineOptions opts;
    opts.stretch = 2.0;
    GreedyEngine engine(4, opts);
    // Candidate (0, 2) has witness path 0-1-2 of weight 2 <= 2 * 1.5.
    const std::vector<GreedyCandidate> cands = {{0, 2, 1.5}, {2, 3, 2.0}};
    const Graph h = engine.run(std::move(seed), cands);
    EXPECT_EQ(h.num_edges(), 3u);
    EXPECT_FALSE(h.has_edge(0, 2));
    EXPECT_TRUE(h.has_edge(2, 3));
}

}  // namespace
}  // namespace gsp
