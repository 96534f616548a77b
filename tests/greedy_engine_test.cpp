// Kernel-equivalence suite for the unified GreedyEngine: every combination
// of the three optimisations (bidirectional, ball sharing, CSR snapshots)
// must return exactly the same edge set as the naive kernel, on every
// instance family -- that is the engine's core contract, and what lets
// bench_ablation attribute speed differences purely to the optimisations.
#include "core/greedy_engine.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/greedy.hpp"
#include "gen/graphs.hpp"
#include "graph/graph.hpp"
#include "util/random.hpp"

namespace gsp {
namespace {

GreedyEngineOptions config_from_mask(double t, unsigned mask) {
    GreedyEngineOptions options;
    options.stretch = t;
    options.bidirectional = (mask & 1u) != 0;
    options.ball_sharing = (mask & 2u) != 0;
    options.csr_snapshot = (mask & 4u) != 0;
    options.bound_sketch = (mask & 8u) != 0;
    return options;
}

std::string mask_name(unsigned mask) {
    std::string s;
    if (mask & 1u) s += "+bidirectional";
    if (mask & 2u) s += "+ball_sharing";
    if (mask & 4u) s += "+csr_snapshot";
    if (mask & 8u) s += "+bound_sketch";
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

TEST_P(EngineEquivalenceTest, EveryConfigurationMatchesTheNaiveKernel) {
    const auto [seed, t] = GetParam();
    for (const auto& [name, g] : instance_family(seed)) {
        GreedyStats naive_stats;
        const Graph naive = run_with(g, config_from_mask(t, 0), &naive_stats);
        EXPECT_EQ(naive_stats.dijkstra_runs, g.num_edges()) << name;
        for (unsigned mask = 1; mask <= 15; ++mask) {
            GreedyStats stats;
            const Graph h = run_with(g, config_from_mask(t, mask), &stats);
            EXPECT_TRUE(same_edge_set(h, naive))
                << name << " diverges under " << mask_name(mask) << " at t=" << t;
            EXPECT_EQ(stats.edges_examined, g.num_edges());
            // No configuration may run *more* queries than the naive loop.
            EXPECT_LE(stats.dijkstra_runs, naive_stats.dijkstra_runs)
                << name << " " << mask_name(mask);
            if ((mask & 4u) != 0) {
                // The incremental store builds once per run; no per-bucket
                // refreeze.
                EXPECT_EQ(stats.csr_rebuilds, 1u);
            } else {
                EXPECT_EQ(stats.csr_rebuilds, 0u);
            }
            if ((mask & 2u) == 0) {
                EXPECT_EQ(stats.balls_computed, 0u);
            }
            if ((mask & 8u) == 0) {
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
    EXPECT_TRUE(same_edge_set(a1, greedy_spanner(g1, 1.5)));
    EXPECT_TRUE(same_edge_set(a2, greedy_spanner(g2, 1.5)));
}

TEST(GreedyEngineTest, RejectsUnsortedCandidates) {
    GreedyEngineOptions opts;
    opts.stretch = 2.0;
    GreedyEngine engine(3, opts);
    const std::vector<GreedyCandidate> unsorted = {{0, 1, 2.0}, {1, 2, 1.0}};
    EXPECT_THROW(engine.run(Graph(3), unsorted), std::invalid_argument);
}

TEST(GreedyEngineTest, RejectsBadOptions) {
    GreedyEngineOptions bad_stretch;
    bad_stretch.stretch = 0.5;
    EXPECT_THROW(GreedyEngine(3, bad_stretch), std::invalid_argument);
    GreedyEngineOptions nan_stretch;
    nan_stretch.stretch = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(GreedyEngine(3, nan_stretch), std::invalid_argument);
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

TEST(GreedyEngineTest, PrefilterOnlyShortCircuitsNeverChangesOutput) {
    // A sound reject-only prefilter (here: exact distances on the live
    // spanner, computed independently) must not change any decision.
    Rng rng(33);
    const Graph g = erdos_renyi(50, 0.25, {.lo = 0.5, .hi = 3.0}, rng);
    const double t = 1.8;

    std::size_t rejects = 0;
    const Graph* live = nullptr;
    GreedyEngineOptions options;
    options.stretch = t;
    options.on_bucket = [&](const Graph& h, Weight) { live = &h; };
    options.prefilter = [&](VertexId u, VertexId v, Weight threshold) {
        DijkstraWorkspace ws(live->num_vertices());
        // NOTE: `live` lags intra-bucket insertions, so distances measured
        // on it are upper bounds on the current spanner distance - sound.
        if (ws.distance(*live, u, v, threshold) <= threshold) {
            ++rejects;
            return true;
        }
        return false;
    };
    GreedyStats stats;
    const Graph h = run_with(g, options, &stats);
    EXPECT_TRUE(same_edge_set(h, greedy_spanner(g, t)));
    EXPECT_EQ(stats.prefilter_rejects, rejects);
    EXPECT_GT(rejects, 0u);
}

/// Thread counts the issue names: serial, small, oversubscribed, hardware
/// (0 resolves to std::thread::hardware_concurrency).
const std::size_t kThreadCounts[] = {1, 2, 4, 0};

TEST(ParallelEngineTest, EdgeSetMatchesNaiveAtEveryThreadCount) {
    // The core contract of the three-stage pipeline: stage-2 facts are
    // sound and stage 3 re-verifies every surviving accept in tie order,
    // so the edge set is identical to the naive kernel no matter how many
    // workers prefilter the buckets.
    for (const std::uint64_t seed : {3u, 101u}) {
        for (const auto& [name, g] : instance_family(seed)) {
            const Graph naive = run_with(g, config_from_mask(2.0, 0));
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
                            EXPECT_TRUE(same_edge_set(h, naive))
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
    EXPECT_EQ(a.csr_rebuilds, b.csr_rebuilds);
    EXPECT_EQ(a.csr_compactions, b.csr_compactions);
    EXPECT_EQ(a.handoff_peak_bytes, b.handoff_peak_bytes);
    EXPECT_EQ(a.edges_added, b.edges_added);
}

TEST(ParallelEngineTest, RepairedRejectsMatchExactDistances) {
    // A stale "far at snapshot" bit is only a tentative accept: when an
    // earlier insertion of the same batch created a <= threshold path,
    // the exact re-check must reject, as the naive kernel does. Unit
    // weights + tiny batches manufacture exactly that: accepts early in
    // the batch shorten later candidates' pairs below their thresholds.
    for (const std::uint64_t seed : {5u, 23u, 77u}) {
        Rng rng(seed);
        const Graph g = erdos_renyi(80, 0.3, {.lo = 1.0, .hi = 1.0}, rng);
        const Graph naive_h = run_with(g, config_from_mask(2.5, 0));
        for (const std::size_t batch : {8u, 64u}) {
            GreedyEngineOptions options;
            options.stretch = 2.5;
            options.num_threads = 2;
            options.parallel_batch = batch;
            options.ball_share_min_group = 2;
            GreedyStats stats;
            const Graph h = run_with(g, options, &stats);
            EXPECT_TRUE(same_edge_set(h, naive_h)) << "seed " << seed
                                                   << " batch " << batch;
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
    EXPECT_TRUE(same_edge_set(h, greedy_spanner(g, 2.0)));
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
    EXPECT_TRUE(same_edge_set(h, greedy_spanner(g, 3.0)));
    EXPECT_GT(stats.snapshot_accepts, 0u);
}

TEST(ParallelEngineTest, BallsNeverLeakAcrossBatchBoundaries) {
    // Regression guard: a ball's harvest only writes bounds for its own
    // batch-scoped group, so ball reuse must be keyed to the *batch*
    // sequence, not the bucket -- a bucket-keyed ball can be revalidated
    // by a tie-weight same-source candidate of the next batch whose bound
    // was never harvested, and accept an edge the naive kernel rejects.
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
    GreedyEngineOptions naive_options;
    naive_options.stretch = 2.5;
    naive_options.bidirectional = false;
    naive_options.ball_sharing = false;
    naive_options.csr_snapshot = false;
    GreedyEngine naive(4, naive_options);
    const Graph want = naive.run(seeded(), cands);
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
        const Graph naive_h = run_with(g, config_from_mask(2.5, 0));
        for (const std::size_t batch : {4u, 8u, 32u}) {
            GreedyEngineOptions sweep;
            sweep.stretch = 2.5;
            sweep.num_threads = 2;
            sweep.parallel_batch = batch;
            sweep.parallel_accept_gate = 0.25;
            sweep.ball_share_min_group = 2;
            const Graph h = run_with(g, sweep);
            EXPECT_TRUE(same_edge_set(h, naive_h))
                << "seed " << seed << " batch " << batch;
        }
    }
}

TEST(ParallelEngineTest, ConcurrentPrefilterRejectsSoundly) {
    // A sound concurrent oracle (exact distances on a copy of the
    // bucket-start spanner, one workspace per worker) must not change any
    // decision, and its rejects must be counted deterministically.
    Rng rng(33);
    const Graph g = erdos_renyi(60, 0.25, {.lo = 0.5, .hi = 3.0}, rng);
    const double t = 1.8;

    GreedyEngineOptions options;
    options.stretch = t;
    options.num_threads = 3;
    options.parallel_accept_gate = 1.0;  // stage 2 (and its oracle) every batch
    options.prefilter_gate = GreedyEngineOptions::PrefilterGate::kAlways;
    auto frozen = std::make_shared<Graph>(0);
    options.on_bucket = [frozen](const Graph& h, Weight) { *frozen = h; };
    auto oracle_ws = std::make_shared<std::vector<DijkstraWorkspace>>(3);
    options.concurrent_prefilter = [frozen, oracle_ws](std::size_t worker, VertexId u,
                                                       VertexId v, Weight threshold) {
        // `frozen` lags intra-bucket insertions, so its distances are upper
        // bounds on the current spanner distance -- sound reject evidence.
        return (*oracle_ws)[worker].distance(*frozen, u, v, threshold) <= threshold;
    };
    GreedyStats stats;
    const Graph h = run_with(g, options, &stats);
    EXPECT_TRUE(same_edge_set(h, greedy_spanner(g, t)));
    EXPECT_GT(stats.prefilter_rejects, 0u);

    GreedyStats again;
    (void)run_with(g, options, &again);
    EXPECT_EQ(stats.prefilter_rejects, again.prefilter_rejects);
}

TEST(ParallelEngineTest, AdaptiveGateDisablesAWastefulPrefilter) {
    // A prefilter that never rejects anything is pure overhead; the
    // measured-cost gate must switch it off mid-run (and must not change
    // the output, since a never-rejecting filter decides nothing).
    Rng rng(19);
    const Graph g = random_graph_nm(400, 4000, {.lo = 1.0, .hi = 2.0}, rng);
    std::size_t calls = 0;
    GreedyEngineOptions options;
    options.stretch = 2.0;
    options.prefilter = [&calls](VertexId, VertexId, Weight) {
        ++calls;
        // Burn enough work that the gate's timing window sees a real cost.
        volatile double sink = 0.0;
        for (int i = 0; i < 2000; ++i) sink = sink + static_cast<double>(i);
        return false;
    };
    GreedyStats stats;
    const Graph h = run_with(g, options, &stats);
    EXPECT_TRUE(same_edge_set(h, greedy_spanner(g, 2.0)));
    EXPECT_EQ(stats.prefilter_gated_off, 1u);
    EXPECT_LT(calls, g.num_edges());  // stopped consulting it mid-run

    // kAlways is the explicit opt-in that bypasses the gate.
    calls = 0;
    options.prefilter_gate = GreedyEngineOptions::PrefilterGate::kAlways;
    GreedyStats always_stats;
    (void)run_with(g, options, &always_stats);
    EXPECT_EQ(always_stats.prefilter_gated_off, 0u);
    EXPECT_EQ(calls, g.num_edges());
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
