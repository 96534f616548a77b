// The grid-pruned candidate source (geom/uniform_grid + api/grid_source):
//
//  * the window sweep emits candidates in non-decreasing weight order,
//    duplicate-free, matching materialize() chunk by chunk;
//  * near pairs are enumerated *exactly*: the emitted candidates below
//    the near cutoff are precisely the brute-force pairs closer than the
//    cutoff;
//  * every pair of the metric is covered (its covering_candidate -- the
//    pair itself when near, the assigned level's representative pair
//    otherwise -- appears in the stream), the structural fact behind the
//    dumbbell stretch bound;
//  * a greedy build over the source audits within
//    wspd_greedy_stretch_bound(t, s) of the full metric;
//  * the registry entry wires it all up ("greedy-grid");
//  * a window collect with a limit appends a prefix of the unlimited
//    collect and still counts the whole window;
//  * windows over the memory cap are split, and the split sweep still
//    concatenates to the one-shot sorted, deduplicated collect;
//  * the materialized stream matches pinned digests byte for byte.
// The ordering kernel that finalizes each window is tested on its own in
// candidate_order_test.
#include "api/grid_source.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cmath>
#include <limits>
#include <set>
#include <tuple>
#include <vector>

#include "analysis/audit.hpp"
#include "api/registry.hpp"
#include "api/session.hpp"
#include "gen/points.hpp"
#include "geom/uniform_grid.hpp"
#include "util/random.hpp"

namespace gsp {
namespace {

std::vector<GreedyCandidate> drain(GridChunkSource& source, std::size_t soft_cap) {
    std::vector<GreedyCandidate> all;
    std::vector<GreedyCandidate> chunk;
    while (source.next_chunk(soft_cap, chunk)) {
        EXPECT_FALSE(chunk.empty()) << "true return must mean appended candidates";
        all.insert(all.end(), chunk.begin(), chunk.end());
        chunk.clear();
    }
    return all;
}

using Triple = std::tuple<double, VertexId, VertexId>;

std::set<Triple> as_set(const std::vector<GreedyCandidate>& cands) {
    std::set<Triple> out;
    for (const GreedyCandidate& c : cands) out.insert({c.weight, c.u, c.v});
    return out;
}

class GridSourceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GridSourceTest, EmissionIsSortedDeduplicatedAndChunkInvariant) {
    Rng rng(GetParam());
    const EuclideanMetric pts = clustered_points(140, 2, 5, 80.0, 1.5, rng);
    GridCandidateSource source(pts, 9.0);

    std::vector<GreedyCandidate> full;
    source.materialize(full);
    ASSERT_FALSE(full.empty());
    for (std::size_t i = 1; i < full.size(); ++i) {
        EXPECT_GE(full[i].weight, full[i - 1].weight) << "at " << i;
        if (full[i].weight == full[i - 1].weight) {
            EXPECT_NE(std::tie(full[i].u, full[i].v),
                      std::tie(full[i - 1].u, full[i - 1].v))
                << "duplicate candidate at " << i;
        }
        EXPECT_LT(full[i].u, full[i].v) << "canonical endpoint order at " << i;
    }

    // The chunked stream is the same sequence at every soft cap.
    for (const std::size_t cap : {std::size_t{1}, std::size_t{7}, std::size_t{1000}}) {
        GridChunkSource chunks(source.grid());
        const std::vector<GreedyCandidate> streamed = drain(chunks, cap);
        ASSERT_EQ(streamed.size(), full.size()) << "soft_cap=" << cap;
        for (std::size_t i = 0; i < full.size(); ++i) {
            EXPECT_EQ(streamed[i].u, full[i].u) << "soft_cap=" << cap << " at " << i;
            EXPECT_EQ(streamed[i].v, full[i].v) << "soft_cap=" << cap << " at " << i;
            EXPECT_EQ(streamed[i].weight, full[i].weight)
                << "soft_cap=" << cap << " at " << i;
        }
    }
}

TEST_P(GridSourceTest, NearPairsAreExactAndEveryPairIsCovered) {
    Rng rng(GetParam() ^ 0x5a5a);
    const EuclideanMetric pts = uniform_points(120, 2, 50.0, rng);
    GridCandidateSource source(pts, 8.0);
    std::vector<GreedyCandidate> full;
    source.materialize(full);
    const std::set<Triple> emitted = as_set(full);
    const double cutoff = source.grid().near_cutoff();

    // Exact near enumeration: emitted-below-cutoff == brute force. (A
    // representative pair under the cutoff is itself a near pair, so the
    // ring emissions add nothing below it.)
    std::set<Triple> brute;
    for (VertexId i = 0; i < pts.size(); ++i) {
        for (VertexId j = i + 1; j < pts.size(); ++j) {
            const double d = pts.distance(i, j);
            if (d < cutoff) brute.insert({d, i, j});
        }
    }
    std::set<Triple> emitted_near;
    for (const Triple& t : emitted) {
        if (std::get<0>(t) < cutoff) emitted_near.insert(t);
    }
    EXPECT_EQ(emitted_near, brute);

    // Full coverage: the covering candidate of every pair is in the stream.
    for (VertexId i = 0; i < pts.size(); ++i) {
        for (VertexId j = i + 1; j < pts.size(); ++j) {
            const GreedyCandidate c = source.grid().covering_candidate(i, j);
            EXPECT_TRUE(emitted.count({c.weight, c.u, c.v}))
                << "pair (" << i << ", " << j << ") uncovered";
        }
    }
}

TEST_P(GridSourceTest, GreedyBuildAuditsWithinTheDumbbellBound) {
    Rng rng(GetParam() ^ 0x33cc);
    const EuclideanMetric pts = clustered_points(90, 2, 4, 60.0, 1.0, rng);
    const double t = 1.5;
    const double s = 10.0;
    GridCandidateSource source(pts, s);
    SpannerSession session;
    BuildOptions options;
    options.stretch = t;
    BuildReport report;
    const Graph h = session.build(source, options, &report);
    EXPECT_EQ(report.stretch_target, wspd_greedy_stretch_bound(t, s));
    EXPECT_LE(max_stretch_metric(pts, h), wspd_greedy_stretch_bound(t, s) + 1e-9);
    EXPECT_GT(report.candidates, 0u);
    EXPECT_EQ(report.candidates, report.stats.candidates_streamed);
    // The streaming path really streamed: the peak resident chunk stayed
    // under the full candidate list.
    EXPECT_LE(report.stats.candidate_buffer_peak_bytes,
              report.candidates * sizeof(GreedyCandidate));
}

INSTANTIATE_TEST_SUITE_P(Seeds, GridSourceTest, ::testing::Values(5u, 67u, 491u));

TEST(GridSourceTest, RegistryEntryBuildsAndValidates) {
    Rng rng(11);
    const EuclideanMetric pts = uniform_points(100, 2, 40.0, rng);
    SpannerSession session;
    BuildOptions options;
    options.stretch = 2.0;
    options.geometric.wspd_separation = 8.0;
    BuildReport report;
    const Graph h = AlgorithmRegistry::global().build("greedy-grid", session,
                                                      BuildInput::of(pts), options);
    EXPECT_GT(h.num_edges(), 0u);
    EXPECT_GE(h.num_edges(), pts.size() - 1);  // spans the point set
    const AlgorithmInfo* info = AlgorithmRegistry::global().find("greedy-grid");
    ASSERT_NE(info, nullptr);
    EXPECT_EQ(info->input, InputKind::kEuclidean2D);
    EXPECT_TRUE(info->uses_engine);
}

TEST(GridSourceTest, ExplicitSketchWaysWinOverTheGridDefault) {
    // sketch_ways = 0 lets the grid pick its 32 ways; an explicit 4 must
    // reach the engine as 4. Fewer ways evict anchors the via-landmark
    // reject needs, so the counters move while the edges do not.
    Rng rng(123);
    const EuclideanMetric pts = uniform_points(800, 2, 200.0, rng);
    const auto build = [&](std::size_t ways, BuildReport& report) {
        GridCandidateSource source(pts, 5.0);
        SpannerSession session;
        BuildOptions options;
        options.stretch = 2.0;
        options.engine.sketch_ways = ways;
        return session.build(source, options, &report);
    };
    BuildReport chosen;
    BuildReport explicit4;
    const Graph a = build(0, chosen);
    const Graph b = build(4, explicit4);
    EXPECT_EQ(edge_sequence_digest(a), edge_sequence_digest(b));
    EXPECT_GT(chosen.stats.coarse_rejects, 0u);
    EXPECT_NE(chosen.stats.coarse_rejects, explicit4.stats.coarse_rejects);
    // An explicit 32 is the grid's own choice, counter for counter.
    BuildReport explicit32;
    (void)build(32, explicit32);
    EXPECT_EQ(chosen.stats.coarse_rejects, explicit32.stats.coarse_rejects);
}

TEST(GridSourceTest, RejectsBadSeparationAndNon2D) {
    Rng rng(29);
    const EuclideanMetric pts2 = uniform_points(10, 2, 5.0, rng);
    const EuclideanMetric pts3 = uniform_points(10, 3, 5.0, rng);
    EXPECT_THROW(GridCandidateSource(pts2, 4.0), std::invalid_argument);
    EXPECT_THROW(GridCandidateSource(pts2, -1.0, 0.0), std::invalid_argument);
    EXPECT_THROW(GridCandidateSource(pts3, 8.0), std::invalid_argument);
    // Epsilon-derived separation (4 + 8/eps) is always in the finite regime.
    GridCandidateSource derived(pts2, 0.0, 0.5);
    EXPECT_DOUBLE_EQ(derived.separation(), 20.0);
}

TEST(GridSourceTest, DegenerateInputs) {
    // Empty and singleton point sets produce empty candidate streams;
    // duplicate points produce zero-weight candidates that still obey the
    // ordering contract.
    const std::vector<std::pair<double, double>> no_pts;
    const EuclideanMetric empty = make_euclidean_2d(no_pts);
    GridCandidateSource empty_source(empty, 8.0);
    std::vector<GreedyCandidate> cands;
    empty_source.materialize(cands);
    EXPECT_TRUE(cands.empty());

    const std::vector<std::pair<double, double>> dupe_pts = {
        {1.0, 1.0}, {1.0, 1.0}, {1.0, 1.0}, {4.0, 5.0}};
    const EuclideanMetric dupes = make_euclidean_2d(dupe_pts);
    GridCandidateSource dupe_source(dupes, 8.0);
    cands.clear();
    dupe_source.materialize(cands);
    std::set<Triple> emitted = as_set(cands);
    for (VertexId i = 0; i < 4; ++i) {
        for (VertexId j = i + 1; j < 4; ++j) {
            const GreedyCandidate c = dupe_source.grid().covering_candidate(i, j);
            EXPECT_TRUE(emitted.count({c.weight, c.u, c.v}));
        }
    }
    EXPECT_TRUE(std::is_sorted(cands.begin(), cands.end(),
                               [](const GreedyCandidate& a, const GreedyCandidate& b) {
                                   return a.weight < b.weight;
                               }));
}

constexpr double kInf = std::numeric_limits<double>::infinity();

bool same_candidates(const GreedyCandidate* a, const GreedyCandidate* b, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
        if (a[i].u != b[i].u || a[i].v != b[i].v || a[i].weight != b[i].weight) return false;
    }
    return true;
}

TEST(GridSourceTest, LimitedCollectIsAPrefixAndCountsTheWholeWindow) {
    Rng rng(17);
    const EuclideanMetric pts = uniform_points(200, 2, 30.0, rng);
    const UniformGrid2D grid(pts, 6.0);
    std::vector<GreedyCandidate> all;
    const std::size_t k = grid.collect_window(0.0, kInf, all);
    ASSERT_EQ(all.size(), k);
    ASSERT_GT(k, 2u);
    for (const std::size_t limit : {std::size_t{0}, std::size_t{1}, k / 2, k, k + 1}) {
        std::vector<GreedyCandidate> out;
        EXPECT_EQ(grid.collect_window(0.0, kInf, out, limit), k) << "limit=" << limit;
        ASSERT_EQ(out.size(), std::min(limit, k)) << "limit=" << limit;
        EXPECT_TRUE(same_candidates(out.data(), all.data(), out.size())) << "limit=" << limit;
    }
}

TEST(GridSourceTest, SplitWindowsMatchOneShotReference) {
    // ~1.07M candidates: several geometric windows overflow the 2^18 cap.
    Rng rng(4099);
    const EuclideanMetric pts = uniform_points(4096, 2, 100.0, rng);
    const UniformGrid2D grid(pts, 12.0);
    constexpr std::size_t kCap = std::size_t{1} << 18;

    // Lattice window of a weight: 0 below near_cutoff / 8, then one per
    // doubling -- the boundaries the sweep splits inside, never across.
    const auto lattice_window = [&](double w) {
        std::size_t idx = 0;
        for (double b = grid.near_cutoff() * 0x1p-3; w >= b; b *= 2.0) ++idx;
        return idx;
    };

    // An unlimited soft cap serves each (possibly split) window whole.
    GridChunkSource source(grid);
    std::vector<GreedyCandidate> streamed;
    std::vector<GreedyCandidate> chunk;
    std::vector<std::size_t> chunks_per_window;
    while (source.next_chunk(std::numeric_limits<std::size_t>::max(), chunk)) {
        ASSERT_FALSE(chunk.empty());
        EXPECT_LE(chunk.size(), kCap);
        const std::size_t win = lattice_window(chunk.front().weight);
        EXPECT_EQ(lattice_window(chunk.back().weight), win) << "window straddles a boundary";
        if (chunks_per_window.size() <= win) chunks_per_window.resize(win + 1, 0);
        ++chunks_per_window[win];
        streamed.insert(streamed.end(), chunk.begin(), chunk.end());
        chunk.clear();
    }
    EXPECT_TRUE(std::any_of(chunks_per_window.begin(), chunks_per_window.end(),
                            [](std::size_t c) { return c > 1; }))
        << "no window was split";

    std::vector<GreedyCandidate> want;
    (void)grid.collect_window(0.0, kInf, want);
    std::stable_sort(want.begin(), want.end(),
                     [](const GreedyCandidate& a, const GreedyCandidate& b) {
                         return std::tie(a.weight, a.u, a.v) < std::tie(b.weight, b.u, b.v);
                     });
    want.erase(std::unique(want.begin(), want.end(),
                           [](const GreedyCandidate& a, const GreedyCandidate& b) {
                               return a.weight == b.weight && a.u == b.u && a.v == b.v;
                           }),
               want.end());
    ASSERT_EQ(streamed.size(), want.size());
    EXPECT_TRUE(same_candidates(streamed.data(), want.data(), want.size()));
}

/// FNV-1a over (u, v, weight bits) of a candidate sequence.
std::uint64_t stream_digest(const std::vector<GreedyCandidate>& cands) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](std::uint64_t x) {
        for (int i = 0; i < 8; ++i) {
            h ^= (x >> (8 * i)) & 0xffU;
            h *= 0x100000001b3ULL;
        }
    };
    for (const GreedyCandidate& c : cands) {
        mix(c.u);
        mix(c.v);
        mix(std::bit_cast<std::uint64_t>(c.weight));
    }
    return h;
}

TEST(GridSourceTest, EmittedStreamMatchesThePinnedDigests) {
    // The whole materialized stream, byte for byte, at the perfbench
    // separation, a wide one, and one whose scan radius exceeds the
    // grid's extent, so the cell-pair scan sizes its min_boxdist table
    // by the extent instead.
    struct Pin {
        std::size_t n;
        double separation;
        std::size_t count;
        std::uint64_t digest;
    };
    const Pin pins[] = {
        {1500, 5.0, 92216, 0x17714bbaf959f5f4ULL},
        {600, 12.0, 85117, 0x684327c35c20fd2aULL},
        {300, 400.0, 44850, 0x638a409b5363620bULL},
    };
    for (const Pin& pin : pins) {
        Rng rng(2024);
        const EuclideanMetric pts = uniform_points(pin.n, 2, 100.0, rng);
        GridCandidateSource source(pts, pin.separation);
        std::vector<GreedyCandidate> full;
        source.materialize(full);
        EXPECT_EQ(full.size(), pin.count) << "s=" << pin.separation;
        EXPECT_EQ(stream_digest(full), pin.digest)
            << "s=" << pin.separation << " digest " << std::hex << stream_digest(full);
    }
}

}  // namespace
}  // namespace gsp
