// The shared candidate ordering (core/candidate_order.hpp) and the
// sequences the candidate sources emit through it:
//
//  * the bucketing kernel reproduces std::stable_sort byte for byte
//    (memcmp) under each comparator it serves, on adversarial weights:
//    tiny n, all-equal weights, signed zeros, denormals, weights spanning
//    1e-300..1e300, exact powers of two at bucket edges, a far outlier,
//    and parallel edges of equal weight in both orientations;
//  * it appends after whatever the output already holds;
//  * every source's emitted sequence equals a std::stable_sort reference
//    built from its raw candidates (graph, metric, approx), WSPD's
//    materialize equals its concatenated chunks, and the grid's chunks
//    equal the sorted, deduplicated one-shot collect at small and large
//    chunk caps.
#include "core/candidate_order.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "api/candidate_source.hpp"
#include "api/grid_source.hpp"
#include "gen/graphs.hpp"
#include "gen/points.hpp"
#include "geom/uniform_grid.hpp"
#include "util/random.hpp"
#include "wspd/quadtree.hpp"
#include "wspd/wspd.hpp"

namespace gsp {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Byte equality: catches a swapped orientation or a -0.0/+0.0 swap that
/// operator== on weights would forgive.
template <class T>
bool same_bytes(const std::vector<T>& a, const std::vector<T>& b) {
    // memcmp's pointers must be non-null even for zero bytes, and an empty
    // vector's data() may be null.
    return a.size() == b.size() &&
           (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

template <class T, class Less>
std::vector<T> stable_sorted(std::vector<T> items, Less less) {
    std::stable_sort(items.begin(), items.end(), less);
    return items;
}

template <class T, class Less>
std::vector<T> bucketed(const std::vector<T>& items, Less less) {
    std::vector<T> out;
    WeightBuckets().append_ordered(
        out, [&](auto&& place) { for (const T& x : items) place(x); }, less);
    return out;
}

struct NamedInput {
    std::string name;
    std::vector<GreedyCandidate> items;
};

/// Adversarial kernel inputs. Endpoints come from a small id range so
/// both comparators see many equal keys.
std::vector<NamedInput> kernel_inputs() {
    Rng rng(53);
    std::vector<NamedInput> inputs;
    const auto add = [&](std::string name, std::size_t n, auto weight_of) {
        std::vector<GreedyCandidate> v(n);
        for (std::size_t i = 0; i < n; ++i) {
            v[i].u = static_cast<VertexId>(rng.index(6));
            v[i].v = static_cast<VertexId>(rng.index(6));
            v[i].weight = weight_of(i);
        }
        inputs.push_back({std::move(name), std::move(v)});
    };
    for (const std::size_t n : {0, 1, 2, 3}) {
        add("n=" + std::to_string(n), n, [&](std::size_t) { return rng.uniform(1.0, 2.0); });
    }
    // Equal weights: one bucket, on both sides of the insertion-sort limit.
    add("all-equal-20", 20, [](std::size_t) { return 2.25; });
    add("all-equal-2000", 2000, [](std::size_t) { return 2.25; });
    add("signed-zeros", 300, [&](std::size_t i) {
        return i % 3 == 0 ? -0.0 : (i % 3 == 1 ? 0.0 : rng.uniform(0.0, 1.0));
    });
    // A key range of three: only the -0.0 canonicalization keeps the two
    // zeros in one bucket, interleaved in input order.
    add("signed-zeros-narrow", 300, [](std::size_t i) {
        return i % 3 == 0 ? -0.0 : (i % 3 == 1 ? 0.0 : std::numeric_limits<double>::denorm_min());
    });
    add("denormals", 300, [&](std::size_t i) {
        return std::numeric_limits<double>::denorm_min() * static_cast<double>(1 + i % 5);
    });
    add("1e-300..1e300", 1000, [&](std::size_t) {
        return std::pow(10.0, rng.uniform(-300.0, 300.0));
    });
    // Exact powers of two and their neighbors: the key's exponent field
    // changes there, which is where bucket edges fall.
    add("powers-of-two", 600, [&](std::size_t i) {
        const double p = std::ldexp(1.0, static_cast<int>(rng.index(40)) - 20);
        switch (i % 3) {
            case 0: return p;
            case 1: return std::nextafter(p, 0.0);
            default: return std::nextafter(p, kInf);
        }
    });
    add("one-outlier", 1000, [&](std::size_t i) {
        return i == 500 ? 1e6 * 2.0 : rng.uniform(1.0, 2.0);
    });
    // The old radix test's mix: tie plateau, signed zeros, denormals, +inf.
    for (const std::size_t n : {777, 4096}) {
        add("mixed-" + std::to_string(n), n, [&](std::size_t i) {
            switch (i % 6) {
                case 0: return 1.5;
                case 1: return 0.0;
                case 2: return -0.0;
                case 3: return std::numeric_limits<double>::denorm_min() *
                               static_cast<double>(1 + i % 3);
                case 4: return kInf;
                default: return rng.uniform01() * 1e6;
            }
        });
    }
    // Parallel edges of equal weight in both orientations, small and as
    // one large bucket.
    for (const std::size_t n : {24, 3000}) {
        std::vector<GreedyCandidate> v;
        for (std::size_t i = 0; v.size() < n; ++i) {
            const auto a = static_cast<VertexId>(rng.index(5));
            const auto b = static_cast<VertexId>(5 + rng.index(5));
            const double w = 1.0 + static_cast<double>(i % 3);
            v.push_back({a, b, w});
            v.push_back({b, a, w});
        }
        inputs.push_back({"parallel-" + std::to_string(n), std::move(v)});
    }
    return inputs;
}

TEST(CandidateOrderTest, MatchesStableSortUnderEachComparator) {
    for (const NamedInput& in : kernel_inputs()) {
        EXPECT_TRUE(same_bytes(bucketed(in.items, ByWeightUV{}),
                               stable_sorted(in.items, ByWeightUV{})))
            << in.name << " (weight, u, v)";
        EXPECT_TRUE(same_bytes(bucketed(in.items, ByWeightMinMax{}),
                               stable_sorted(in.items, ByWeightMinMax{})))
            << in.name << " (weight, min, max)";
        // The approx source orders Edge records as well.
        std::vector<Edge> edges;
        for (const GreedyCandidate& c : in.items) edges.push_back({c.u, c.v, c.weight});
        EXPECT_TRUE(same_bytes(bucketed(edges, ByWeightUV{}),
                               stable_sorted(edges, ByWeightUV{})))
            << in.name << " Edge (weight, u, v)";
    }
}

TEST(CandidateOrderTest, AppendsAfterExistingContents) {
    const std::vector<GreedyCandidate> head = {{7, 8, 9.0}, {1, 2, 0.5}};
    const std::vector<GreedyCandidate> items = {{3, 4, 2.0}, {0, 1, 1.0}, {2, 3, 2.0}};
    std::vector<GreedyCandidate> out = head;
    WeightBuckets buckets;
    for (int round = 0; round < 2; ++round) {  // a reused kernel forgets the last call
        out.resize(head.size());
        buckets.append_ordered(
            out, [&](auto&& place) { for (const auto& c : items) place(c); }, ByWeightUV{});
        std::vector<GreedyCandidate> want = head;
        const auto sorted = stable_sorted(items, ByWeightUV{});
        want.insert(want.end(), sorted.begin(), sorted.end());
        EXPECT_TRUE(same_bytes(out, want)) << "round " << round;
    }
}

// ---------------------------------------------------------------------------
// Source sequences against std::stable_sort references.

std::vector<GreedyCandidate> materialized(CandidateSource& source) {
    std::vector<GreedyCandidate> out;
    source.materialize(out);
    return out;
}

std::vector<GreedyCandidate> drained(CandidateChunkSource& chunks, std::size_t soft_cap) {
    std::vector<GreedyCandidate> all;
    while (chunks.next_chunk(soft_cap, all)) {
    }
    return all;
}

/// Integer lattice points: heavy distance ties.
EuclideanMetric lattice(std::size_t side, std::size_t dim) {
    std::vector<double> coords;
    std::size_t count = 1;
    for (std::size_t d = 0; d < dim; ++d) count *= side;
    for (std::size_t i = 0; i < count; ++i) {
        std::size_t rest = i;
        for (std::size_t d = 0; d < dim; ++d) {
            coords.push_back(static_cast<double>(rest % side));
            rest /= side;
        }
    }
    return EuclideanMetric(dim, std::move(coords));
}

class SourceOrderTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SourceOrderTest, GraphEdgesMatchStableSortInIdOrder) {
    Rng rng(GetParam());
    Graph g = random_graph_nm(60, 400, {.lo = 1.0, .hi = 2.0}, rng);
    // Integer weights and parallel edges in both orientations: the id
    // tie-break decides their order.
    for (int i = 0; i < 200; ++i) {
        const auto a = static_cast<VertexId>(rng.index(60));
        const auto b = static_cast<VertexId>((a + 1 + rng.index(59)) % 60);
        const auto w = static_cast<double>(1 + rng.index(4));
        g.add_edge(a, b, w);
        g.add_edge(b, a, w);
    }
    std::vector<GreedyCandidate> raw;
    for (const Edge& e : g.edges()) raw.push_back({e.u, e.v, e.weight});
    GraphCandidateSource source(g);
    EXPECT_TRUE(same_bytes(materialized(source), stable_sorted(raw, ByWeightMinMax{})));
}

TEST_P(SourceOrderTest, MetricPairsMatchStableSort) {
    Rng rng(GetParam());
    const EuclideanMetric plane = lattice(9, 2);     // the 2D row path
    const EuclideanMetric space = lattice(5, 3);     // the virtual-distance path
    const EuclideanMetric random = uniform_points(90, 2, 10.0, rng);
    for (const EuclideanMetric* m : {&plane, &space, &random}) {
        std::vector<GreedyCandidate> raw;
        for (VertexId i = 0; i < m->size(); ++i) {
            for (VertexId j = i + 1; j < m->size(); ++j) raw.push_back({i, j, m->distance(i, j)});
        }
        MetricCandidateSource source(*m);
        EXPECT_TRUE(same_bytes(materialized(source), stable_sorted(raw, ByWeightUV{})))
            << "dim " << m->dim() << ", n " << m->size();
    }
}

TEST_P(SourceOrderTest, ApproxBaseEdgesMatchStableSort) {
    Rng rng(GetParam());
    const EuclideanMetric plane = uniform_points(120, 2, 20.0, rng);
    const EuclideanMetric grid = lattice(10, 2);
    const EuclideanMetric space = lattice(4, 3);  // net-spanner base
    for (const EuclideanMetric* m : {&plane, &grid, &space}) {
        BuildOptions options;
        options.approx.epsilon = 0.5;
        BaseSpannerCandidateSource source(*m, options);
        Weight max_w = 0.0;
        for (const Edge& e : source.base().edges()) max_w = std::max(max_w, e.weight);
        const Weight threshold = max_w / static_cast<double>(m->size());
        std::vector<Edge> light;
        std::vector<GreedyCandidate> heavy;
        for (const Edge& e : source.base().edges()) {
            if (e.weight <= threshold) {
                light.push_back(e);
            } else {
                heavy.push_back({e.u, e.v, e.weight});
            }
        }
        Graph seeded(m->size());
        source.seed(seeded);
        const std::vector<Edge> seeded_edges(seeded.edges().begin(), seeded.edges().end());
        EXPECT_TRUE(same_bytes(seeded_edges, stable_sorted(light, ByWeightUV{})))
            << "light, dim " << m->dim();
        EXPECT_TRUE(same_bytes(materialized(source), stable_sorted(heavy, ByWeightUV{})))
            << "streamed, dim " << m->dim();
    }
}

TEST_P(SourceOrderTest, WspdMaterializeMatchesStableSortAndChunks) {
    Rng rng(GetParam());
    const EuclideanMetric random = clustered_points(200, 2, 4, 50.0, 2.0, rng);
    const EuclideanMetric grid = lattice(12, 2);
    for (const EuclideanMetric* m : {&random, &grid}) {
        WspdCandidateSource source(*m, 8.0);
        std::vector<GreedyCandidate> raw;
        const QuadTree tree(*m);
        for (const WspdPair& p : well_separated_pairs(tree, 8.0)) {
            const VertexId a = tree.node(p.a).representative;
            const VertexId b = tree.node(p.b).representative;
            raw.push_back({std::min(a, b), std::max(a, b),
                           m->distance(std::min(a, b), std::max(a, b))});
        }
        const std::vector<GreedyCandidate> full = materialized(source);
        EXPECT_TRUE(same_bytes(full, stable_sorted(raw, ByWeightUV{})));
        for (const std::size_t cap : {std::size_t{1}, std::size_t{37}, std::size_t{1} << 21}) {
            const auto chunks = source.chunks();
            EXPECT_TRUE(same_bytes(drained(*chunks, cap), full)) << "soft cap " << cap;
        }
    }
}

TEST_P(SourceOrderTest, GridChunksMatchSortedDeduplicatedCollect) {
    Rng rng(GetParam());
    const EuclideanMetric random = uniform_points(300, 2, 40.0, rng);
    const EuclideanMetric grid = lattice(16, 2);
    for (const EuclideanMetric* m : {&random, &grid}) {
        GridCandidateSource source(*m, 9.0);
        std::vector<GreedyCandidate> want;
        (void)source.grid().collect_window(0.0, kInf, want);
        want = stable_sorted(want, ByWeightUV{});
        want.erase(std::unique(want.begin(), want.end(),
                               [](const GreedyCandidate& a, const GreedyCandidate& b) {
                                   return a.weight == b.weight && a.u == b.u && a.v == b.v;
                               }),
                   want.end());
        EXPECT_TRUE(same_bytes(materialized(source), want));
        for (const std::size_t cap : {std::size_t{1000}, std::size_t{1} << 21}) {
            GridChunkSource chunks(source.grid(), cap);
            EXPECT_TRUE(same_bytes(drained(chunks, cap), want)) << "chunk cap " << cap;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SourceOrderTest, ::testing::Values(3u, 29u));

}  // namespace
}  // namespace gsp
