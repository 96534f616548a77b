// BoundSketch: the cross-bucket per-vertex bound persistence. The
// contract that keeps the engine decision-preserving: every bound it
// returns is a witness-path length (sound forever, so the sketch only
// ever rejects), records tighten monotonically, and eviction is a
// deterministic function of the source's low bits.
#include "core/bound_sketch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "graph/types.hpp"
#include "util/random.hpp"

namespace gsp {
namespace {

TEST(BoundSketchTest, EmptySketchKnowsNothing) {
    BoundSketch sk;
    sk.reset(8);
    EXPECT_EQ(sk.upper_bound(0, 1), kInfiniteWeight);
    EXPECT_EQ(sk.via_upper_bound(0, 1), kInfiniteWeight);
    EXPECT_EQ(sk.via_upper_bound(3, 3), kInfiniteWeight);
}

TEST(BoundSketchTest, RecordServesBothDirectionsOfTheSlot) {
    BoundSketch sk;
    sk.reset(8);
    sk.record_upper(/*src=*/2, /*x=*/5, 3.5);
    // Queries look at slot(5, keyed 2) and slot(2, keyed 5); only the
    // former was written, and both query orders must find it.
    EXPECT_DOUBLE_EQ(sk.upper_bound(2, 5), 3.5);
    EXPECT_DOUBLE_EQ(sk.upper_bound(5, 2), 3.5);
}

TEST(BoundSketchTest, BothDirectionsTakeTheSmaller) {
    BoundSketch sk;
    sk.reset(8);
    sk.record_upper(2, 5, 3.5);
    sk.record_upper(5, 2, 3.0);
    EXPECT_DOUBLE_EQ(sk.upper_bound(2, 5), 3.0);
    EXPECT_DOUBLE_EQ(sk.upper_bound(5, 2), 3.0);
}

TEST(BoundSketchTest, MonotoneTightening) {
    BoundSketch sk;
    sk.reset(8);
    sk.record_upper(1, 2, 5.0);
    sk.record_upper(1, 2, 3.0);
    sk.record_upper(1, 2, 4.0);  // looser: ignored
    EXPECT_DOUBLE_EQ(sk.upper_bound(1, 2), 3.0);
    sk.record_upper(1, 2, kInfiniteWeight);  // no witness: ignored too
    EXPECT_DOUBLE_EQ(sk.upper_bound(1, 2), 3.0);

    sk.record_upper(1, 3, 2.5);
    sk.record_upper(1, 3, 2.0);
    EXPECT_DOUBLE_EQ(sk.upper_bound(1, 3), 2.0);
    // The other source's tightened upper bound survived the churn.
    EXPECT_DOUBLE_EQ(sk.upper_bound(1, 2), 3.0);
}

TEST(BoundSketchTest, ViaBoundJoinsTwoLegsThroughACommonSource) {
    BoundSketch sk;
    sk.reset(16);
    // Vertices 4 and 9 both remember source 6; 9 also remembers 7, which
    // 4 does not.
    sk.record_upper(6, 4, 1.5);
    sk.record_upper(6, 9, 2.0);
    sk.record_upper(7, 9, 0.25);
    EXPECT_DOUBLE_EQ(sk.via_upper_bound(4, 9), 3.5);
    EXPECT_DOUBLE_EQ(sk.via_upper_bound(9, 4), 3.5);
    // A second common source with shorter legs wins.
    sk.record_upper(5, 4, 1.0);
    sk.record_upper(5, 9, 1.0);
    EXPECT_DOUBLE_EQ(sk.via_upper_bound(4, 9), 2.0);
    // The direct consult does not look through landmarks.
    EXPECT_EQ(sk.upper_bound(4, 9), kInfiniteWeight);
}

TEST(BoundSketchTest, ViaBoundIgnoresAliasedSourcesAndInfiniteLegs) {
    BoundSketch sk;
    sk.reset(16, 4);
    // 1 and 5 share their low two bits: same way, different sources.
    sk.record_upper(1, 2, 1.0);
    sk.record_upper(5, 3, 1.0);
    EXPECT_EQ(sk.via_upper_bound(2, 3), kInfiniteWeight);
    // A shared source whose one leg is +infinity is no witness.
    sk.record_upper(6, 2, kInfiniteWeight);
    sk.record_upper(6, 3, 0.5);
    EXPECT_EQ(sk.via_upper_bound(2, 3), kInfiniteWeight);
}

TEST(BoundSketchTest, EvictionIsDeterministicAndForgetsTheLoser) {
    BoundSketch sk;
    sk.reset(16);
    // Sources 1 and 1 + ways map to the same way of vertex 9.
    const VertexId a = 1;
    const auto b = static_cast<VertexId>(1 + BoundSketch::kDefaultWays);
    sk.record_upper(a, 9, 2.0);
    EXPECT_DOUBLE_EQ(sk.upper_bound(a, 9), 2.0);
    sk.record_upper(b, 9, 4.0);
    // b evicted a: a's bound must be *forgotten*, never blended.
    EXPECT_DOUBLE_EQ(sk.upper_bound(b, 9), 4.0);
    EXPECT_EQ(sk.upper_bound(a, 9), kInfiniteWeight);
}

TEST(BoundSketchTest, DistinctWaysCoexist) {
    BoundSketch sk;
    sk.reset(16);
    // ways sources with distinct low bits all land in different ways.
    for (VertexId s = 0; s < BoundSketch::kDefaultWays; ++s) {
        sk.record_upper(s, 10, 1.0 + s);
    }
    for (VertexId s = 0; s < BoundSketch::kDefaultWays; ++s) {
        EXPECT_DOUBLE_EQ(sk.upper_bound(s, 10), 1.0 + s) << "source " << s;
    }
}

TEST(BoundSketchTest, RuntimeAssociativityHoldsMoreSources) {
    // At `ways` associativity, `ways` sources with distinct low bits
    // coexist per vertex; the next aliasing source evicts. Verify at the
    // bench_micro sweep points and the grid source's 32.
    for (const std::size_t ways : {std::size_t{2}, std::size_t{8}, std::size_t{32},
                                   std::size_t{64}}) {
        BoundSketch sk;
        sk.reset(128, ways);
        EXPECT_EQ(sk.ways(), ways);
        for (VertexId s = 0; s < ways; ++s) sk.record_upper(s, 100, 1.0 + s);
        for (VertexId s = 0; s < ways; ++s) {
            EXPECT_DOUBLE_EQ(sk.upper_bound(s, 100), 1.0 + s)
                << "ways " << ways << " source " << s;
        }
        const auto alias = static_cast<VertexId>(ways);  // low bits == source 0
        sk.record_upper(alias, 100, 9.0);
        EXPECT_DOUBLE_EQ(sk.upper_bound(alias, 100), 9.0);
        EXPECT_EQ(sk.upper_bound(0, 100), kInfiniteWeight) << "ways " << ways;
    }
}

TEST(BoundSketchTest, SlotsTakeTwelveBytes) {
    for (const std::size_t ways : {std::size_t{1}, std::size_t{4}, std::size_t{32}}) {
        BoundSketch sk;
        sk.reset(100, ways);
        EXPECT_EQ(sk.bytes(), 100 * ways * 12) << "ways " << ways;
    }
    // A warm sketch reports its logical size, not a larger run's capacity.
    BoundSketch sk;
    sk.reset(1000, 32);
    sk.reset(10, 4);
    EXPECT_EQ(sk.bytes(), 10u * 4u * 12u);
}

TEST(BoundSketchTest, RejectsNonPowerOfTwoWays) {
    BoundSketch sk;
    EXPECT_THROW(sk.reset(8, 3), std::invalid_argument);
    EXPECT_THROW(sk.reset(8, 0), std::invalid_argument);
}

TEST(BoundSketchTest, ResetClearsEverything) {
    BoundSketch sk;
    sk.reset(8);
    sk.record_upper(1, 2, 2.0);
    sk.record_upper(1, 3, 2.0);
    sk.reset(8);
    EXPECT_EQ(sk.upper_bound(1, 2), kInfiniteWeight);
    EXPECT_EQ(sk.via_upper_bound(2, 3), kInfiniteWeight);
}

/// Brute-force model of the sketch: per vertex, the map of remembered
/// sources to their bounds. Recording a source forgets every other
/// remembered source with the same low bits (the one slot they share).
class SketchModel {
public:
    SketchModel(std::size_t n, std::size_t ways) : mask_(ways - 1), mem_(n) {}

    void record_upper(VertexId src, VertexId x, Weight ub) {
        auto& m = mem_[x];
        const auto it = m.find(src);
        if (it != m.end()) {
            it->second = std::min(it->second, ub);
            return;
        }
        std::erase_if(m, [&](const auto& e) { return (e.first & mask_) == (src & mask_); });
        m.emplace(src, ub);
    }

    [[nodiscard]] Weight upper_bound(VertexId u, VertexId v) const {
        Weight best = kInfiniteWeight;
        if (const auto it = mem_[v].find(u); it != mem_[v].end()) best = it->second;
        if (const auto it = mem_[u].find(v); it != mem_[u].end()) {
            best = std::min(best, it->second);
        }
        return best;
    }

    [[nodiscard]] Weight via_upper_bound(VertexId u, VertexId v) const {
        Weight best = kInfiniteWeight;
        for (const auto& [src, au] : mem_[u]) {
            if (const auto it = mem_[v].find(src); it != mem_[v].end()) {
                best = std::min(best, au + it->second);
            }
        }
        return best;
    }

private:
    std::size_t mask_;
    std::vector<std::map<VertexId, Weight>> mem_;
};

TEST(BoundSketchTest, RandomSequencesMatchTheBruteForceModel) {
    const Weight kBounds[] = {0.0, 0.5, 1.0, 1.25, 2.0, 3.0, 7.5, kInfiniteWeight};
    for (const std::size_t ways : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                                   std::size_t{8}, std::size_t{32}, std::size_t{64}}) {
        for (const std::uint64_t seed : {1u, 2u, 3u}) {
            Rng rng(seed * 1000 + ways);
            // Enough vertices that sources alias at every associativity;
            // half the sources are drawn from a few low-bit classes so
            // evictions are frequent, not incidental.
            const std::size_t n = 2 * ways + 24;
            BoundSketch sk;
            sk.reset(n, ways);
            SketchModel model(n, ways);
            const auto draw_vertex = [&] { return static_cast<VertexId>(rng.index(n)); };
            const auto draw_source = [&] {
                if (rng.chance(0.5)) return draw_vertex();
                const auto cls = static_cast<VertexId>(rng.index(3));
                const auto step = static_cast<VertexId>(rng.index(n / ways + 1));
                return static_cast<VertexId>(std::min<std::size_t>(
                    cls + step * static_cast<VertexId>(ways), n - 1));
            };
            for (int op = 0; op < 3000; ++op) {
                const std::string what = "ways " + std::to_string(ways) + " seed " +
                                         std::to_string(seed) + " op " +
                                         std::to_string(op);
                if (rng.chance(0.6)) {
                    const VertexId src = draw_source();
                    const VertexId x = draw_vertex();
                    const Weight ub = kBounds[rng.index(std::size(kBounds))];
                    sk.record_upper(src, x, ub);
                    model.record_upper(src, x, ub);
                } else {
                    const VertexId u = draw_vertex();
                    const VertexId v = draw_vertex();
                    ASSERT_EQ(sk.upper_bound(u, v), model.upper_bound(u, v)) << what;
                    ASSERT_EQ(sk.via_upper_bound(u, v), model.via_upper_bound(u, v))
                        << what;
                }
            }
            // A final sweep over every pair.
            for (VertexId u = 0; u < n; ++u) {
                for (VertexId v = 0; v < n; ++v) {
                    ASSERT_EQ(sk.upper_bound(u, v), model.upper_bound(u, v))
                        << "ways " << ways << " u " << u << " v " << v;
                    ASSERT_EQ(sk.via_upper_bound(u, v), model.via_upper_bound(u, v))
                        << "ways " << ways << " u " << u << " v " << v;
                }
            }
        }
    }
}

}  // namespace
}  // namespace gsp
