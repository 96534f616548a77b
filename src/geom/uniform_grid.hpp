// Grid-pruned geometric candidate generation.
//
// The WSPD source already gets the greedy candidate count down to O(n) --
// but its quadtree + dumbbell-pair machinery carries real constants, and
// its chunked mode still holds every representative pair at once. For the
// common Euclidean workload there is a simpler linear-space scheme built
// on a hierarchy of uniform grids:
//
//   level l partitions the bounding box into cells of side h_0 * 2^l
//   (enclosing radius r_l = h_l * sqrt(2) / 2, so any two points in one
//   cell are within 2 r_l of each other);
//
//   a point pair at distance d is *assigned* to the unique level with
//   s * r_l <= d < 2 s * r_l; pairs closer than s * r_0 are "near" pairs,
//   enumerated exactly (point by point) at level 0;
//
//   an assigned pair's two cells are distinct (same cell would force
//   d <= 2 r_l < s r_l) and their index distance lands in a thin ring:
//   min_boxdist in [(s - 4) r_l, 2 s r_l). Emitting one candidate per
//   occupied cell pair in that ring -- the minimum-id representative of
//   each cell, at the representatives' exact distance -- therefore covers
//   every assigned pair. The ring test is conservative (no per-pair
//   existence check), so some cell pairs with no assigned pair also emit;
//   the extra candidates are harmless (greedy rejects them cheaply) and
//   the count stays O(s^2) per occupied cell per level.
//
// Covered pairs satisfy exactly the dumbbell premises of the WSPD bound
// (points within 2 r_l of their representative, d >= s * r_l), so greedy
// over these candidates with engine stretch t spans the whole metric with
// stretch wspd_greedy_stretch_bound(t, s) = t (s + 4) / (s - 4), s > 4.
//
// Ordered, memory-bounded emission (GridChunkSource): sweep geometric
// weight windows [lo, hi) -- a first window [0, near_cutoff / 8), then
// [near_cutoff * 2^k, near_cutoff * 2^(k+1)) -- up to the bounding-box
// diagonal. Per window, every level enumerates only the cell pairs whose
// min_boxdist could place a candidate weight inside the window (weight w
// of a cell pair obeys mb <= w <= mb + 4 r_l); the window's candidates are
// sorted by the source tie rule (weight, u, v), deduplicated, and served
// in soft_cap slices. Each window is scanned once, collecting at most the
// memory cap while counting everything: a window whose count comes back
// over the cap is halved (deterministically, by arithmetic midpoint) and
// rescanned until it fits -- peak candidate memory is bounded by the cap
// regardless of how weights cluster. Nothing outside the current window
// is ever resident, and far pairs are never touched at all: the whole
// structure is O(n) ids + O(occupied cells) per level.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/candidate_order.hpp"
#include "core/candidate_stream.hpp"
#include "graph/types.hpp"
#include "metric/euclidean.hpp"
#include "util/aligned.hpp"

namespace gsp {

/// The hierarchy of sparse uniform grids over a 2D Euclidean point set.
/// Struct-of-arrays per level: sorted packed cell keys, a prefix into the
/// cell-grouped point ids, and the per-cell representative (minimum id) --
/// flat cell arrays on the cache-line-aligned allocator (they are the
/// sweep operands of every window scan). Construction is O(n log n) per
/// level and the level count is O(log(diameter / h_0)), truncated as soon
/// as a level has at most one occupied cell (no far pair can need it or
/// any coarser level).
class UniformGrid2D {
public:
    struct Level {
        double cell_size = 0.0;  ///< h_l
        double radius = 0.0;     ///< r_l = h_l * sqrt(2) / 2
        AlignedVector<std::uint64_t> keys;  ///< sorted (iy << 32) | ix per occupied cell
        AlignedVector<std::uint32_t> cell_start;  ///< prefix into ids (keys.size() + 1)
        AlignedVector<VertexId> ids;  ///< point ids grouped by cell, ascending within a cell
        AlignedVector<VertexId> rep;  ///< ids[cell_start[c]]: the minimum id in cell c
    };

    /// `m` must be 2-dimensional; `separation` must be > 4 (the finite-
    /// stretch regime of the dumbbell bound).
    UniformGrid2D(const EuclideanMetric& m, double separation);

    [[nodiscard]] const EuclideanMetric& metric() const { return m_; }
    [[nodiscard]] double separation() const { return separation_; }
    [[nodiscard]] const std::vector<Level>& levels() const { return levels_; }

    /// Pairs strictly closer than this are enumerated exactly (s * r_0).
    [[nodiscard]] double near_cutoff() const { return near_cutoff_; }

    /// Upper bound on any pairwise distance (the bounding-box diagonal).
    [[nodiscard]] double max_distance_bound() const { return dmax_; }

    /// Enumerate every candidate of the window [lo, hi) -- near point
    /// pairs and ring representative pairs with weight in the window,
    /// duplicates and all, unsorted -- appending each to `out` while
    /// out.size() < limit. Returns the window's full candidate count,
    /// appended or not, so a caller that collected up to a cap learns in
    /// the same scan whether the window overflowed it.
    [[nodiscard]] std::size_t collect_window(
        double lo, double hi, std::vector<GreedyCandidate>& out,
        std::size_t limit = std::numeric_limits<std::size_t>::max()) const;

    /// The candidate guaranteed to cover pair (i, j): the pair itself when
    /// near, otherwise its assigned level's representative pair. The
    /// emitted stream provably contains this exact (u, v, weight) triple
    /// -- the O(n^2) coverage oracle the tests replay against.
    [[nodiscard]] GreedyCandidate covering_candidate(VertexId i, VertexId j) const;

private:
    friend class GridChunkSource;

    [[nodiscard]] std::uint64_t cell_key(double x, double y, double h) const;
    [[nodiscard]] std::size_t find_cell(const Level& level, std::uint64_t key) const;

    const EuclideanMetric& m_;
    double separation_;
    double minx_ = 0.0, miny_ = 0.0;
    double dmax_ = 0.0;          ///< bounding-box diagonal
    double near_cutoff_ = 0.0;   ///< s * r_0
    std::vector<Level> levels_;
};

/// The pull-based generator over a grid: the window sweep described in
/// the header comment, honoring the CandidateChunkSource contract
/// (non-decreasing weight across chunks, concatenation identical to a
/// full materialization, caller-owned output buffer).
class GridChunkSource final : public CandidateChunkSource {
public:
    /// `soft_cap_hint` scales the window-splitting memory cap; the cap is
    /// max(4 * hint, 2^18) candidates so tiny hints cannot degrade the
    /// sweep into per-candidate windows.
    explicit GridChunkSource(const UniformGrid2D& grid, std::size_t soft_cap_hint = 0);

    bool next_chunk(std::size_t soft_cap, std::vector<GreedyCandidate>& out) override;

private:
    bool advance_window();  ///< fill scratch_ with the next non-empty window

    const UniformGrid2D* grid_;
    std::size_t cap_;
    /// Lower clamp of the sliver test's scale, near_cutoff * 2^-20: a
    /// window narrower than max(lo, floor) * 1e-12 is an equal-weight mass
    /// and is served whole even over the cap.
    double sliver_floor_;
    double lo_ = 0.0;
    double boundary_;      ///< next geometric boundary (near_cutoff * 2^k)
    bool done_ = false;
    std::vector<GreedyCandidate> collected_;  ///< the window as collected
    std::vector<GreedyCandidate> scratch_;    ///< the window in order: the one served
    std::size_t served_ = 0;
    WeightBuckets buckets_;  ///< chunk finalization
};

}  // namespace gsp
