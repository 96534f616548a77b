// Cross-bucket bound persistence: a compact per-vertex distance sketch.
//
// The engine's per-candidate bounds are bucket-local (they live in the
// stage-2/stage-3 handoff and die with their bucket), while the classic
// Farshi-Gudmundsson DistanceCache of the metric kernel keeps one upper
// bound per *pair* -- n^2 memory -- and owes most of its speed to hits that
// span weight buckets. BoundSketch recovers those cross-bucket hits in
// O(n) memory: a small set-associative table with `ways` slots per vertex,
// each slot remembering an upper bound `ub` on the distance from one
// source to this vertex -- the length of a realizable witness path. The
// spanner only grows and distances only shrink, so `ub` is sound *forever*
// and may reject a candidate in any later bucket. The sketch never
// accepts: it holds no lower bounds.
//
// Records are monotone-tightening: a repeated (vertex, source) record only
// lowers `ub`. Slot placement is deterministic (source-indexed way), so
// runs are reproducible and stats are schedule-independent. The
// associativity is a runtime parameter (power of two); bench_micro
// measures the hit-rate curve at 4/8/32/64 ways.
//
// Concurrency contract: the sketch is written only by the engine's serial
// insertion loop, while stage-2 workers consult it read-only between the
// loop's batches.
// Storage is SoA (per-field arrays indexed slot = x * ways + way): a u32
// source and a double bound, 12 bytes per slot. The via-landmark consult
// walks the two vertices' way-contiguous rows in one branch-free pass.
#pragma once

#include <cstddef>
#include <cstdint>

#include "graph/types.hpp"
#include "util/aligned.hpp"
#include "util/annotations.hpp"

namespace gsp {

class BoundSketch {
public:
    /// Default slots per vertex. Sources map to ways by their low bits, so
    /// up to `ways` distinct sources can coexist per vertex before
    /// evictions.
    static constexpr std::size_t kDefaultWays = 4;

    /// Clear and size for n vertices with `ways` slots each (O(n * ways);
    /// once per engine run). `ways` must be a power of two >= 1.
    void reset(std::size_t n, std::size_t ways = kDefaultWays);

    [[nodiscard]] bool empty() const { return src_.empty(); }
    [[nodiscard]] std::size_t ways() const { return ways_; }
    /// Logical bytes of the slot table: n * ways * 12.
    [[nodiscard]] std::size_t bytes() const {
        return src_.size() * (sizeof(VertexId) + sizeof(Weight));
    }

    /// Record a witness-path upper bound d(src, x) <= ub (sound forever).
    GSP_SERIAL_ONLY void record_upper(VertexId src, VertexId x, Weight ub);

    /// Smallest recorded upper bound on d(u, v), over both directions;
    /// +infinity when neither vertex remembers the other.
    [[nodiscard]] GSP_DECISION_PURE GSP_HOT_PATH Weight upper_bound(
        VertexId u, VertexId v) const;

    /// Smallest *via-landmark* upper bound on d(u, v): min over common
    /// sources x remembered by both endpoints of ub(x, u) + ub(x, v) --
    /// two realizable witness paths concatenated through x, sound by the
    /// triangle inequality. The coarse-reject consult for streams that
    /// emit each pair exactly once (a direct (u, v) record never exists,
    /// but both endpoints usually remember a nearby cell anchor whose
    /// drained ball settled them). O(ways); +infinity when u and v share
    /// no landmark.
    [[nodiscard]] GSP_DECISION_PURE GSP_HOT_PATH Weight via_upper_bound(
        VertexId u, VertexId v) const;

private:
    [[nodiscard]] std::size_t slot(VertexId x, VertexId src) const {
        return static_cast<std::size_t>(x) * ways_ + (src & (ways_ - 1));
    }

    std::size_t ways_ = kDefaultWays;
    // SoA slot fields, n * ways_ each, way-indexed by source low bits. An
    // empty slot holds (kNoVertex, +infinity).
    AlignedVector<VertexId> src_;
    AlignedVector<Weight> ub_;
};

}  // namespace gsp
