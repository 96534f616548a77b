// Cross-bucket bound persistence: a compact per-vertex distance sketch,
// and the certificate store of the speculative two-phase accept path.
//
// The engine's per-candidate bounds are bucket-local (they live in the
// stage-2/stage-3 handoff and die with their bucket), while the classic
// Farshi-Gudmundsson DistanceCache of the metric kernel keeps one upper
// bound per *pair* -- n^2 memory -- and owes most of its speed to hits that
// span weight buckets. BoundSketch recovers those cross-bucket hits in
// O(n) memory: a small set-associative table with `ways` slots per vertex,
// each slot remembering what some earlier exact query learned about the
// distance from one source to this vertex:
//
//  * an upper bound `ub` -- the length of a realizable witness path. The
//    spanner only grows and distances only shrink, so `ub` is sound
//    *forever* and may reject a candidate in any later bucket;
//  * a lower bound `lo` tagged with the insertion epoch it was measured
//    at: "d(src, v) >= lo at epoch `lo_epoch`". Distances can only shrink
//    when an edge is inserted, so the tag is the certificate's lifetime --
//    a consult at the same epoch may accept without any Dijkstra probe
//    (the same rule stage-2 "far at snapshot" certificates follow).
//
// Records are monotone-tightening: a repeated (vertex, source) record only
// lowers `ub`, and only raises `lo` within an epoch (a newer epoch replaces
// the tag). Slot placement is deterministic (source-indexed way), so runs
// are reproducible and stats are schedule-independent. The associativity
// is a runtime parameter (power of two): kWays = 4 was PR 3's first cut,
// and bench_micro measures the hit-rate curve at 2/4/8 ways.
//
// CertificateStore is the sketch's epoch-tagged-lower-bound idea taken to
// its limit for the two-phase accept path: phase A's drained snapshot
// balls don't just certify "d(src, v) > threshold", they know the *entire*
// settled frontier -- the exact snapshot distance to every vertex within
// the radius, and (implicitly) "further than the radius" for every vertex
// outside it. That settled set is exactly what phase-B repair needs: an
// edge inserted after the snapshot can only create a <= threshold path if
// its first use is reachable within the threshold *at the snapshot*, i.e.
// if its entry endpoint is in the certificate's settled set. The store
// keeps one certificate per source vertex (scope- and epoch-tagged, lazily
// invalidated like the engine's shared balls) and activates one at a time
// into a stamped lookup table for O(1) snapshot-distance queries.
//
// Concurrency contract: both structures are written on a fan-out/join
// schedule. The sketch is written only by the engine's serial insertion
// loop while stage-2 workers consult it read-only. The certificate store
// is written by stage-2 workers -- but each worker publishes only the
// sources of its own task's group, and groups partition the batch's
// sources, so writes land in disjoint per-source slots; the serial loop
// reads strictly after the join.
// Storage is SoA (per-field arrays indexed slot = x * ways + way) rather
// than an array of Entry structs: the hot consult, via_upper_bound, then
// walks the two vertices' way-contiguous source arrays, touching the ub
// arrays only for matching ways.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/types.hpp"
#include "simd/aligned.hpp"
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
    [[nodiscard]] std::size_t bytes() const {
        return src_.capacity() * sizeof(VertexId) + ub_.capacity() * sizeof(Weight) +
               lo_.capacity() * sizeof(Weight) +
               lo_epoch_.capacity() * sizeof(std::uint64_t);
    }

    /// Record an exact distance d(src, x) = d measured at `epoch`: upper
    /// bound forever, lower bound while the epoch holds.
    GSP_SERIAL_ONLY void record_exact(VertexId src, VertexId x, Weight d,
                                      std::uint64_t epoch);

    /// Record d(src, x) >= lo, measured at `epoch` (a probe that exceeded
    /// its limit, or an unsettled vertex outside a ball's radius).
    GSP_SERIAL_ONLY void record_far(VertexId src, VertexId x, Weight lo,
                                    std::uint64_t epoch);

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

    /// Largest lower bound on d(u, v) still valid at `epoch` (0 when no
    /// tagged entry matches). d(u, v) > threshold is certified iff the
    /// returned value exceeds threshold.
    [[nodiscard]] GSP_DECISION_PURE GSP_HOT_PATH Weight lower_bound_at(
        VertexId u, VertexId v, std::uint64_t epoch) const;

private:
    [[nodiscard]] std::size_t slot(VertexId x, VertexId src) const {
        return static_cast<std::size_t>(x) * ways_ + (src & (ways_ - 1));
    }
    /// Claims slot(x, src) for `src` (deterministic eviction: the newest
    /// source owning a way wins) and returns its index.
    std::size_t slot_for_write(VertexId src, VertexId x);

    std::size_t ways_ = kDefaultWays;
    // SoA slot fields, n * ways_ each, way-indexed by source low bits.
    simd::AlignedVector<VertexId> src_;
    simd::AlignedVector<Weight> ub_;
    GSP_EPOCH_GUARDED simd::AlignedVector<Weight> lo_;
    GSP_EPOCH_GUARDED simd::AlignedVector<std::uint64_t> lo_epoch_;
};

/// Phase-A distance certificates for the speculative accept path: one per
/// source vertex, holding the settled frontier of a drained snapshot ball
/// -- (vertex, exact snapshot distance) for everything within `radius`,
/// with the guarantee that everything absent is *further* than `radius`.
class CertificateStore {
public:
    /// Size for n vertices and clear every certificate (once per run).
    /// `cap` bounds the settled entries one certificate may hold; larger
    /// frontiers are not published (phase B falls back to the exact
    /// query), keeping the store's footprint proportional to the small
    /// balls of accept-heavy phases rather than the big balls of
    /// reject-heavy ones.
    void reset(std::size_t n, std::size_t cap);

    /// Publish the certificate for `source`: the settled set of a drained
    /// snapshot ball of radius `radius`, measured at insertion epoch
    /// `epoch`, scoped to the engine's batch sequence number `scope`
    /// (lazy invalidation -- stale scopes are simply never matched).
    /// Called from stage-2 workers; each source is owned by exactly one
    /// task, so writes are race-free (frontiers keyed by a *target* vertex
    /// are instead buffered per worker and flushed serially after the
    /// join). Returns false (and stores nothing) when the frontier exceeds
    /// the cap, or when a same-scope certificate with radius >= `radius`
    /// is already stored -- keep-larger makes the flushed state
    /// independent of flush order, and a wider certificate serves every
    /// query a narrower one could.
    bool publish(VertexId source, std::uint64_t scope, std::uint64_t epoch, Weight radius,
                 std::span<const std::pair<VertexId, Weight>> settled);

    /// Radius of the certificate stored for `source` under (scope, epoch),
    /// or a negative value when none is. The peek the two-sided repair
    /// combine uses to test rf + rb >= threshold before paying two loads.
    [[nodiscard]] Weight published_radius(VertexId source, std::uint64_t scope,
                                          std::uint64_t epoch) const {
        const Cert& c = certs_[source];
        return (c.scope == scope && c.epoch == epoch) ? c.radius : -1.0;
    }

    /// Activate the certificate of `source` for snapshot-distance queries,
    /// iff one was published under `scope` at `epoch` with radius >=
    /// `radius_needed`. Serial-side only.
    GSP_SERIAL_ONLY bool load(VertexId source, std::uint64_t scope,
                              std::uint64_t epoch, Weight radius_needed);

    /// After a successful load: the exact snapshot distance from the
    /// loaded source to x, or +infinity when x was outside the ball
    /// (equivalently: certified further than the certificate's radius).
    [[nodiscard]] GSP_DECISION_PURE GSP_HOT_PATH Weight snapshot_distance(
        VertexId x) const {
        return lookup_stamp_[x] == lookup_current_ ? lookup_dist_[x] : kInfiniteWeight;
    }

    /// Radius of the loaded certificate.
    [[nodiscard]] Weight loaded_radius() const { return certs_[loaded_].radius; }

    [[nodiscard]] std::size_t cap() const { return cap_; }

    /// Logical bytes of the store and its scope-live settled sets (handoff
    /// accounting) -- a pure function of the current run's publishes, so
    /// warm-session stats match fresh-session stats exactly.
    [[nodiscard]] std::size_t bytes() const;

private:
    struct Cert {
        std::uint64_t scope = 0;  ///< batch sequence the certificate belongs to
        std::uint64_t epoch = 0;  ///< insertion epoch of the snapshot it measured
        Weight radius = 0.0;
        std::vector<std::pair<VertexId, Weight>> settled;
    };

    GSP_EPOCH_GUARDED std::vector<Cert> certs_;  ///< per-source slots, lazily invalidated by scope
    std::size_t cap_ = 0;

    // The activated certificate, expanded into a stamped O(1) lookup
    // table (timestamp reset, like DijkstraWorkspace scratch).
    GSP_EPOCH_GUARDED std::vector<std::uint64_t> lookup_stamp_;
    GSP_EPOCH_GUARDED std::vector<Weight> lookup_dist_;
    std::uint64_t lookup_current_ = 0;
    VertexId loaded_ = kNoVertex;
    std::uint64_t loaded_scope_ = 0;
};

}  // namespace gsp
