// Stage 1 of the greedy pipeline: the candidate stream.
//
// The engine consumes candidates bucket by bucket -- geometric weight
// classes [lo, bucket_ratio * lo], the same boundary rule the
// approximate-greedy simulation has always used. CandidateStream walks the
// sorted candidate span and materializes one bucket at a time;
// ChunkedCandidateStream does the same over a pull-based chunk source, so
// the full sorted array never has to exist (the linear-space greedy of
// Alewijnse et al.: candidates are generated one weight window at a time
// into a reusable buffer). SourceGroups indexes a bucket's candidates by
// source vertex, which is both the unit of ball sharing (one ball answers
// a whole group) and the unit of work handed to the parallel prefilter
// stage (groups touch disjoint candidate slots, so workers never race on
// bounds).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/types.hpp"
#include "util/annotations.hpp"

namespace gsp {

/// One candidate edge for the greedy loop.
struct GreedyCandidate {
    VertexId u = kNoVertex;
    VertexId v = kNoVertex;
    Weight weight = 0.0;
};

/// One weight bucket: candidate indices [begin, end) of the sorted span.
struct CandidateBucket {
    std::size_t begin = 0;
    std::size_t end = 0;
    Weight lo = 0.0;  ///< weight of the bucket's first candidate
    Weight hi = 0.0;  ///< inclusive upper boundary (lo * bucket_ratio)

    [[nodiscard]] std::size_t size() const { return end - begin; }
};

/// Walks a weight-sorted candidate span in geometric buckets.
class CandidateStream {
public:
    CandidateStream(std::span<const GreedyCandidate> candidates, double bucket_ratio)
        : candidates_(candidates), bucket_ratio_(bucket_ratio) {}

    /// Materialize the next bucket into `out`; false at end of stream.
    bool next(CandidateBucket& out);

private:
    std::span<const GreedyCandidate> candidates_;
    double bucket_ratio_;
    std::size_t cursor_ = 0;
};

/// The pull-based chunk protocol: a source that generates its candidates
/// incrementally instead of materializing the full sorted array.
///
/// Contract (what ChunkedCandidateStream validates and the engine's
/// bit-identity guarantee rests on):
///  * each call appends candidates in non-decreasing weight order, every
///    weight >= every weight of every earlier chunk -- concatenating all
///    chunks yields exactly the sequence materialize() would have
///    produced, with the source's own deterministic tie rule;
///  * `soft_cap` is advisory: a source should stop appending once the
///    chunk reaches it, but may overshoot to finish an atomic unit of
///    generation (a weight window it cannot split, a run of equal
///    weights it has already sorted);
///  * the buffer is owned by the caller (the session's reusable
///    materialization buffer): the source only ever appends, and must not
///    keep references into it across calls;
///  * returns true after appending at least one candidate; false --
///    appending nothing -- once the stream is exhausted (and on every
///    call thereafter).
class CandidateChunkSource {
public:
    virtual ~CandidateChunkSource() = default;

    virtual bool next_chunk(std::size_t soft_cap, std::vector<GreedyCandidate>& out) = 0;
};

/// Drives the engine's bucket loop from a CandidateChunkSource: one chunk
/// at a time lives in the caller-owned buffer, and buckets are carved out
/// of the resident chunk. A weight class that straddles a chunk boundary
/// is simply split into two buckets -- bucket boundaries are decision
/// preserving (bucket_ratio is an EngineTuning knob), so the edge set is
/// bit-identical to the materializing path at every chunk size.
class ChunkedCandidateStream {
public:
    /// `buffer` must outlive the stream; it is cleared and refilled on
    /// every chunk pull. Requires bucket_ratio > 1 and soft_cap >= 1.
    ChunkedCandidateStream(CandidateChunkSource& source,
                           std::vector<GreedyCandidate>& buffer, double bucket_ratio,
                           std::size_t soft_cap)
        : source_(&source), buffer_(&buffer), bucket_ratio_(bucket_ratio),
          soft_cap_(soft_cap) {}

    /// Produce the next bucket (global candidate indices, like
    /// CandidateStream); false at end of stream. Throws
    /// std::invalid_argument if the source violates the ordering contract.
    bool next(CandidateBucket& out);

    /// The resident candidates of `bucket` (which must be the bucket most
    /// recently produced by next()).
    [[nodiscard]] std::span<const GreedyCandidate> window(const CandidateBucket& bucket) const {
        return std::span<const GreedyCandidate>(*buffer_).subspan(bucket.begin - base_,
                                                                  bucket.size());
    }

    /// Total candidates pulled from the source so far.
    [[nodiscard]] std::size_t streamed() const { return streamed_; }

    /// Peak logical bytes resident in the chunk buffer (size, not
    /// capacity: a pure function of the stream, not of what earlier
    /// builds left in a warm session's buffer).
    [[nodiscard]] std::size_t peak_buffer_bytes() const { return peak_bytes_; }

private:
    bool refill();

    CandidateChunkSource* source_;
    std::vector<GreedyCandidate>* buffer_;
    double bucket_ratio_;
    std::size_t soft_cap_;
    std::size_t base_ = 0;    ///< global index of buffer_[0]
    std::size_t cursor_ = 0;  ///< global index of the next unconsumed candidate
    bool exhausted_ = false;
    Weight last_weight_ = 0.0;  ///< cross-chunk ordering validation
    bool have_last_ = false;
    std::size_t streamed_ = 0;
    std::size_t peak_bytes_ = 0;
};

/// A bucket's candidates grouped by a per-candidate *anchor* endpoint,
/// with lazy O(bucket) clearing (a bucket costs O(its candidates), never
/// O(n)). Groups list *bucket-local* candidate indices (global index minus
/// the bucket's `begin` -- the same u32 currency the stage-2/stage-3
/// handoff uses for its bound array and verdict bitsets; a run's candidate
/// span may exceed 2^32 as long as each individual bucket stays below it,
/// which the engine enforces) in ascending order, which the prefilter and
/// insertion stages both rely on (bounds harvested by an earlier
/// candidate's query may only be consumed by later ones).
///
/// Because the candidate range is sorted by non-decreasing weight and
/// group members are listed in ascending index order, a group's member
/// *weights* -- and therefore its decision radii (stretch * weight) -- are
/// nondecreasing along the list. BatchedProbe's contiguous far-sweep is
/// built on exactly this invariant (it validates and throws on violation),
/// so any future regrouping must preserve index order.
///
/// Two grouping modes, selected per rebuild:
///
///  * classic (anchored = false): the anchor is the candidate's `u` (the
///    source vertex) -- the PR-1 rule. Natural for graph edges, where the
///    min-id endpoint concentrates a vertex's candidates.
///  * anchored (anchored = true): the cell-batched rule. A grid-pruned
///    stream emits one representative candidate per cell pair, so a cell
///    rep's ~s^2 window pairs split about evenly between its u side and
///    its v side -- u-keyed groups are half the size the geometry offers,
///    which starves ball sharing. The anchored rebuild assigns each
///    candidate to ONE of its endpoints by a two-pass hub heuristic: pass
///    1 counts endpoint incidences over the range; pass 2, in candidate
///    order, anchors a candidate to an endpoint already serving as a hub
///    when exactly one is (stickiness -- this is what re-merges a cell
///    rep's two sides), otherwise to the higher-incidence endpoint
///    (tie: min id), marking it a hub. O(range), deterministic, and a
///    pure function of the range's contents -- identical for the serial
///    and parallel paths at any thread count. Distances are symmetric, so
///    a ball seeded at either endpoint decides the candidate; everything
///    downstream asks anchor_of()/other_of() instead of assuming `u`.
class SourceGroups {
public:
    /// Rebuild the grouping for the candidate range `range` (a stage-2
    /// batch, or the whole bucket when serial); indices are recorded
    /// relative to `base` (the owning bucket's begin).
    GSP_DECISION_PURE void rebuild(std::span<const GreedyCandidate> candidates,
                                   const CandidateBucket& range, std::size_t base,
                                   std::size_t num_vertices, bool anchored = false);

    /// Anchors that have at least one candidate in the current range, in
    /// first-appearance order.
    [[nodiscard]] const std::vector<VertexId>& sources() const { return sources_; }

    /// Bucket-local candidate indices anchored at s (ascending). Empty for
    /// vertices that anchor nothing in the current range.
    [[nodiscard]] const std::vector<std::uint32_t>& of(VertexId s) const {
        return groups_[s];
    }

    /// The anchor endpoint of bucket-local candidate `local` (valid for
    /// the range of the last rebuild). Classic mode: the candidate's u.
    [[nodiscard]] VertexId anchor_of(std::uint32_t local) const { return anchor_[local]; }

    /// The non-anchor endpoint of candidate c, given its anchor.
    [[nodiscard]] GSP_DECISION_PURE GSP_HOT_PATH static VertexId other_of(
        const GreedyCandidate& c, VertexId anchor) {
        return c.u == anchor ? c.v : c.u;
    }

    /// Largest group size of the last rebuild (the group-size-aware
    /// bootstrap of the engine's ball-vs-point gate keys on it).
    [[nodiscard]] std::size_t max_group_size() const { return max_group_size_; }

    /// Undecided-candidate counter of anchor s; the insertion stage
    /// decrements it as candidates are decided (feeds the ball-vs-point
    /// gate's "remaining peers" signal).
    [[nodiscard]] std::uint32_t remaining(VertexId s) const { return remaining_[s]; }
    void decrement_remaining(VertexId s) { --remaining_[s]; }

private:
    std::vector<std::vector<std::uint32_t>> groups_;
    std::vector<std::uint32_t> remaining_;
    std::vector<VertexId> sources_;
    std::vector<VertexId> anchor_;       ///< bucket-local index -> anchor endpoint
    std::vector<std::uint32_t> degree_;  ///< pass-1 incidence counts (lazily cleared)
    std::vector<std::uint8_t> is_hub_;   ///< pass-2 hub marks (lazily cleared)
    std::vector<VertexId> touched_;      ///< vertices with nonzero degree_/is_hub_
    std::size_t max_group_size_ = 0;
};

}  // namespace gsp
