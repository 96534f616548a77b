// LSD radix sort on (weight, u, v) candidate keys -- the comparison-sort
// replacement for chunk finalization (PR 8 measured sort/harvest at about
// half the build).
//
// Key quantization, and why the ordering is exactly the comparator's:
// the composite sort key is the 128-bit concatenation
//
//     key(c) = wkey(c.weight) . c.u . c.v        (most significant first)
//
// where wkey maps a double to a uint64 such that for NaN-free inputs
// a < b  <=>  wkey(a) < wkey(b) and a == b  <=>  wkey(a) == wkey(b):
// IEEE-754 doubles of equal sign compare like their payload bits, so
// flipping the sign bit (non-negatives) or all bits (negatives) yields a
// total order matching operator<. The one double pair that compares equal
// with different bit patterns, -0.0 == +0.0, is canonicalized to +0.0
// before the map, so comparator-equal weights always share one wkey.
// Candidate weights here are metric distances (nonnegative), but the map
// is order-preserving for the full NaN-free double line regardless.
//
// Lexicographic order on key(c) is then exactly
// std::tie(weight, u, v) < std::tie(...), and LSD radix -- eight stable
// counting passes over 16-bit digits, least significant first -- sorts by
// it while preserving input order of equal keys. Stable + same total
// order means the output permutation is byte-identical to
// std::stable_sort with the chunk comparator (grid_source_test asserts
// this on tie-heavy adversarial inputs).
//
// Passes whose digit is constant across the array (common: v/u high
// halves on small ids, weight tails on quantized grids) are detected from
// the single histogram pre-pass and skipped outright.
#pragma once

#include <vector>

#include "core/candidate_stream.hpp"
#include "util/annotations.hpp"

namespace gsp::simd {

/// Reusable sorter (histogram + ping-pong buffers persist across chunks;
/// the grid stream finalizes thousands of windows per build).
class CandidateRadixSorter {
public:
    /// Sorts `v` by (weight, u, v) ascending; weights must be NaN-free.
    /// Equal elements keep their input order (full stability).
    GSP_DECISION_PURE void sort(std::vector<GreedyCandidate>& v);

    /// Buffer footprint (bytes) for memory accounting.
    [[nodiscard]] std::size_t bytes() const;

private:
    std::vector<GreedyCandidate> tmp_;
    std::vector<std::uint32_t> hist_;  ///< kPasses x 65536 counts
};

}  // namespace gsp::simd
