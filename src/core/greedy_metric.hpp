// The greedy spanner over a metric space (Sections 4-5 of the paper).
//
// In a metric space the candidate edge set is all n(n-1)/2 pairs. Two
// configurations of the shared GreedyEngine produce one output (they are
// observationally identical):
//
//  * the naive greedy -- one one-sided distance-limited Dijkstra per pair
//    (every engine optimisation off; EngineTuning::naive()), which is the
//    textbook loop of tests/reference_greedy.hpp run on the engine's view;
//  * the cached greedy -- the full engine: per-bucket shared balls cache
//    spanner distances as upper bounds in the Farshi-Gudmundsson style (the
//    practical variant behind the O(n^2 log n) bound the paper cites as
//    [BCF+10]); the spanner only grows, so a cached bound may reject a pair
//    forever, and only bound-exceeding pairs are re-verified. The engine
//    keeps one bound per candidate pair (8 bytes on top of the 16-byte
//    candidate record the sorted pair list already stores) instead of a
//    separate n x n matrix, and shares its balls only within a weight
//    bucket.
//
// The candidate enumeration itself is the api layer's MetricCandidateSource
// (src/api/candidate_source.hpp); the convenience below is a one-shot
// session over it.
#pragma once

#include "core/greedy.hpp"
#include "graph/graph.hpp"
#include "metric/metric_space.hpp"

namespace gsp {

/// The greedy t-spanner of the metric m, as a graph over m's points whose
/// edge weights are metric distances. One-shot convenience (full engine,
/// serial); for configured, parallel, or repeated builds use a
/// SpannerSession with BuildOptions (src/api/session.hpp). `*stats` is
/// zeroed before any work.
Graph greedy_spanner_metric(const MetricSpace& m, double t,
                            GreedyStats* stats = nullptr);

}  // namespace gsp
