// Algorithm 1 of the paper: the greedy spanner for weighted graphs.
//
//   H = (V, {})
//   for each edge (u, v) in non-decreasing order of weight:
//       if delta_H(u, v) > t * w(u, v):  add (u, v) to H
//
// Properties this implementation guarantees (and tests rely on):
//  * stretch(H) <= t, by construction;
//  * ties in edge weight are broken deterministically by canonical endpoint
//    order then edge id, so greedy(G, t) is a pure function of (G, t) -- the
//    Lemma-3 fixpoint test greedy(greedy(G)) == greedy(G) is exact;
//  * with the same tie-breaking, H contains the Kruskal MST of G
//    (Observation 2 of the paper);
//  * each distance query is a Dijkstra run *limited* to radius t * w(e),
//    making the naive algorithm usable well beyond toy sizes.
#pragma once

#include <cstddef>

#include "graph/graph.hpp"

namespace gsp {

/// Counters describing one greedy run (for the runtime experiments and the
/// BENCH_greedy.json kernel-ablation artifact).
struct GreedyStats {
    std::size_t edges_examined = 0;  ///< candidate edges processed
    std::size_t edges_added = 0;     ///< edges kept in the spanner
    std::size_t dijkstra_runs = 0;   ///< distance/ball queries actually executed
    double seconds = 0.0;            ///< wall-clock time of the run

    // GreedyEngine counters (zero when the matching optimisation is off).
    std::size_t balls_computed = 0;       ///< shared ball() queries grown
    std::size_t cache_hits = 0;           ///< candidates decided from cached bounds
    std::size_t csr_rebuilds = 0;         ///< full O(n+m) adjacency rebuilds (with the
                                          ///< incremental store: one per run, not per bucket)
    std::size_t csr_compactions = 0;      ///< incremental-CSR arena compactions
    std::size_t bidirectional_meets = 0;  ///< improving frontier-meet events
    std::size_t prefilter_rejects = 0;    ///< candidates rejected by the prefilter hook
    std::size_t buckets = 0;              ///< weight buckets processed

    // Pipeline counters (zero when the parallel prefilter stage is off).
    std::size_t snapshot_accepts = 0;   ///< accepts certified by the bucket-start probe
    std::size_t prefilter_gated_off = 0;  ///< 1 if the measured-cost gate disabled the prefilter

    // Always zero: the speculative accept path that counted these is
    // gone. The fields remain only because the end-to-end benchmark
    // (perfbench/workloads.cpp) still reads them; they leave together
    // with its per-layer metrics.
    std::size_t repairs = 0;
    std::size_t repair_reprobes = 0;
    std::size_t repair_fallbacks = 0;
    std::size_t certs_published = 0;
    std::size_t cert_ball_aborts = 0;

    // Group-probe counters (zero unless group_probing resolved to kOn).
    // All three are per-group facts of deterministic probes, so they are
    // invariant across worker counts (the equivalence suite checks this).
    std::size_t group_probes = 0;           ///< batched multi-target probes run
    std::size_t group_probe_decisions = 0;  ///< candidates those probes decided
    std::size_t group_probe_early_exits = 0;  ///< probes that stopped with frontier
                                              ///< pending (every target decided)

    // Cell-batched rejection counters (zero unless cell_batching resolved
    // to kOn -- the grid-streamed path). cell_ball_decisions counts the
    // candidates a cell ball decided without a probe of their own: the
    // members its harvest resolved at ball time plus the later
    // lazy-revalidation accepts it backed. coarse_rejects counts
    // via-landmark sketch rejects (two witness paths through a common
    // landmark concatenated within the threshold -- zero graph work).
    std::size_t cell_balls = 0;          ///< balls grown for anchored (cell) groups
    std::size_t cell_ball_decisions = 0; ///< candidates decided by those balls
    std::size_t coarse_rejects = 0;      ///< via-landmark sketch upper-bound rejects

    // Bound-sketch counters (zero when bound_sketch is off). Not a
    // partition of edges_examined: a stage-2 sketch far certificate counts
    // here *and* as a snapshot_accept when stage 3 consumes its bit.
    std::size_t sketch_hits = 0;     ///< candidates the sketch decided in either
                                     ///< stage (upper-bound rejects, and stage-2
                                     ///< epoch-valid far certificates)
    std::size_t sketch_accepts = 0;  ///< stage-3 accepts from epoch-valid sketch
                                     ///< lower bounds

    // Landmark-table counters (zero when bound_sketch is off). Separate
    // from coarse_rejects, which keeps counting the sketch's own
    // via-landmark rejects.
    std::size_t landmark_refreshes = 0;  ///< landmark-tree table rebuilds
    std::size_t landmark_rejects = 0;    ///< rejects by a landmark-tree upper bound,
                                         ///< in either stage

    /// Peak resident bytes of the stage-2 -> stage-3 handoff (bucket-local
    /// bound array + packed verdict bitsets); the bytes-per-candidate
    /// numerator tracked in BENCH_greedy.json.
    std::size_t handoff_peak_bytes = 0;

    // Candidate-memory counters (the linear-space streaming path). On the
    // materializing path candidates_streamed is the full candidate count
    // and the buffer peak is the whole sorted array -- the honest
    // comparison baseline for the chunked mode.
    std::size_t candidates_streamed = 0;  ///< candidates pulled through stage 1
    std::size_t candidate_buffer_peak_bytes = 0;  ///< peak resident candidate bytes
};

/// The greedy t-spanner of g. Requires t >= 1. Works on disconnected
/// graphs (the spanner then spans each component). Parallel edges are
/// handled naturally: the second copy is rejected because the first copy is
/// a path of equal weight (<= t * w since t >= 1).
///
/// Runs on the full-featured GreedyEngine (bidirectional bounded Dijkstra,
/// per-bucket ball sharing, CSR snapshots) through a one-shot session; use
/// a SpannerSession with BuildOptions (src/api/session.hpp) to select
/// individual optimisations, parallelism, or warm-started repeated builds.
/// Every configuration returns the same edge set. `*stats` is zeroed
/// before any work (never additive across calls).
Graph greedy_spanner(const Graph& g, double t, GreedyStats* stats = nullptr);

}  // namespace gsp
