// The unified high-throughput greedy kernel.
//
// Every greedy entry point in the library -- greedy_spanner (graph inputs),
// greedy_spanner_metric (all-pairs candidates), the approximate-greedy
// simulation (base-spanner candidates), the WSPD-pair source -- is the same
// loop: examine candidate edges in non-decreasing weight order and keep an
// edge iff the growing spanner's distance between its endpoints exceeds
// t * w(e). The api layer (src/api) turns "where the candidates come from"
// into a CandidateSource plug-in; GreedyEngine runs the loop itself, as an
// explicit three-phase pipeline per weight bucket (batched when parallel):
//
//   [1] candidate stream   (core/candidate_stream) -- materialize the
//       bucket [w, bucket_ratio * w) and group its candidates by source
//       (bucket-local indices); when stage 2 is active the bucket is
//       consumed in batches of `parallel_batch` candidates;
//   [2] reject-only prefilter (core/prefilter_stage) -- fan the groups out
//       to a work-stealing worker pool; each worker owns a
//       DijkstraWorkspace and runs exact probes against the batch-start
//       incremental CSR view, recording sound per-candidate facts in a
//       thin handoff (packed verdict bitsets + a bucket-local bound slot
//       per candidate): permanent witness-bound rejects, and "far at
//       snapshot" bits. Batches the previous batch's accept rate predicts
//       to be accept-heavy skip this stage: their snapshot facts would
//       die on the first insertion;
//   [3] insertion loop     -- the serialized loop re-walks the batch in
//       deterministic tie order and consumes the recorded facts. A bound
//       within the threshold rejects outright; a "far" bit accepts
//       outright while no edge has been inserted since the snapshot. A
//       far bit staled by an insertion is only a tentative accept: the
//       candidate falls through to the exact machinery, which re-decides
//       it on the current spanner.
//
// Because stage-2 facts are sound upper bounds / exact snapshot distances
// and every stale accept is re-verified, the edge set is bit-identical to
// the textbook loop (sort, then one bounded Dijkstra per candidate on the
// plain Graph -- tests/reference_greedy.hpp) at every thread count.
//
// Every probe runs on one adjacency view: the gap-buffered incremental CSR
// mirror of the growing spanner (graph/incremental_csr.hpp), built once per
// run and kept exact at O(degree) per insertion. The serial kernel's
// stacked optimisations (bidirectional, ball_sharing, bound_sketch with its
// landmark table -- see core/engine_tuning.hpp and
// core/landmark_bounds.hpp) are individually toggleable for the ablation
// benches and *decision preserving*: every configuration returns the same
// edge set.
//
// How a source group shares work is not a knob. The candidate source
// states it: the grid source sets `cell_batching` (one drained cell ball
// per anchor per batch), and every other group is decided by one
// multi-target group probe (graph/batched_probe.hpp). The only other
// input is observed: when the previous batch's accept rate predicts an
// accept-heavy batch, group probes give way to the classic full-radius
// drained ball (or to point queries, by the cost model) and cell balls
// are skipped.
//
// Resource model: the thread pool, the per-worker workspace pool, and the
// sketch and landmark arenas are the expensive part of an engine. They live
// in an EngineResources, which a GreedyEngine either owns privately (the
// one-shot entry points) or borrows from a SpannerSession (src/api/session)
// that keeps them warm across many build() calls -- the request-serving
// path, where a warm build pays zero pool/workspace construction
// (counter-verified by the session-reuse bench probe).
//
// Every candidate is decided by the engine's own sound bounds (harvested,
// sketched, landmark) or by an exact probe.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "core/bound_sketch.hpp"
#include "core/candidate_stream.hpp"
#include "core/engine_tuning.hpp"
#include "core/greedy.hpp"
#include "core/landmark_bounds.hpp"
#include "core/prefilter_kernel.hpp"
#include "core/prefilter_stage.hpp"
#include "graph/dijkstra.hpp"
#include "graph/graph.hpp"
#include "graph/incremental_csr.hpp"
#include "graph/types.hpp"
#include "util/thread_pool.hpp"

namespace gsp {

/// Engine configuration: the shared tuning block (see engine_tuning.hpp)
/// plus the per-run stretch and the group mechanism the source states.
/// Field access is flat (`options.bidirectional`) -- the base class is a
/// layering device, not an indirection.
struct GreedyEngineOptions : EngineTuning {
    double stretch = 2.0;  ///< t >= 1, finite

    /// Cell-batched grouping, installed by GridCandidateSource (whose
    /// cell representatives are exactly the hubs SourceGroups' anchored
    /// rebuild elects): candidates group at a two-sided anchor endpoint
    /// and one drained reject-radius ball per cell decides the window of
    /// rep candidates the cell emits. Off, every group is decided by the
    /// batched group probe. Decision preserving either way: anchors only
    /// change which endpoint seeds a probe, and distances are symmetric.
    bool cell_batching = false;
};

/// The heavy, reusable half of a greedy engine: thread pools (cached per
/// worker count), the serial-loop Dijkstra workspace, the per-worker
/// workspace pool, the sketch and landmark arenas, and every per-run
/// scratch vector. Construction counters certify the warm path: a
/// SpannerSession owns one EngineResources across builds, and repeat
/// builds construct zero pools and zero workspaces.
class EngineResources {
public:
    /// A pool with exactly `workers` workers (>= 2): the cached instance
    /// when one of that size exists, otherwise constructed (and counted)
    /// and kept for the lifetime of the resources. Distinct sizes coexist
    /// so heterogeneous builds in one session each stay warm.
    [[nodiscard]] ThreadPool& acquire_pool(std::size_t workers);

    /// Thread pools constructed through acquire_pool so far.
    [[nodiscard]] std::size_t pools_constructed() const { return pools_constructed_; }

    /// Dijkstra workspaces constructed so far (the serial-loop workspace
    /// plus the per-worker pool's entries).
    [[nodiscard]] std::size_t workspaces_constructed() const {
        return 1 + ws_pool_.created();
    }

    /// The serial insertion-loop workspace; also the reuse vehicle for the
    /// audit/reroute helpers (grown to the largest build, never shrunk).
    [[nodiscard]] DijkstraWorkspace& workspace() { return ws_; }

    /// The per-worker workspace pool (analysis/audit's pool overloads
    /// accept it directly, so audits in a session pay no allocation).
    [[nodiscard]] DijkstraWorkspacePool& workspace_pool() { return ws_pool_; }

private:
    friend class GreedyEngine;

    std::vector<std::unique_ptr<ThreadPool>> pools_;  ///< one per distinct size
    std::size_t pools_constructed_ = 0;

    DijkstraWorkspace ws_;             ///< the insertion loop's workspace
    DijkstraWorkspacePool ws_pool_;    ///< one workspace per stage-2 worker
    PrefilterStage prefilter_stage_;   ///< stage-2 verdict bitsets + counters
    SourceGroups groups_;              ///< stage-1 per-bucket grouping
    BoundSketch sketch_;               ///< cross-bucket bound persistence
    LandmarkTable landmarks_;          ///< landmark-tree upper bounds (with the sketch)
    PrefilterKernel prefilter_kernel_; ///< serial-loop group-probe marshalling scratch

    // Ball-sharing / prefilter scratch, reused across runs. Groups are
    // cleared lazily so a bucket costs O(its candidates), not O(n).
    std::vector<Weight> bound_;              ///< bucket-local candidate upper bounds
    std::vector<std::uint64_t> far_mark_;    ///< bucket-local per-member far epoch (group probes)
    std::vector<std::uint64_t> ball_bucket_; ///< ball-reuse scope (batch seq) per source
    std::vector<std::uint64_t> ball_epoch_;  ///< insert epoch of last ball
    std::vector<Weight> ball_radius_;        ///< radius of last ball
};

/// The shared greedy kernel. `run` may be called repeatedly; with the
/// borrowed-resources constructor the engine itself is a cheap per-build
/// object and every expensive allocation lives in the session.
class GreedyEngine {
public:
    /// Owns a private EngineResources (the one-shot entry points).
    GreedyEngine(std::size_t n, GreedyEngineOptions options);

    /// Borrows `resources` (a SpannerSession's): pools and workspaces are
    /// acquired from the shared cache, so repeat constructions are free.
    /// `resources` must outlive the engine.
    GreedyEngine(std::size_t n, GreedyEngineOptions options, EngineResources& resources);

    /// Run the greedy loop: candidates must be sorted by non-decreasing
    /// weight (the caller fixes tie order -- the engine preserves it), and
    /// every threshold stretch * weight must be finite: an unreachable
    /// pair's distance is +Inf, which a +Inf threshold would not exceed.
    /// Violations throw std::invalid_argument before any decision.
    /// Decisions are appended to `h`, which carries any pre-seeded edges
    /// (the approximate-greedy E0 set); returns the final spanner.
    /// `*stats` is overwritten with this run's counters (never additive).
    GSP_SERIAL_ONLY Graph run(Graph h, std::span<const GreedyCandidate> candidates,
                              GreedyStats* stats = nullptr);

    /// The linear-space entry point: drain `source` chunk by chunk through
    /// `buffer` (the caller-owned reusable chunk buffer -- a session passes
    /// its materialization buffer) instead of requiring the full sorted
    /// array. The source must honor the CandidateChunkSource ordering
    /// contract and the finite-threshold rule above (both validated as
    /// chunks arrive; violations throw). The edge set is bit-identical to
    /// the materializing overload for the same candidate sequence, at
    /// every chunk size and thread count.
    GSP_SERIAL_ONLY Graph run(Graph h, CandidateChunkSource& source,
                              std::vector<GreedyCandidate>& buffer,
                              GreedyStats* stats = nullptr);

    [[nodiscard]] const GreedyEngineOptions& options() const { return options_; }

private:
    void init();  ///< shared constructor tail: validation + pool acquisition

    /// The pipeline over one candidate feed (a sorted span or a chunk
    /// stream). Every probe queries `view`, the run's gap-buffered CSR
    /// mirror of `h`.
    template <class Feed>
    GSP_SERIAL_ONLY Graph run_impl(IncrementalCsrView& view, Graph h, Feed& feed,
                                   GreedyStats& stats);

    [[nodiscard]] bool parallel_enabled() const { return pool_ != nullptr; }

    GreedyEngineOptions options_;
    std::size_t n_;
    std::size_t workers_ = 1;

    std::unique_ptr<EngineResources> owned_;  ///< set by the owning constructor
    EngineResources* res_;                    ///< owned or borrowed
    ThreadPool* pool_ = nullptr;              ///< stage-2 executor (workers_ > 1)
};

/// The candidate list of a graph input: all edges of g sorted by
/// (weight, min endpoint, max endpoint, edge id) -- the deterministic tie
/// order greedy_spanner has always used. The appending form writes into
/// the caller's buffer (the session's reused materialization buffer: no
/// per-build allocation on the warm path); the value form allocates.
void append_sorted_graph_candidates(const Graph& g, std::vector<GreedyCandidate>& out);
std::vector<GreedyCandidate> sorted_graph_candidates(const Graph& g);

}  // namespace gsp
