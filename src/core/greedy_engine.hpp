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
// the naive kernel at every thread count.
//
// The serial kernel's stacked optimisations (bidirectional, ball_sharing,
// csr_snapshot, bound_sketch with its landmark table -- see
// core/engine_tuning.hpp and core/landmark_bounds.hpp) are
// individually toggleable for the ablation benches and *decision
// preserving*: every configuration returns the same edge set.
//
// Resource model: the thread pool, the per-worker workspace pool, and the
// sketch and landmark arenas are the expensive part of an engine. They live
// in an EngineResources, which a GreedyEngine either owns privately (the
// one-shot entry points) or borrows from a SpannerSession (src/api/session)
// that keeps them warm across many build() calls -- the request-serving
// path, where a warm build pays zero pool/workspace construction
// (counter-verified by the session-reuse bench probe).
//
// Callers with scale-dependent side structures (the approximate-greedy
// cluster oracle) hook the bucket boundary via `on_bucket` and may install
// a reject-only `prefilter` (serial) and/or `concurrent_prefilter`
// (consulted from stage-2 workers) before any exact machinery.
#pragma once

#include <cstddef>
#include <functional>
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
#include "graph/types.hpp"
#include "util/thread_pool.hpp"

namespace gsp {

/// Engine configuration: the shared tuning block (see engine_tuning.hpp)
/// plus the per-run stretch and the caller hooks only this layer can
/// express. Field access is flat (`options.bidirectional`) -- the base
/// class is a layering device, not an indirection.
struct GreedyEngineOptions : EngineTuning {
    double stretch = 2.0;  ///< t >= 1

    /// Optional sound reject-only fast path, consulted first for every
    /// candidate: return true only if a realizable witness path of length
    /// <= threshold is known (e.g. the cluster-graph oracle). Must never
    /// reject a candidate the exact test would keep.
    std::function<bool(VertexId u, VertexId v, Weight threshold)> prefilter;

    /// Concurrent variant of `prefilter` for the parallel stage, invoked as
    /// (worker, u, v, threshold) with worker < num_workers(). Must be safe
    /// to call from distinct workers simultaneously (give each worker its
    /// own scratch, e.g. ClusterGraph::QueryScratch). When unset, the
    /// serial `prefilter` still runs in the insertion loop.
    std::function<bool(std::size_t worker, VertexId u, VertexId v, Weight threshold)>
        concurrent_prefilter;

    /// Economics of the prefilter hooks. ROADMAP measured the cluster
    /// oracle as a ~0.5x *slowdown* under the bidirectional engine, so
    /// installing a prefilter no longer implies trusting it: kAdaptive
    /// times a calibration window (serial path) and gates the prefilter
    /// off for the rest of the run if its per-call cost exceeds the exact
    /// work it saves; kAlways is the explicit opt-in that trusts the hook
    /// unconditionally.
    enum class PrefilterGate { kAdaptive, kAlways };
    PrefilterGate prefilter_gate = PrefilterGate::kAdaptive;

    /// Called on entering each weight bucket, after the spanner reflects
    /// every decision of earlier buckets: rebuild scale-dependent helpers
    /// here. `bucket_lo` is the weight of the bucket's first candidate.
    /// Always invoked from the serial thread, before stage 2 fans out.
    std::function<void(const Graph& h, Weight bucket_lo)> on_bucket;
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
    /// weight (the caller fixes tie order -- the engine preserves it).
    /// Decisions are appended to `h`, which carries any pre-seeded edges
    /// (the approximate-greedy E0 set); returns the final spanner.
    /// `*stats` is overwritten with this run's counters (never additive).
    GSP_SERIAL_ONLY Graph run(Graph h, std::span<const GreedyCandidate> candidates,
                              GreedyStats* stats = nullptr);

    /// The linear-space entry point: drain `source` chunk by chunk through
    /// `buffer` (the caller-owned reusable chunk buffer -- a session passes
    /// its materialization buffer) instead of requiring the full sorted
    /// array. The source must honor the CandidateChunkSource ordering
    /// contract (validated as chunks arrive; violations throw). The edge
    /// set is bit-identical to the materializing overload for the same
    /// candidate sequence, at every chunk size and thread count.
    GSP_SERIAL_ONLY Graph run(Graph h, CandidateChunkSource& source,
                              std::vector<GreedyCandidate>& buffer,
                              GreedyStats* stats = nullptr);

    [[nodiscard]] const GreedyEngineOptions& options() const { return options_; }

    /// Resolved worker count (>= 1): what `concurrent_prefilter` will be
    /// called with, and how many scratches a concurrent hook needs.
    [[nodiscard]] std::size_t num_workers() const { return workers_; }

private:
    void init();  ///< shared constructor tail: validation + pool acquisition

    template <class Adapter, class Feed>
    GSP_SERIAL_ONLY Graph run_impl(Adapter& adapter, Graph h, Feed& feed,
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
/// order the naive kernel has always used. The appending form writes into
/// the caller's buffer (the session's reused materialization buffer: no
/// per-build allocation on the warm path); the value form allocates.
void append_sorted_graph_candidates(const Graph& g, std::vector<GreedyCandidate>& out);
std::vector<GreedyCandidate> sorted_graph_candidates(const Graph& g);

}  // namespace gsp
