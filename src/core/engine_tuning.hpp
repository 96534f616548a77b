// The shared engine configuration block.
//
// The engine knobs, declared once: GreedyEngineOptions derives from
// EngineTuning (so `options.bidirectional` reads flat), and the api
// layer's BuildOptions carries it verbatim as its `engine` section.
// validate() is the one range check of the block; BuildOptions::validate
// and GreedyEngine's constructor both call it.
//
// Every field here is *decision preserving*: the greedy edge set is
// bit-identical at every setting (the knobs trade work, not output).
#pragma once

#include <cstddef>

#include "core/bound_sketch.hpp"

namespace gsp {

class MetricSpace;

struct EngineTuning {
    bool bidirectional = true;  ///< meet-in-the-middle point queries
    bool ball_sharing = true;   ///< per-bucket shared balls + lazy revalidation
    bool csr_snapshot = true;   ///< incremental gap-buffered CSR adjacency
    bool bound_sketch = true;   ///< cross-bucket per-vertex bound sketch

    /// Worker count for the parallel prefilter stage: 1 = fully serial
    /// (the default -- parallelism is opt-in so the serial entry points
    /// keep schedule-free stats), 0 = hardware concurrency, k = exactly k
    /// workers. The edge set is identical at every value.
    std::size_t num_threads = 1;

    /// Master switch for stage 2. With it off (or num_threads resolving to
    /// 1) buckets flow straight from the candidate stream into the
    /// serialized insertion loop.
    bool parallel_prefilter = true;

    /// Stage-2 batch width ceiling: when the parallel stage is active,
    /// buckets are processed in sub-batches of at most this many
    /// candidates, probed against the batch-start incremental view.
    /// Constant across thread counts, so stage-2 decisions (and stats)
    /// depend only on the input. Ignored when serial.
    std::size_t parallel_batch = 2048;

    /// Accept-rate boundary, keyed on the previous batch's measured accept
    /// rate (a pure function of the greedy decisions, hence identical at
    /// every thread count). A batch predicted above the gate skips stage
    /// 2 entirely -- its snapshot facts would die on the first insertion
    /// -- and the serial cell-ball and group-probe rules veto their
    /// shared traversals there. 1.0 = never predict accept-heavy. Must be
    /// >= 0.
    double parallel_accept_gate = 0.25;

    /// Bound-sketch associativity: slots per vertex (power of two).
    std::size_t sketch_ways = BoundSketch::kDefaultWays;

    /// Geometric ratio of the weight buckets that pace ball sharing, CSR
    /// rebuilds, and `on_bucket` callbacks (mu in the paper's sketch).
    /// Must be > 1.
    double bucket_ratio = 2.0;

    /// Until the first ball of a run calibrates the ball-vs-point cost
    /// model, a shared ball is attempted only for groups with at least
    /// this many undecided candidates. The effective bootstrap threshold
    /// is min(this, the batch's largest group): a stream whose groups all
    /// sit below the knob (grid-pruned rep windows are ~s^2 wide) still
    /// seeds the cost model from its first full-size ball instead of
    /// never calibrating.
    std::size_t ball_share_min_group = 16;

    /// Cell-batched candidate grouping (the grid-streamed reject
    /// amortizer). kOff groups a batch's candidates by their min-id
    /// endpoint (the PR-1 rule); kOn groups them by a deterministic
    /// two-sided *anchor* endpoint (SourceGroups' hub heuristic), so one
    /// drained ball per grid cell decides every rep candidate the cell
    /// emits into the window -- roughly doubling group sizes on streams
    /// that emit each pair once. kAuto lets the candidate source decide:
    /// GridCandidateSource turns it on (its reps are exactly the hubs the
    /// heuristic elects), everything else keeps the classic rule.
    /// Decision preserving like every other field: anchors only change
    /// which endpoint seeds a probe, and distances are symmetric.
    enum class CellBatching { kAuto, kOn, kOff };
    CellBatching cell_batching = CellBatching::kAuto;

    /// Multi-target group probes (the batched-relaxation kernel): one
    /// bounded traversal from a group's shared source carries every
    /// member's target and decision radius, settles targets as it reaches
    /// them, and stops once all are decided or the frontier passes the
    /// largest undecided bound -- replacing up to |group| point queries
    /// (or one full-radius drained ball) with one early-terminating probe.
    /// kAuto lets the candidate source decide: graph, metric, and WSPD
    /// sources turn it on (their classic groups pay one probe per member),
    /// the grid source keeps its cell-batched reject balls. Decision
    /// preserving like every other field: the kernel's verdicts are exact
    /// distances on the same view the point queries probe.
    enum class GroupProbing { kAuto, kOn, kOff };
    GroupProbing group_probing = GroupProbing::kAuto;

    /// Optional goal-direction oracle for the engine's single-target point
    /// probes: when set, they run A* keyed by g + metric(v, target)
    /// instead of a blind (bi)directional sweep, so a probe explores the
    /// ellipse that can still contain a <= threshold path rather than a
    /// disc around each endpoint. Sound whenever every graph edge's
    /// weight dominates the metric distance of its endpoints -- true for
    /// every candidate source here, whose weights *are* metric distances
    /// -- because then any graph path from v to the target is at least
    /// metric(v, target) long (and the heuristic is consistent, so the
    /// distance returned for a reject is exact). The oracle must outlive
    /// the build. Decision preserving in the same sense as
    /// `bidirectional`: only the float-addition order of the pruning test
    /// differs from the one-sided sweep (last-ulp class).
    const MetricSpace* goal_bound = nullptr;

    /// Optional goal-direction oracle for the *group probe* only: enables
    /// BatchedProbe's goal-directed tail pruning without rerouting the
    /// single-target point probes through `goal_bound` (on all-pairs
    /// metric streams the bidirectional point query's two-sided harvest
    /// beats the one-sided A* sweep, so switching both together trades
    /// one win for a bigger loss). Same soundness condition as
    /// `goal_bound`; when both are set the probe uses this one. Decision
    /// preserving: the pruning never changes a verdict, only traversal
    /// work (see BatchedProbe's header note).
    const MetricSpace* probe_goal_bound = nullptr;

    /// Advisory chunk size (candidates) of the streaming candidate path:
    /// how many candidates a CandidateChunkSource is asked to append per
    /// pull. Sources may overshoot to finish an atomic generation unit.
    /// Must be >= 1. Chunk boundaries only ever split weight buckets,
    /// which is decision preserving like every other field here.
    std::size_t chunk_soft_cap = 1 << 16;

    /// The naive reference kernel: every optimisation off, one one-sided
    /// distance-limited Dijkstra per candidate. What old-vs-new
    /// equivalence suites compare everything against.
    [[nodiscard]] static EngineTuning naive() {
        EngineTuning t;
        t.bidirectional = false;
        t.ball_sharing = false;
        t.csr_snapshot = false;
        t.bound_sketch = false;
        t.num_threads = 1;
        t.parallel_prefilter = false;
        return t;
    }

    /// Throws std::invalid_argument when a field is out of range
    /// (bucket_ratio <= 1, a zero parallel_batch or chunk_soft_cap,
    /// sketch_ways not a power of two, a negative or NaN
    /// parallel_accept_gate).
    void validate() const;
};

}  // namespace gsp
