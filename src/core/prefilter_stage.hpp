// Stage 2 of the greedy pipeline: the parallel reject-only prefilter.
//
// Within one batch every expensive pass of the engine -- the optional
// cluster-oracle lookup, the bound-sketch consult, and the bounded
// (bi)directional distance probe -- is *read-only* over the batch-start
// spanner: the serialized insertion loop has not run yet, so the
// incremental view is immutable for the whole stage. That is the structure
// (after Alewijnse et al.'s bucketed greedy designs) that makes candidate
// prefiltering embarrassingly parallel: workers fan out over source groups
// (or fixed blocks when ball sharing is off), each with its own
// DijkstraWorkspace, and record per-candidate facts that are sound
// *forever*:
//
//  * a bound <= threshold is the length of a realizable path in a subgraph
//    of every future spanner -- the candidate is rejected, permanently;
//  * a probe that exceeds the threshold certifies "far at batch start"
//    (the far bit): the insertion loop may accept on that certificate
//    alone while no edge has been inserted since the snapshot, and must
//    re-verify otherwise.
//
// The stage-2 -> stage-3 handoff is deliberately *thin* (the memory-wall
// fix for metric workloads, where m = n^2 candidates): verdicts travel as
// two packed bitsets (one oracle-reject bit, one far-at-snapshot bit per
// candidate) and bounds as one bucket-local Weight slot addressed by the
// same bucket-local u32 indices SourceGroups hands out -- one bit + one
// u32 of addressing per candidate instead of per-candidate verdict/bound
// structs sized to the whole run. Bitset words are shared between tasks,
// so verdict writes are relaxed atomic fetch_or; the final word value is
// an OR of task-owned bits and therefore schedule-independent.
//
// Determinism: tasks are claimed dynamically for load balance, but every
// recorded fact lands in a task-owned slot (groups own disjoint candidate
// index sets and disjoint source slots for ball reuse), and bit ORs
// commute -- so the recorded facts, and therefore the final edge set, are
// independent of scheduling and thread count.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/bound_sketch.hpp"
#include "core/candidate_stream.hpp"
#include "core/greedy.hpp"
#include "core/landmark_bounds.hpp"
#include "core/prefilter_kernel.hpp"
#include "graph/dijkstra.hpp"
#include "graph/types.hpp"
#include "util/annotations.hpp"
#include "util/thread_pool.hpp"

namespace gsp {

/// Inputs of one batch's prefilter pass that are independent of the
/// adjacency view type.
struct PrefilterContext {
    std::span<const GreedyCandidate> candidates;
    /// The batch to prefilter (global candidate indices).
    CandidateBucket batch;
    /// Owning bucket's begin: the base every bucket-local index is
    /// relative to (bounds, groups, verdict bits).
    std::size_t base = 0;
    /// Grouping by source; null => ball sharing is off, partition the
    /// batch into fixed blocks and probe each candidate independently.
    const SourceGroups* groups = nullptr;
    double stretch = 1.0;
    bool bidirectional = true;
    std::size_t ball_share_min_group = 16;
    /// Cell-batched grouping is active: groups key on two-sided anchors
    /// (a member's probe target is its non-anchor endpoint, not always
    /// `.v`), and ball work is attributed to the cell_ball counters.
    bool anchored = false;
    /// Multi-target group probes are on: a group with >= 2 undecided
    /// members after the sketch/oracle pass is decided by ONE batched
    /// traversal through the PrefilterKernel seam instead of a drained
    /// ball or per-member point probes. The kernel's verdicts are exact
    /// on the same view, and the gate (undecided count) is a pure
    /// function of the batch -- so edge sets and decision stats stay
    /// bit-identical to the per-candidate path at every thread count.
    bool group_probe = false;
    /// Ball-reuse scope (the engine's batch sequence number): a published
    /// ball may only be revalidated by candidates of the same batch, whose
    /// bounds its harvest wrote.
    std::uint64_t ball_scope = 0;
    std::uint64_t snapshot_epoch = 0;
    /// Cross-bucket bound sketch, consulted before any probe (read-only
    /// during the fan-out; written only by the serial loop). Null when the
    /// sketch is disabled.
    const BoundSketch* sketch = nullptr;
    /// Landmark-tree table, consulted right after the sketch's upper-bound
    /// checks (read-only during the fan-out; refreshed only serially at
    /// bucket boundaries). Null when the sketch is off or the table has
    /// not been filled yet this run.
    const LandmarkTable* landmarks = nullptr;
    /// Optional concurrent reject-only oracle (worker, u, v, threshold);
    /// null when unset or gated off.
    const std::function<bool(std::size_t, VertexId, VertexId, Weight)>* oracle = nullptr;
};

/// Owns the packed verdict bitsets and per-worker counters. One instance
/// per GreedyEngine, reused across runs.
class PrefilterStage {
public:
    /// Reset the per-worker counters for a run. The kernel gather scratch
    /// is sized here but never shrunk -- resize, not assign, keeps a warm
    /// session's capacities.
    GSP_SERIAL_ONLY void begin_run(std::size_t workers) {
        counters_.assign(workers, WorkerCounters{});
        if (kernels_.size() < workers) kernels_.resize(workers);
    }

    /// Size and zero the verdict bitsets for one bucket (bucket-local bit
    /// per candidate; batches of the bucket write disjoint bit ranges).
    GSP_SERIAL_ONLY void begin_bucket(const CandidateBucket& bucket) {
        base_ = bucket.begin;
        const std::size_t words = (bucket.size() + 63) / 64;
        oracle_bits_.assign(words, 0);
        far_bits_.assign(words, 0);
    }

    /// Verdict reads for the serialized insertion loop (global candidate
    /// index; called strictly after the batch's fan-out joined).
    [[nodiscard]] bool oracle_reject(std::size_t i) const {
        return test(oracle_bits_, i - base_);
    }
    [[nodiscard]] bool far_at_snapshot(std::size_t i) const {
        return test(far_bits_, i - base_);
    }

    /// Current verdict-bitset footprint (for the handoff byte accounting).
    /// Logical words, not capacities: the counter must be a pure function
    /// of the run, independent of what earlier (larger) runs left behind
    /// in a warm session's buffers.
    [[nodiscard]] std::size_t verdict_bytes() const {
        return (oracle_bits_.size() + far_bits_.size()) * sizeof(std::uint64_t);
    }

    /// Fan one batch out over the pool. `bounds` collects realizable-path
    /// upper bounds (bucket-local slots); the ball_* arrays
    /// (source-indexed) record grown balls so the insertion loop's
    /// lazy-revalidation path can reuse them. Worker counters are merged
    /// into `stats` (sums, so the totals are schedule-independent).
    template <class View>
    GSP_SERIAL_ONLY void run_batch(ThreadPool& pool, DijkstraWorkspacePool& ws_pool, const View& view,
                   const PrefilterContext& ctx, std::vector<Weight>& bounds,
                   std::vector<std::uint64_t>& ball_bucket,
                   std::vector<std::uint64_t>& ball_epoch,
                   std::vector<Weight>& ball_radius, GreedyStats& stats);

private:
    /// Block width of the no-grouping partition: small enough to balance,
    /// big enough that the atomic task cursor is off the hot path. One
    /// 64-bit verdict word per block, so block tasks tend to own whole
    /// words.
    static constexpr std::size_t kBlock = 64;

    // One cache line per worker: the counters are written in the innermost
    // probe loop and must not false-share.
    struct alignas(64) WorkerCounters {
        std::size_t dijkstra_runs = 0;
        std::size_t balls_computed = 0;
        std::size_t sketch_hits = 0;
        std::size_t cell_balls = 0;
        std::size_t cell_ball_decisions = 0;
        std::size_t coarse_rejects = 0;
        std::size_t landmark_rejects = 0;
        std::size_t group_probes = 0;
        std::size_t group_probe_decisions = 0;
        std::size_t group_probe_early_exits = 0;
    };

    /// Set a bucket-local verdict bit. Words are shared across tasks, so
    /// the write is a relaxed atomic OR (commutative => deterministic;
    /// the batch join publishes the result to stage 3).
    GSP_HOT_PATH static void set_bit(std::vector<std::uint64_t>& bits,
                                     std::size_t local) {
        std::atomic_ref<std::uint64_t> word(bits[local >> 6]);
        word.fetch_or(std::uint64_t{1} << (local & 63), std::memory_order_relaxed);
    }
    /// Read a bucket-local verdict bit; atomic so stage-2 tasks may read
    /// their own bits while other tasks write neighbors in the same word.
    /// (atomic_ref over const is C++26; the underlying word is a non-const
    /// member, so the cast is well-defined.)
    [[nodiscard]] GSP_HOT_PATH static bool test(
        const std::vector<std::uint64_t>& bits, std::size_t local) {
        std::atomic_ref<std::uint64_t> word(
            const_cast<std::uint64_t&>(bits[local >> 6]));
        return (word.load(std::memory_order_relaxed) >> (local & 63)) & 1u;
    }

    template <class View>
    GSP_HOT_PATH void process_group(DijkstraWorkspace& ws, WorkerCounters& wc, const View& view,
                       const PrefilterContext& ctx, std::size_t worker, VertexId source,
                       std::vector<Weight>& bounds,
                       std::vector<std::uint64_t>& ball_bucket,
                       std::vector<std::uint64_t>& ball_epoch,
                       std::vector<Weight>& ball_radius);

    template <class View>
    GSP_HOT_PATH void probe_one(DijkstraWorkspace& ws, WorkerCounters& wc, const View& view,
                   const PrefilterContext& ctx, std::size_t worker, std::uint32_t local,
                   std::vector<Weight>& bounds);

    /// Consult the cross-bucket sketch (and the landmark table) for one
    /// candidate: a persisted witness upper bound publishes a permanent
    /// reject through the bound slot, an epoch-valid lower bound publishes
    /// a far-at-snapshot bit.
    /// Returns true when the candidate is decided (no probe needed).
    GSP_DECISION_PURE GSP_HOT_PATH bool sketch_decides(
        const PrefilterContext& ctx, std::uint32_t local,
                        const GreedyCandidate& c, Weight threshold,
                        std::vector<Weight>& bounds, WorkerCounters& wc) {
        if (ctx.sketch == nullptr) return false;
        const Weight ub = ctx.sketch->upper_bound(c.u, c.v);
        if (ub <= threshold) {
            if (ub < bounds[local]) bounds[local] = ub;
            ++wc.sketch_hits;
            return true;
        }
        // Via-landmark coarse reject (mirrors the serial loop): two
        // witness paths through a common landmark concatenate into a
        // sound upper bound -- the hit path on streams that emit each
        // pair exactly once, where the direct consult above cannot hit.
        const Weight via = ctx.sketch->via_upper_bound(c.u, c.v);
        if (via <= threshold) {
            if (via < bounds[local]) bounds[local] = via;
            ++wc.coarse_rejects;
            return true;
        }
        // Landmark-tree reject (mirrors the serial loop): the endpoints'
        // distances to a common landmark, from trees the serial loop built
        // at the bucket boundary -- read, never written, here.
        if (ctx.landmarks != nullptr) {
            const Weight lm = ctx.landmarks->upper_bound(c.u, c.v);
            if (lm <= threshold) {
                if (lm < bounds[local]) bounds[local] = lm;
                ++wc.landmark_rejects;
                return true;
            }
        }
        if (ctx.sketch->lower_bound_at(c.u, c.v, ctx.snapshot_epoch) > threshold) {
            set_bit(far_bits_, local);
            ++wc.sketch_hits;
            return true;
        }
        return false;
    }

    std::size_t base_ = 0;                   ///< bucket begin of the bitsets
    std::vector<std::uint64_t> oracle_bits_; ///< oracle certified a witness path
    std::vector<std::uint64_t> far_bits_;    ///< probe exceeded threshold at snapshot
    std::vector<WorkerCounters> counters_;
    std::vector<PrefilterKernel> kernels_;   ///< per-worker gather scratch
};

template <class View>
GSP_SERIAL_ONLY void PrefilterStage::run_batch(
    ThreadPool& pool, DijkstraWorkspacePool& ws_pool,
                               const View& view, const PrefilterContext& ctx,
                               std::vector<Weight>& bounds,
                               std::vector<std::uint64_t>& ball_bucket,
                               std::vector<std::uint64_t>& ball_epoch,
                               std::vector<Weight>& ball_radius, GreedyStats& stats) {
    const std::size_t tasks =
        ctx.groups != nullptr
            ? ctx.groups->sources().size()
            : (ctx.batch.size() + kBlock - 1) / kBlock;
    pool.run(tasks, [&](std::size_t worker, std::size_t task) {
        DijkstraWorkspace& ws = ws_pool.at(worker);
        WorkerCounters& wc = counters_[worker];
        if (ctx.groups != nullptr) {
            process_group(ws, wc, view, ctx, worker, ctx.groups->sources()[task], bounds,
                          ball_bucket, ball_epoch, ball_radius);
        } else {
            const std::size_t first = ctx.batch.begin + task * kBlock;
            const std::size_t last = std::min(first + kBlock, ctx.batch.end);
            for (std::size_t i = first; i < last; ++i) {
                probe_one(ws, wc, view, ctx, worker,
                          static_cast<std::uint32_t>(i - ctx.base), bounds);
            }
        }
    });
    for (WorkerCounters& wc : counters_) {
        stats.dijkstra_runs += wc.dijkstra_runs;
        stats.balls_computed += wc.balls_computed;
        stats.sketch_hits += wc.sketch_hits;
        stats.cell_balls += wc.cell_balls;
        stats.cell_ball_decisions += wc.cell_ball_decisions;
        stats.coarse_rejects += wc.coarse_rejects;
        stats.landmark_rejects += wc.landmark_rejects;
        stats.group_probes += wc.group_probes;
        stats.group_probe_decisions += wc.group_probe_decisions;
        stats.group_probe_early_exits += wc.group_probe_early_exits;
        wc = WorkerCounters{};
    }
}

template <class View>
GSP_HOT_PATH void PrefilterStage::process_group(
    DijkstraWorkspace& ws, WorkerCounters& wc,
                                   const View& view, const PrefilterContext& ctx,
                                   std::size_t worker, VertexId source,
                                   std::vector<Weight>& bounds,
                                   std::vector<std::uint64_t>& ball_bucket,
                                   std::vector<std::uint64_t>& ball_epoch,
                                   std::vector<Weight>& ball_radius) {
    const auto& grp = ctx.groups->of(source);
    const std::span<const GreedyCandidate> cands = ctx.candidates;
    const auto cand_at = [&](std::uint32_t local) -> const GreedyCandidate& {
        return cands[ctx.base + local];
    };

    // Cheap certificate passes first (mirror the serial loop's
    // consult-before-exact order): the cross-bucket sketch, then the
    // oracle; candidates they decide need no probe at all.
    std::size_t undecided = grp.size();
    for (std::uint32_t local : grp) {
        const GreedyCandidate& c = cand_at(local);
        const Weight threshold = ctx.stretch * c.weight;
        if (sketch_decides(ctx, local, c, threshold, bounds, wc)) {
            --undecided;
            continue;
        }
        if (ctx.oracle != nullptr &&
            (*ctx.oracle)(worker, c.u, c.v, threshold)) {
            set_bit(oracle_bits_, local);
            --undecided;
        }
    }
    if (undecided == 0) return;

    // The batched group probe: one traversal from the shared source
    // carries every undecided member's target and decision radius,
    // replacing the drained ball AND the per-member fall-through probes.
    // It terminates the moment the last member is decided, so it usually
    // drains a fraction of the full-radius ball's area. A singleton group
    // keeps the point probe below (meet-in-the-middle beats a one-sided
    // traversal when there is nothing to amortize). The gate reads only
    // task-owned state (sketch/oracle verdicts of this group), so it is
    // schedule-free.
    if (ctx.group_probe && undecided >= 2) {
        BatchedProbe& probe = ws.batched();
        const auto is_undecided = [&](std::uint32_t local) {
            if (oracle_reject(ctx.base + local) || far_at_snapshot(ctx.base + local)) {
                return false;
            }
            return bounds[local] > ctx.stretch * cand_at(local).weight;
        };
        const PrefilterKernel::Outcome outcome = kernels_[worker].decide_group(
            probe, view, source, cands, ctx.base, grp, ctx.stretch, is_undecided,
            bounds, [&](std::uint32_t local) { set_bit(far_bits_, local); });
        ++wc.dijkstra_runs;
        ++wc.group_probes;
        wc.group_probe_decisions += outcome.probed;
        if (outcome.early_exit) ++wc.group_probe_early_exits;
        // The frontier doubles as a published ball for the insertion
        // loop's lazy revalidation, valid out to the certified radius.
        ball_bucket[source] = ctx.ball_scope;
        ball_epoch[source] = ctx.snapshot_epoch;
        ball_radius[source] = outcome.certified_radius;
        return;
    }

    // The radius that covers the group's largest threshold: one drained
    // ball at this radius answers every candidate of the group *exactly*
    // at the snapshot (settled => exact distance; unsettled => distance
    // exceeds the radius).
    const Weight radius = ctx.stretch * cand_at(grp.back()).weight;
    if (undecided >= ctx.ball_share_min_group) {
        ws.ball(view, source, radius);
        ++wc.dijkstra_runs;
        ++wc.balls_computed;
        if (ctx.anchored) ++wc.cell_balls;
        for (std::uint32_t local : grp) {
            if (oracle_reject(ctx.base + local)) continue;
            const GreedyCandidate& c = cand_at(local);
            // The drained ball decides every member at the snapshot:
            // settled targets get their exact distance as a bound,
            // unsettled ones are certified further than the radius.
            const Weight d = ws.settled_distance(SourceGroups::other_of(c, source));
            if (d < bounds[local]) bounds[local] = d;
            if (d > ctx.stretch * c.weight) set_bit(far_bits_, local);
            if (ctx.anchored) ++wc.cell_ball_decisions;
        }
        // Publish the ball for the insertion loop's lazy revalidation: it
        // stays exact until the first post-snapshot insertion.
        ball_bucket[source] = ctx.ball_scope;
        ball_epoch[source] = ctx.snapshot_epoch;
        ball_radius[source] = radius;
        return;
    }

    for (std::size_t g = 0; g < grp.size(); ++g) {
        const std::uint32_t local = grp[g];
        if (oracle_reject(ctx.base + local) || far_at_snapshot(ctx.base + local)) continue;
        const GreedyCandidate& c = cand_at(local);
        const VertexId other = SourceGroups::other_of(c, source);
        const Weight threshold = ctx.stretch * c.weight;
        if (bounds[local] <= threshold) continue;  // harvested by an earlier probe
        ++wc.dijkstra_runs;
        const Weight d = ctx.bidirectional
                             ? ws.distance_bidirectional(view, source, other, threshold)
                             : ws.distance(view, source, other, threshold);
        if (d <= threshold) {
            if (d < bounds[local]) bounds[local] = d;
        } else {
            set_bit(far_bits_, local);
        }
        // Forward labels are realizable path lengths from the shared
        // anchor; harvest them as bounds for the group's later candidates
        // (all writes stay inside this group's candidate slots).
        for (std::size_t g2 = g + 1; g2 < grp.size(); ++g2) {
            const std::uint32_t local2 = grp[g2];
            const Weight b = ws.last_forward_bound(SourceGroups::other_of(cand_at(local2), source));
            if (b < bounds[local2]) bounds[local2] = b;
        }
    }
}

template <class View>
GSP_HOT_PATH void PrefilterStage::probe_one(
    DijkstraWorkspace& ws, WorkerCounters& wc, const View& view,
                               const PrefilterContext& ctx, std::size_t worker,
                               std::uint32_t local, std::vector<Weight>& bounds) {
    const GreedyCandidate& c = ctx.candidates[ctx.base + local];
    const Weight threshold = ctx.stretch * c.weight;
    if (sketch_decides(ctx, local, c, threshold, bounds, wc)) return;
    if (ctx.oracle != nullptr && (*ctx.oracle)(worker, c.u, c.v, threshold)) {
        set_bit(oracle_bits_, local);
        return;
    }
    ++wc.dijkstra_runs;
    const Weight d = ctx.bidirectional
                         ? ws.distance_bidirectional(view, c.u, c.v, threshold)
                         : ws.distance(view, c.u, c.v, threshold);
    if (d <= threshold) {
        if (d < bounds[local]) bounds[local] = d;
    } else {
        set_bit(far_bits_, local);
    }
}

}  // namespace gsp
