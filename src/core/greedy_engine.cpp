#include "core/greedy_engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "core/candidate_order.hpp"
#include "graph/incremental_csr.hpp"
#include "metric/metric_space.hpp"
#include "util/timer.hpp"

namespace gsp {

namespace {

/// Reject radius of the anchored (cell-batched) shared ball, as a factor
/// of the group's heaviest candidate weight. A reject's witness path in
/// the dense grid regime has stretch barely above 1, so draining ~1.3x
/// the heaviest weight settles nearly every reject at a fraction of the
/// area the classic full-threshold radius (stretch * w) pays for; the
/// members it leaves unsettled (accepts, high-stretch rejects) fall
/// through to their own goal-directed point probes. Measured optimum on
/// uniform instances: below ~1.2 the fall-through probes dominate, above
/// ~1.4 the extra drained area buys no further decisions.
constexpr double kCellRejectRadiusFactor = 1.3;

/// Landmarks of the LandmarkTable: k shortest-path trees, k * n doubles
/// (1 MiB at n = 8192). Sixteen doubles fill exactly two cache lines per
/// vertex, so a consult reads four lines for its two rows.
constexpr std::size_t kLandmarkCount = 16;

/// Queries run directly on the growing Graph (csr_snapshot off).
struct LiveAdapter {
    const Graph* h = nullptr;
    void snapshot(const Graph& g) { h = &g; }
    static void add_edge(VertexId, VertexId, Weight, EdgeId) {}
    [[nodiscard]] const Graph& view() const { return *h; }
    [[nodiscard]] static std::size_t rebuilds() { return 0; }
    [[nodiscard]] static std::size_t compactions() { return 0; }
};

/// Queries run on the gap-buffered incremental CSR mirror (csr_snapshot
/// on): contiguous per-vertex scans, kept exact at O(degree) per insertion
/// -- "snapshots" after the first build are free no-ops, so stage-2
/// facts never pay a refreeze and accept-heavy batches cost no O(n + m)
/// rebuilds.
struct IncrementalAdapter {
    IncrementalCsrView v;
    void snapshot(const Graph& g) { v.refresh(g); }
    void add_edge(VertexId a, VertexId b, Weight w, EdgeId id) { v.add_edge(a, b, w, id); }
    [[nodiscard]] const IncrementalCsrView& view() const { return v; }
    [[nodiscard]] std::size_t rebuilds() const { return v.rebuilds(); }
    [[nodiscard]] std::size_t compactions() const { return v.compactions(); }
};

/// Refresh economics of the landmark table, knob-free. A refresh costs
/// k * (n + 2|E_H|) push-equivalents (every vertex and adjacency entry
/// once per tree), so it is bought only when the previous bucket spent at
/// least that much on probes. Every refresh must repay itself: before the
/// next one is bought, the table in force must have rejected enough
/// candidates that, at the mean probe work of its lifetime, the probes it
/// spared cover its cost -- otherwise the rule turns off for the rest of
/// the run (the table stays sound and keeps being consulted). Push counts
/// and rejects are pure functions of the input at every parallel worker
/// count, so refreshes land on the same buckets at every such count.
struct LandmarkRefreshRule {
    bool live = false;
    std::size_t cost = 0;          ///< cost of the table in force (0 = none yet)
    std::size_t rejects_mark = 0;  ///< landmark_rejects when it was built
    std::size_t runs_mark = 0;     ///< dijkstra_runs when it was built
    std::size_t work_mark = 0;     ///< probe work when it was built

    /// Decide at a bucket boundary whether to refresh, given the previous
    /// bucket's probe work, the cost of a refresh now, the run's counters,
    /// and the run's cumulative probe work.
    bool want_refresh(std::size_t bucket_work, std::size_t next_cost,
                      const GreedyStats& stats, std::size_t work_now) {
        if (!live || bucket_work < next_cost) return false;
        if (cost > 0) {
            const std::size_t runs = stats.dijkstra_runs - runs_mark;
            const double mean_probe =
                runs > 0 ? static_cast<double>(work_now - work_mark) /
                               static_cast<double>(runs)
                         : 0.0;
            const double spared =
                static_cast<double>(stats.landmark_rejects - rejects_mark) * mean_probe;
            if (spared < static_cast<double>(cost)) {
                live = false;
                return false;
            }
        }
        return true;
    }

    void refreshed(std::size_t refresh_cost, const GreedyStats& stats,
                   std::size_t work_now) {
        cost = refresh_cost;
        rejects_mark = stats.landmark_rejects;
        runs_mark = stats.dijkstra_runs;
        work_mark = work_now;
    }
};

/// Stage-1 feed over a fully materialized candidate span: the classic
/// path. streamed()/peak_buffer_bytes() report the whole array -- the
/// honest baseline the chunked feed's counters are compared against.
struct SpanCandidateFeed {
    CandidateStream stream;
    std::span<const GreedyCandidate> all;

    SpanCandidateFeed(std::span<const GreedyCandidate> candidates, double bucket_ratio)
        : stream(candidates, bucket_ratio), all(candidates) {}

    bool next(CandidateBucket& out) { return stream.next(out); }
    [[nodiscard]] std::span<const GreedyCandidate> window(const CandidateBucket& b) const {
        return all.subspan(b.begin, b.size());
    }
    [[nodiscard]] std::size_t streamed() const { return all.size(); }
    [[nodiscard]] std::size_t peak_buffer_bytes() const {
        return all.size() * sizeof(GreedyCandidate);
    }
};

}  // namespace

ThreadPool& EngineResources::acquire_pool(std::size_t workers) {
    for (const auto& pool : pools_) {
        if (pool->num_workers() == workers) return *pool;
    }
    pools_.push_back(std::make_unique<ThreadPool>(workers));
    ++pools_constructed_;
    return *pools_.back();
}

GreedyEngine::GreedyEngine(std::size_t n, GreedyEngineOptions options)
    : options_(std::move(options)), n_(n),
      owned_(std::make_unique<EngineResources>()), res_(owned_.get()) {
    init();
}

GreedyEngine::GreedyEngine(std::size_t n, GreedyEngineOptions options,
                           EngineResources& resources)
    : options_(std::move(options)), n_(n), res_(&resources) {
    init();
}

void GreedyEngine::init() {
    if (!(options_.stretch >= 1.0) || !std::isfinite(options_.stretch)) {
        throw std::invalid_argument("GreedyEngine: stretch must be finite and >= 1");
    }
    options_.validate();
    workers_ = ThreadPool::resolve_workers(options_.num_threads);
    if (workers_ > 1) {
        pool_ = &res_->acquire_pool(workers_);
        // Worker workspaces are sized lazily by run_impl on first use.
    }
}

GSP_SERIAL_ONLY Graph GreedyEngine::run(Graph h,
                                        std::span<const GreedyCandidate> candidates,
                        GreedyStats* stats) {
    const Timer timer;
    if (h.num_vertices() != n_) {
        throw std::invalid_argument("GreedyEngine::run: vertex count mismatch");
    }
    for (std::size_t i = 1; i < candidates.size(); ++i) {
        if (candidates[i].weight < candidates[i - 1].weight) {
            throw std::invalid_argument(
                "GreedyEngine::run: candidates must be sorted by weight");
        }
    }
    // Sorted, so the heaviest threshold is the last one.
    if (!candidates.empty() && !std::isfinite(options_.stretch * candidates.back().weight)) {
        throw std::invalid_argument(
            "GreedyEngine::run: stretch * weight overflows to a non-finite threshold");
    }
    GreedyStats local;
    SpanCandidateFeed feed(candidates, options_.bucket_ratio);
    Graph out(0);
    if (options_.csr_snapshot) {
        IncrementalAdapter adapter;
        out = run_impl(adapter, std::move(h), feed, local);
    } else {
        LiveAdapter adapter;
        out = run_impl(adapter, std::move(h), feed, local);
    }
    local.seconds = timer.seconds();
    if (stats != nullptr) *stats = local;
    return out;
}

GSP_SERIAL_ONLY Graph GreedyEngine::run(Graph h, CandidateChunkSource& source,
                        std::vector<GreedyCandidate>& buffer, GreedyStats* stats) {
    const Timer timer;
    if (h.num_vertices() != n_) {
        throw std::invalid_argument("GreedyEngine::run: vertex count mismatch");
    }
    // Sortedness and finite thresholds are validated incrementally as
    // chunks arrive (the stream throws on a contract violation), including
    // across chunk boundaries.
    GreedyStats local;
    ChunkedCandidateStream feed(source, buffer, options_.bucket_ratio,
                                options_.chunk_soft_cap, options_.stretch);
    Graph out(0);
    if (options_.csr_snapshot) {
        IncrementalAdapter adapter;
        out = run_impl(adapter, std::move(h), feed, local);
    } else {
        LiveAdapter adapter;
        out = run_impl(adapter, std::move(h), feed, local);
    }
    local.seconds = timer.seconds();
    if (stats != nullptr) *stats = local;
    return out;
}

template <class Adapter, class Feed>
GSP_SERIAL_ONLY Graph GreedyEngine::run_impl(Adapter& adapter, Graph h, Feed& feed,
                                             GreedyStats& stats) {
    // Every expensive array below lives in the (possibly session-shared)
    // resources; a warm build reuses them all. Per-run state is reset
    // explicitly here, so a run's decisions *and stats* are a pure
    // function of (candidates, options) -- identical whether the
    // resources are fresh or warm (the session-equivalence contract).
    EngineResources& res = *res_;
    DijkstraWorkspace& ws = res.ws_;
    DijkstraWorkspacePool& ws_pool = res.ws_pool_;
    PrefilterStage& prefilter_stage = res.prefilter_stage_;
    SourceGroups& groups = res.groups_;
    BoundSketch& sketch = res.sketch_;
    LandmarkTable& landmarks = res.landmarks_;
    std::vector<Weight>& bound = res.bound_;
    std::vector<std::uint64_t>& far_mark = res.far_mark_;
    std::vector<std::uint64_t>& ball_bucket = res.ball_bucket_;
    std::vector<std::uint64_t>& ball_epoch = res.ball_epoch_;
    std::vector<Weight>& ball_radius = res.ball_radius_;

    const double t = options_.stretch;
    const bool sharing = options_.ball_sharing;
    const bool parallel = parallel_enabled();
    const bool use_sketch = options_.bound_sketch;
    // The source picks the group mechanism: cell-batched grouping (the
    // grid's reps anchor at the two-sided hub endpoint and drain one cell
    // ball each) or, for every other source, multi-target group probes
    // -- one bounded traversal per source group carrying every member's
    // target and radius. Both ride on the group machinery, so sharing is
    // a prerequisite.
    const bool anchored = sharing && options_.cell_batching;
    const bool group_probe = sharing && !anchored;
    // Bounds are the currency of both ball sharing and the parallel stage.
    const bool track_bounds = sharing || parallel;
    const std::size_t meets_before = ws.meet_events() + ws_pool.total_meet_events();
    ws.resize(n_);
    if (parallel) ws_pool.configure(workers_, n_);

    if (track_bounds) {
        ball_bucket.assign(n_, 0);
        ball_epoch.assign(n_, 0);
        ball_radius.assign(n_, 0.0);
    }
    if (parallel) prefilter_stage.begin_run(workers_);
    if (use_sketch) sketch.reset(n_, options_.sketch_ways);
    // The landmark table rides on the sketch switch, so the naive
    // reference (sketch off) stays untouched. It is emptied either way: a
    // warm session's table from an earlier build must never answer for
    // this one. Probe work is metered as deltas of the workspaces'
    // cumulative push counters: warm and fresh resources see the same
    // deltas.
    landmarks.reset(use_sketch ? n_ : 0, kLandmarkCount);
    LandmarkRefreshRule landmark_rule;
    landmark_rule.live = use_sketch;
    const auto probe_work = [&] { return ws.total_work() + ws_pool.total_work(); };
    const std::size_t work_before = probe_work();
    std::size_t bucket_work_mark = work_before;

    std::uint64_t insert_epoch = 1;  // bumped on every accepted edge
    // Ball-reuse scope marker. Balls may only answer candidates whose
    // bounds the ball's harvest actually wrote, and harvests cover one
    // *batch*-scoped group -- so reuse is keyed per batch, not per bucket
    // (a bucket-keyed ball could accept a later batch's tie-weight
    // candidate whose bound was never harvested: unsound). Serial runs
    // have one batch per bucket, so this degenerates to the PR-1 rule.
    std::uint64_t batch_seq = 0;
    // Accept-rate gate state: optimistic start (the first batch is
    // prefiltered; probes on a near-empty spanner are near-free).
    double last_accept_rate = 0.0;

    // Cross-bucket sketch recorder (serial-only writer; stage 2 reads
    // the sketch strictly between batches' fan-outs). Accept paths record
    // nothing here: the insertion that follows bumps the epoch and writes
    // the now-exact pair distance, which would overwrite any far record
    // one statement later.
    const auto sk_pair_exact = [&](VertexId a, VertexId b, Weight d) {
        if (!use_sketch) return;
        sketch.record_exact(a, b, d, insert_epoch);
        sketch.record_exact(b, a, d, insert_epoch);
    };

    // Online cost model for the ball-vs-point decision: exponential moving
    // averages of heap pushes per query kind, and of how many candidates a
    // ball actually resolves (its own decision plus the cache hits its
    // harvested bounds will produce). Zero = not yet calibrated this run.
    // Owned by the insertion loop: stage-2 ball decisions use the static
    // group-size threshold instead, so they never depend on scheduling.
    double ball_cost = 0.0;
    double point_cost = 0.0;
    double ball_value = 0.0;
    const auto update_ema = [](double& ema, double sample) {
        ema = ema == 0.0 ? sample : 0.75 * ema + 0.25 * sample;
    };

    // --- Stage 1: the candidate feed paces the bucket loop (a sorted
    // span or a chunk-driven stream -- the loop below only ever touches
    // the current bucket's window, addressed bucket-locally). ---
    CandidateBucket bucket;
    while (feed.next(bucket)) {
        ++stats.buckets;
        if (bucket.size() > std::numeric_limits<std::uint32_t>::max()) {
            // Bucket-local indices (bounds, verdict bits, groups) are u32.
            throw std::length_error(
                "GreedyEngine: a single weight bucket exceeds 2^32 candidates; "
                "lower bucket_ratio to split it");
        }
        // The bucket's candidates, addressed from zero: everything below
        // (groups, bounds, verdict bits, the insertion loop) runs in
        // bucket-local coordinates, so it is indifferent to whether the
        // window is a slice of a full array or of a resident chunk.
        const std::span<const GreedyCandidate> bw = feed.window(bucket);
        const CandidateBucket lbucket{0, bucket.size(), bucket.lo, bucket.hi};

        // Synchronize the adjacency view. With the incremental store this
        // is a full build exactly once per run (then a free no-op: the
        // view mirrors every insertion at O(degree) as it happens).
        adapter.snapshot(h);
        if (landmark_rule.live) {
            const std::size_t work_now = probe_work();
            const std::size_t cost = landmarks.refresh_cost(2 * h.num_edges());
            if (landmark_rule.want_refresh(work_now - bucket_work_mark, cost, stats,
                                           work_now)) {
                landmarks.refresh(adapter.view());
                ++stats.landmark_refreshes;
                landmark_rule.refreshed(cost, stats, work_now);
            }
            bucket_work_mark = work_now;
        }

        // The thin stage-2 -> stage-3 handoff: one Weight slot and one
        // verdict bit per candidate, all bucket-local. Bounds die with
        // the bucket by design -- cross-bucket persistence is the
        // sketch's job, in O(n) instead of O(m).
        if (track_bounds) bound.assign(bucket.size(), kInfiniteWeight);
        // Per-member far certificates from group probes: the epoch at
        // which a probe certified this member far (0 = never). Unlike the
        // shared ball slot, these survive the probe's early exit shrinking
        // the certified radius below a heavy member's threshold.
        if (group_probe) far_mark.assign(bucket.size(), 0);
        if (parallel) prefilter_stage.begin_bucket(lbucket);
        // Logical footprint, not vector capacities: capacities depend on
        // what earlier (possibly larger) runs left in a warm session, and
        // the handoff counter must be a pure function of this run.
        const std::size_t handoff_bytes =
            (track_bounds ? bound.size() * sizeof(Weight) : 0) +
            (parallel ? prefilter_stage.verdict_bytes() : 0);
        stats.handoff_peak_bytes = std::max(stats.handoff_peak_bytes, handoff_bytes);

        const auto cand_at = [&](std::uint32_t local) -> const GreedyCandidate& {
            return bw[local];
        };

        // One early-exit point query, anchor -> target, in the strongest
        // mode the options allow: goal-directed A* when a metric oracle is
        // installed (it sweeps the pair's ellipse, not a disc around one
        // endpoint), else meet-in-the-middle, else one-sided. With groups
        // at hand, every label the query touched is a realizable path
        // length: harvest them as upper bounds for the anchor's later
        // candidates in the batch (and, when two-sided, the target's).
        const auto point_query = [&](VertexId anchor, VertexId target, Weight threshold,
                                     std::uint32_t li) -> Weight {
            ++stats.dijkstra_runs;
            const MetricSpace* goal = options_.goal_bound;
            const bool two_sided = goal == nullptr && options_.bidirectional;
            Weight d;
            if (goal != nullptr) {
                d = ws.distance_goal_directed(
                    adapter.view(), anchor, target, threshold,
                    [goal, target](VertexId x) { return goal->distance(x, target); });
            } else if (two_sided) {
                d = ws.distance_bidirectional(adapter.view(), anchor, target, threshold);
            } else {
                d = ws.distance(adapter.view(), anchor, target, threshold);
            }
            if (!sharing) return d;
            update_ema(point_cost, static_cast<double>(ws.last_work()));
            const auto harvest = [&](VertexId from, bool backward) {
                for (std::uint32_t idx : groups.of(from)) {
                    if (idx <= li) continue;
                    const VertexId x = SourceGroups::other_of(cand_at(idx), from);
                    const Weight b =
                        backward ? ws.last_backward_bound(x) : ws.last_forward_bound(x);
                    if (b < bound[idx]) bound[idx] = b;
                }
            };
            harvest(anchor, false);
            if (two_sided) harvest(target, true);
            return d;
        };

        // When stage 2 is active, a bucket is consumed in fixed-width
        // batches (uniform-ish weights collapse the whole input into one
        // geometric class, and stage-2 facts probed against a spanner that
        // is thousands of insertions stale are worthless). Serial runs
        // keep the PR-1 shape: one batch == the bucket. Batch boundaries
        // are bucket-local, like every other index from here on.
        std::size_t batch_begin = 0;
        while (batch_begin < lbucket.end) {
        const std::size_t batch_end =
            parallel ? std::min(batch_begin + options_.parallel_batch, lbucket.end)
                     : lbucket.end;
        const CandidateBucket batch{batch_begin, batch_end, bucket.lo, bucket.hi};
        ++batch_seq;

        // Whether stage 2 runs is keyed on the previous batch's accept
        // rate. Accept-predicted batches skip stage 2 entirely: their
        // snapshot facts would die on the first insertion. The
        // decision is a pure function of the greedy decisions, hence
        // identical at every thread count. The incremental view is exact
        // right now either way -- there is no refreeze to pay, only the
        // probe work itself to gate.
        const bool run_stage2 =
            parallel && last_accept_rate <= options_.parallel_accept_gate;
        // Stage 2 consults the landmark table for every candidate of the
        // batch, and the table only changes at bucket boundaries: a
        // serial consult after it could never reject anything new.
        const bool serial_landmarks = landmarks.ready() && !run_stage2;
        if (sharing) groups.rebuild(bw, batch, 0, n_, anchored);
        // Group-size-aware bootstrap threshold for the ball-vs-point gate:
        // a stream whose groups never reach ball_share_min_group (grid rep
        // windows are ~s^2 wide) still calibrates the cost model from its
        // first full-size group, instead of staying on point queries for
        // the whole run. The floor of 2 keeps degenerate all-singleton
        // batches from bootstrapping a ball that can amortize nothing.
        const std::size_t bootstrap_min_group =
            sharing ? std::min(options_.ball_share_min_group,
                               std::max<std::size_t>(groups.max_group_size(), 2))
                    : options_.ball_share_min_group;
        const std::uint64_t snapshot_epoch = insert_epoch;
        const std::size_t batch_accepts_before = stats.edges_added;

        // --- Stage 2: parallel reject-only prefilter over the batch-start
        // view. Everything it records is sound regardless of what stage 3
        // inserts later. ---
        if (run_stage2) {
            PrefilterContext ctx;
            ctx.candidates = bw;
            ctx.batch = batch;
            ctx.base = 0;
            ctx.groups = sharing ? &groups : nullptr;
            ctx.stretch = t;
            ctx.bidirectional = options_.bidirectional;
            ctx.ball_share_min_group = bootstrap_min_group;
            ctx.anchored = anchored;
            ctx.ball_scope = batch_seq;
            ctx.snapshot_epoch = snapshot_epoch;
            ctx.sketch = use_sketch ? &sketch : nullptr;
            ctx.landmarks = landmarks.ready() ? &landmarks : nullptr;
            prefilter_stage.run_batch(*pool_, ws_pool, adapter.view(), ctx, bound,
                                      ball_bucket, ball_epoch, ball_radius, stats);
        }

        // --- Stage 3: the serialized insertion loop re-walks the batch in
        // deterministic tie order and re-verifies every surviving accept. ---
        for (std::size_t i = batch.begin; i < batch.end; ++i) {
            const GreedyCandidate& c = bw[i];
            const auto li = static_cast<std::uint32_t>(i);
            const Weight threshold = t * c.weight;
            ++stats.edges_examined;
            // The probe endpoint pair: the group anchor (u in classic
            // mode, the hub endpoint in cell-batched mode) and the other
            // endpoint. Distances are symmetric, so every exact path
            // below may run anchor -> target instead of u -> v.
            const VertexId anchor = sharing ? groups.anchor_of(li) : c.u;
            const VertexId target = SourceGroups::other_of(c, anchor);
            // This candidate is decided this iteration, whichever path runs.
            if (sharing) groups.decrement_remaining(anchor);

            bool accept = false;
            if (track_bounds && bound[li] <= threshold) {
                // A realizable witness path no heavier than the threshold
                // is already known (harvested serially or by stage 2); the
                // spanner only grows, so the bound can only have improved.
                ++stats.cache_hits;
                if (use_sketch) {
                    // Persist the witness across buckets (upper bounds are
                    // sound forever).
                    sketch.record_upper(c.u, c.v, bound[li]);
                    sketch.record_upper(c.v, c.u, bound[li]);
                }
                continue;
            }
            if (use_sketch && sketch.upper_bound(c.u, c.v) <= threshold) {
                // Cross-bucket cache hit: an earlier bucket's exact query
                // already certified a witness path for this pair.
                ++stats.sketch_hits;
                continue;
            }
            if (use_sketch) {
                // Coarse-bound fast reject: even when neither endpoint
                // remembers the other (a grid stream emits each pair
                // exactly once, so the direct consult above never hits),
                // both may remember a common landmark -- typically a cell
                // anchor whose drained ball settled them. Concatenating
                // the two witness paths through the landmark is a sound
                // upper bound; within the threshold it rejects with zero
                // graph work, spending the stretch slack the grid banks
                // (t >= the emitted weight's slack keeps such two-leg
                // witnesses plentiful for far reps).
                const Weight via = sketch.via_upper_bound(c.u, c.v);
                if (via <= threshold) {
                    ++stats.coarse_rejects;
                    sketch.record_upper(c.u, c.v, via);
                    sketch.record_upper(c.v, c.u, via);
                    continue;
                }
            }
            if (serial_landmarks) {
                // Landmark-tree reject: the two endpoints' distances to a
                // common landmark concatenate into a witness path, whatever
                // the sketch remembers -- the reject for long candidates
                // whose endpoints share no sketch landmark.
                const Weight lm = landmarks.upper_bound(c.u, c.v);
                if (lm <= threshold) {
                    ++stats.landmark_rejects;
                    sketch.record_upper(c.u, c.v, lm);
                    sketch.record_upper(c.v, c.u, lm);
                    continue;
                }
            }
            bool need_point = false;
            if (parallel && insert_epoch == snapshot_epoch &&
                prefilter_stage.far_at_snapshot(i)) {
                // The stage-2 probe was exact on the batch-start view and
                // nothing has been inserted since: the certificate stands.
                // Once an insertion stales it, the candidate is only a
                // tentative accept and falls through to the exact
                // machinery below.
                ++stats.snapshot_accepts;
                accept = true;
            } else if (group_probe && far_mark[li] == insert_epoch) {
                // A group probe certified this member far on the current
                // view and nothing was inserted since: d(u, v) > threshold
                // stands. The per-member twin of the shared-ball lazy
                // revalidation below -- and immune to an early exit having
                // shrunk the probe's certified radius under this member's
                // threshold.
                ++stats.cache_hits;
                accept = true;
            } else if (use_sketch &&
                       sketch.lower_bound_at(c.u, c.v, insert_epoch) > threshold) {
                // Epoch-valid sketch lower bound: the pair was measured
                // farther than the threshold and nothing was inserted
                // since -- accept without any probe.
                ++stats.sketch_accepts;
                accept = true;
            } else if (!sharing) {
                need_point = true;
            } else {
                const std::uint32_t peers = groups.remaining(anchor);
                const auto& grp = groups.of(anchor);
                // Accept-heavy phases (the previous batch's accept rate
                // above the stage-2 gate, kept fresh for serial runs too)
                // veto the cell ball and the group probe: there, harvests
                // resolve nearly nothing and every insertion stales the
                // far certificates a shared traversal just paid for.
                const bool accept_heavy =
                    last_accept_rate > options_.parallel_accept_gate;
                // Ball-vs-point gate: a ball pays off iff its measured work
                // amortizes below the point-query work of the candidates it
                // realistically resolves (accept-heavy phases make balls
                // near-worthless -- harvested bounds reject nothing).
                // Bootstrap: one ball for the batch's largest group class
                // calibrates the ball side, then one point query
                // calibrates the other.
                bool want_ball = false;
                if (peers > 0) {
                    if (anchored) {
                        // Cell-batched rule: one drained ball per cell per
                        // window, structurally. Its value is mostly
                        // *outside* the group -- the settled frontier
                        // persists in the sketch, so the anchor's later
                        // batches hit the direct consult and neighboring
                        // cells' candidates hit the via-landmark reject --
                        // which per-group cost accounting cannot see.
                        // At most one drained ball per anchor per batch:
                        // its harvested bounds are upper bounds -- sound
                        // forever -- so the group's rejects stay decided
                        // across the batch's insertions, and the few
                        // members an insertion un-certifies (the accept
                        // side needs the epoch) are exactly the ones a
                        // cheap early-exit point query handles best.
                        // Re-draining after every accept is what epoch
                        // invalidation would otherwise cost.
                        want_ball = grp.size() >= std::min<std::size_t>(
                                                      bootstrap_min_group, 4) &&
                                    !accept_heavy && ball_bucket[anchor] != batch_seq;
                    } else if (ball_cost == 0.0) {
                        want_ball = grp.size() >= bootstrap_min_group;
                    } else if (point_cost != 0.0) {
                        want_ball = 2.0 * ball_cost <= std::max(ball_value, 1.0) * point_cost;
                    }
                }
                if (ball_bucket[anchor] == batch_seq && ball_epoch[anchor] == insert_epoch &&
                    ball_radius[anchor] >= threshold) {
                    // Lazy revalidation pay-off: the last ball from this
                    // anchor (grown serially or by stage 2) is still exact
                    // -- no insertion anywhere since -- and covered this
                    // radius, so bound > threshold means the true distance
                    // exceeds the threshold.
                    ++stats.cache_hits;
                    if (anchored) ++stats.cell_ball_decisions;
                    accept = true;
                } else if (want_ball && group_probe && !accept_heavy) {
                    // Multi-target group probe: one bounded traversal
                    // carries every undecided member's target and decision
                    // radius, settles targets as the frontier reaches
                    // them, and stops the moment the last is decided or
                    // the frontier passes the largest undecided bound --
                    // the serial twin of the stage-2 kernel path,
                    // replacing the classic full-radius drained ball.
                    // Settled members land as exact bounds (cache-hit
                    // rejects when their turn comes); far members carry a
                    // per-member far mark, accepting while no insertion
                    // intervenes -- at a fraction of the drained area.
                    BatchedProbe& probe = ws.batched();
                    bool li_far = false;
                    const auto is_undecided = [&](std::uint32_t local) {
                        return local == li ||
                               (local > li && bound[local] > t * cand_at(local).weight);
                    };
                    const auto mark_far = [&](std::uint32_t local) {
                        far_mark[local] = insert_epoch;
                        if (local == li) li_far = true;
                    };
                    const PrefilterKernel::Outcome outcome =
                        res.prefilter_kernel_.decide_group(probe, adapter.view(), anchor,
                                                           bw, 0, grp, t, is_undecided,
                                                           bound, mark_far);
                    ++stats.dijkstra_runs;
                    ++stats.balls_computed;
                    ++stats.group_probes;
                    stats.group_probe_decisions += outcome.probed;
                    if (outcome.early_exit) ++stats.group_probe_early_exits;
                    update_ema(ball_cost, static_cast<double>(probe.last_work()));
                    // Value accounting mirrors the classic ball's
                    // `resolved` (settled rejects only) so the two paths
                    // bid against the point query on equal terms:
                    // counting far members as value inflates the EMA and
                    // flips the gate toward probes on inputs where
                    // per-candidate queries genuinely win.
                    const std::size_t resolved = outcome.probed - outcome.far_members;
                    update_ema(ball_value, static_cast<double>(
                                               std::max<std::size_t>(resolved, 1)));
                    if (use_sketch) {
                        // Same cross-bucket harvest as a drained ball's:
                        // every settle is exact at this epoch.
                        for (const auto& [x, d] : probe.settled()) {
                            if (x != anchor) sketch.record_exact(anchor, x, d, insert_epoch);
                        }
                    }
                    ball_bucket[anchor] = batch_seq;
                    ball_epoch[anchor] = insert_epoch;
                    ball_radius[anchor] = outcome.certified_radius;
                    // The probe carried li and decides every member it
                    // carries: settled within its threshold (the bound
                    // rejects) or far.
                    accept = li_far;
                } else if (want_ball) {
                    // Shared ball: one query answers every candidate of
                    // this anchor in the batch. The classic radius covers
                    // the heaviest member's threshold, so unsettled means
                    // far for the whole group -- but Dijkstra cost grows
                    // with radius^2, and in the reject-heavy regime a
                    // reject's witness path barely exceeds its weight. The
                    // anchored (cell-batched) ball therefore drains only a
                    // *reject radius*: enough to settle the typical
                    // witness for every member, with no clamp up to the
                    // current candidate's threshold -- when the shave
                    // leaves li itself unsettled below its threshold, li
                    // is simply undecided and falls through to its own
                    // goal-directed probe below. Cost, never correctness:
                    // a settled bound is an exact witness either way.
                    // Unanchored groups reach here only in accept-heavy
                    // batches, where the group probe stands down.
                    const Weight w_top = cand_at(grp.back()).weight;
                    const Weight radius =
                        anchored ? kCellRejectRadiusFactor * w_top : t * w_top;
                    ++stats.dijkstra_runs;
                    ++stats.balls_computed;
                    if (anchored) ++stats.cell_balls;
                    const auto& settled = ws.ball(adapter.view(), anchor, radius);
                    update_ema(ball_cost, static_cast<double>(ws.last_work()));
                    if (use_sketch) {
                        // The settled set is exact at this epoch: the
                        // cross-bucket harvest that recovers the n^2
                        // DistanceCache's hit rate in O(n) memory (and, on
                        // streams that emit each pair once, feeds the
                        // via-landmark coarse reject -- the anchor is the
                        // landmark). Each record is a random write into
                        // the O(n)-sized slot table, so the harvest is
                        // DRAM-bound: in anchored mode only the near half
                        // of the frontier is recorded -- a via reject
                        // concatenates two *short* legs through a shared
                        // anchor, so the far half buys almost no rejects
                        // at the same per-record cost. Settle order is
                        // nondecreasing distance: the cap is a prefix.
                        const Weight record_cap =
                            anchored ? 0.5 * radius : kInfiniteWeight;
                        for (const auto& [x, d] : settled) {
                            if (d > record_cap) break;
                            if (x != anchor) sketch.record_exact(anchor, x, d, insert_epoch);
                        }
                    }
                    std::size_t resolved = 1;  // this candidate
                    for (std::uint32_t idx : grp) {
                        const Weight d =
                            ws.settled_distance(SourceGroups::other_of(cand_at(idx), anchor));
                        if (d < bound[idx]) {
                            bound[idx] = d;
                            if (idx > li && d <= t * cand_at(idx).weight) ++resolved;
                        }
                    }
                    update_ema(ball_value, static_cast<double>(resolved));
                    if (anchored) stats.cell_ball_decisions += resolved;
                    ball_bucket[anchor] = batch_seq;
                    ball_epoch[anchor] = insert_epoch;
                    ball_radius[anchor] = radius;
                    if (bound[li] <= threshold) {
                        accept = false;  // exact witness settled by a ball
                    } else if (radius >= threshold) {
                        accept = true;  // unsettled at a covering radius: far
                    } else {
                        // The reject-radius shave left li unsettled below
                        // its own threshold: undecided, probe it directly.
                        need_point = true;
                    }
                } else {
                    need_point = true;
                }
            }
            if (need_point) {
                // No shared traversal decided this candidate (no groups,
                // a small group, or a ball-undecided member): an
                // early-exit point query does.
                const Weight d = point_query(anchor, target, threshold, li);
                accept = d > threshold;
                if (!accept) sk_pair_exact(c.u, c.v, d);
            }
            if (!accept) continue;

            const EdgeId id = h.add_edge(c.u, c.v, c.weight);
            adapter.add_edge(c.u, c.v, c.weight, id);
            ++stats.edges_added;
            ++insert_epoch;
            // The accepted edge is now the shortest u-v path (any older
            // path exceeded t * w >= w), exact at the new epoch.
            sk_pair_exact(c.u, c.v, c.weight);
            if (sharing) {
                // Parallel candidates of the same pair now have a one-edge
                // witness; lower their bounds so they hit the cache. A
                // duplicate is always anchored at one of its own
                // endpoints, so the two groups below cover every copy.
                for (std::uint32_t idx : groups.of(c.u)) {
                    if (idx > li && SourceGroups::other_of(cand_at(idx), c.u) == c.v &&
                        c.weight < bound[idx]) {
                        bound[idx] = c.weight;
                    }
                }
                for (std::uint32_t idx : groups.of(c.v)) {
                    if (idx > li && SourceGroups::other_of(cand_at(idx), c.v) == c.u &&
                        c.weight < bound[idx]) {
                        bound[idx] = c.weight;
                    }
                }
            }
        }
        // Tracked for serial runs too since the cell-batched ball rule
        // reads it; parallel behavior is unchanged (same value as before).
        if (batch.size() > 0) {
            last_accept_rate =
                static_cast<double>(stats.edges_added - batch_accepts_before) /
                static_cast<double>(batch.size());
        }
        batch_begin = batch_end;
        }  // batch loop
    }
    stats.bidirectional_meets =
        ws.meet_events() + ws_pool.total_meet_events() - meets_before;
    stats.probe_pushes = probe_work() - work_before;
    stats.csr_rebuilds = adapter.rebuilds();
    stats.csr_compactions = adapter.compactions();
    stats.candidates_streamed = feed.streamed();
    stats.candidate_buffer_peak_bytes = feed.peak_buffer_bytes();
    return h;
}

void append_sorted_graph_candidates(const Graph& g, std::vector<GreedyCandidate>& out) {
    // Edges scatter in id order, so stability supplies the id tie-break.
    WeightBuckets().append_ordered(
        out,
        [&](auto&& place) {
            for (const Edge& e : g.edges()) place(GreedyCandidate{e.u, e.v, e.weight});
        },
        ByWeightMinMax{});
}

std::vector<GreedyCandidate> sorted_graph_candidates(const Graph& g) {
    std::vector<GreedyCandidate> cands;
    append_sorted_graph_candidates(g, cands);
    return cands;
}

}  // namespace gsp
