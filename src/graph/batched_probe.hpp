// The multi-target bounded Dijkstra group probe.
//
// The greedy prefilter's unit of work is a *source group*: candidates
// sharing one endpoint, each needing "is d(source, target_i) above
// threshold_i?" answered against the same immutable view. The classic
// paths answer that with up to |group| point queries (or one drained ball
// at the group's largest radius). This kernel answers the whole group
// with ONE traversal that carries every target and its decision radius:
//
//  * targets settle as the frontier reaches them -- a settled target's
//    distance is exact, so `d <= radius` decides it as a reject with a
//    realizable witness bound;
//  * a target whose radius falls below the frontier's current minimum can
//    never be reached in time -- it is decided *far* without ever being
//    visited. Radii are kept sorted, so this check is one forward sweep
//    of a cursor over a contiguous Weight array per pop (amortized O(k)
//    total);
//  * the relaxation limit is always the largest *undecided* radius, so
//    the searched area shrinks as targets resolve, and the probe
//    terminates the moment the last target is decided -- typically far
//    inside the area a full ball at the group radius would drain;
//  * an optional radius cap bounds the traversal below the largest
//    radius (the kernel edition of the cell-ball reject-radius shave:
//    Dijkstra cost grows with radius^2 but a reject's witness barely
//    exceeds its candidate's weight). Targets whose radius exceeds the
//    cap can still settle as rejects inside the capped region, but they
//    are never certified far -- a far verdict needs the frontier to pass
//    the full radius, and the cap prunes exactly those relaxations. Such
//    targets come back in a third state, *undecided*, and the caller's
//    per-candidate machinery finishes them: cost, never correctness;
//  * with a metric at hand (run_goal), the probe turns goal-directed
//    once few targets remain undecided: a relaxation whose optimistic
//    completion misses every live target's radius -- nd + lb(x, t_i) >
//    r_i for all live i -- cannot lie on any witness path the remaining
//    verdicts could still need, so it is dropped. This prunes the
//    accept-side tail (the shell between the last reject and the
//    largest radius, most of the disk by area) down to a union of
//    ellipse slivers. Target verdicts are untouched: every prefix of a
//    true within-radius path to a live target passes that target's own
//    test (nd + lb <= nd + true remainder <= r_i), so rejects still
//    settle at their exact distance and far sweeps stay sound. What the
//    pruning does give up is the frontier beyond the engagement
//    distance: completeness and exactness of settled() hold only below
//    it (certified_radius() shrinks accordingly, and harvests must
//    treat later settles as upper bounds -- settled_exact_radius()).
//
// State is SoA (dist / parent / stamp arrays indexed by vertex, epoch
// stamps for O(touched) resets) over a monotone bucket queue
// (util/bucket_queue.hpp) -- bounded nonnegative keys make the D-ary heap
// overkill; bench_micro's queue ablation measures the swap.
//
// Soundness of the three verdicts (all relative to the probed view):
//  * settled => exact: the standard Dijkstra invariant, unharmed by the
//    shrinking limit (a vertex within the FINAL limit has every prefix of
//    its shortest path within every limit the run ever used, since the
//    limit only shrinks -- so no relaxation on that path was pruned);
//  * far by sweep => the frontier minimum exceeded the radius, and keys
//    are monotone, so no path of length <= radius exists;
//  * far by exhaustion => the queue drained with the target unsettled;
//    a path within its radius would have been relaxed end to end (radius
//    <= every limit used while the target was undecided).
//
// certified_radius() extends the same argument to *every* vertex: the
// settled list is complete out to that radius (absent => farther).
// A batch-capable goal oracle evaluates every live target's lower bound
// in one call.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "graph/types.hpp"
#include "simd/aligned.hpp"
#include "util/annotations.hpp"
#include "util/bucket_queue.hpp"

namespace gsp {

class BatchedProbe {
public:
    /// Goal-directed pruning engages once at most this many targets are
    /// still undecided: each candidate relaxation then pays one oracle
    /// lower bound per live target, so the cutoff keeps that scan O(1)
    /// while the pruning is active exactly where it matters -- the outer
    /// shell, where the frontier would otherwise drain the full disk for
    /// a handful of accept-side certificates.
    static constexpr std::size_t kGoalLiveMax = 8;
    /// One traversal deciding every (source, targets[i]) pair against
    /// radii[i]. Radii must be nondecreasing (SourceGroups hands members
    /// out in bucket order, which is weight order -- the invariant is
    /// documented on SourceGroups); duplicate target vertices are fine
    /// (each slot is decided independently). `cap` bounds the traversal:
    /// slots with radii[i] <= cap get the full far/reject treatment,
    /// heavier slots settle as rejects or stay undecided (see the header
    /// note). After run(): target_far(i) / target_bound(i) /
    /// target_undecided(i) hold the verdicts, settled() the exact
    /// frontier, certified_radius() its completeness radius.
    template <class View>
    GSP_DECISION_PURE GSP_HOT_PATH void run(const View& view, VertexId source, std::span<const VertexId> targets,
             std::span<const Weight> radii, Weight cap = kInfiniteWeight) {
        run_impl(view, source, targets, radii, cap, static_cast<const NoGoal*>(nullptr));
    }

    /// run() with a goal-directed lower-bound oracle: `lb(x, t)` must
    /// return a lower bound on d(x, t) over the probed view (a metric
    /// oracle over vertex positions qualifies whenever edge weights are
    /// metric distances). Verdicts are identical to the plain run -- the
    /// oracle only prunes traversal work (see the header note).
    template <class View, class GoalLb>
    GSP_DECISION_PURE GSP_HOT_PATH void run_goal(const View& view, VertexId source, std::span<const VertexId> targets,
                  std::span<const Weight> radii, Weight cap, const GoalLb& lb) {
        run_impl(view, source, targets, radii, cap, &lb);
    }

    // Shared implementation; `lb == nullptr` disables goal-directed
    // pruning (public only because member templates cannot be split out).
    template <class View, class GoalLb>
    GSP_DECISION_PURE GSP_HOT_PATH void run_impl(const View& view, VertexId source, std::span<const VertexId> targets,
                  std::span<const Weight> radii, Weight cap, const GoalLb* lb) {
        const std::size_t n = view.num_vertices();
        const std::size_t k = targets.size();
        if (radii.size() != k) {
            throw std::invalid_argument("BatchedProbe::run: targets/radii size mismatch");
        }
        resize(n);
        if (source >= n) {
            throw std::out_of_range("BatchedProbe::run: source out of range");
        }
        ++current_;
        settled_.clear();
        total_work_ += work_;
        work_ = 0;
        early_exit_ = false;
        certified_radius_ = 0.0;
        exact_radius_ = kInfiniteWeight;
        if (k == 0) return;

        far_.assign(k, 0);
        decided_.assign(k, 0);
        result_.assign(k, kInfiniteWeight);
        tgt_next_.assign(k, kNoSlot);
        for (std::size_t i = 1; i < k; ++i) {
            if (radii[i] < radii[i - 1]) {
                throw std::invalid_argument(
                    "BatchedProbe::run: radii must be nondecreasing");
            }
        }
        // Effective radii min(radii[i], cap) in a contiguous aligned array:
        // the far sweep's operand (still nondecreasing).
        eff_.resize(k);
        for (std::size_t i = 0; i < k; ++i) eff_[i] = std::min(radii[i], cap);
        // Does the goal oracle batch-evaluate lower bounds? (The metric
        // oracle the engine passes does; ad-hoc lambdas and NoGoal don't.)
        constexpr bool kBatchGoal =
            requires(const GoalLb& g, VertexId x, std::span<const VertexId> ts,
                     Weight* o) { g.batch(x, ts, o); };
        // Per-vertex target chains: duplicate targets share one settle
        // event but keep independent slots (their radii differ).
        for (std::size_t i = 0; i < k; ++i) {
            const VertexId v = targets[i];
            if (v >= n) {
                throw std::out_of_range("BatchedProbe::run: target out of range");
            }
            if (tgt_stamp_[v] == current_) {
                tgt_next_[i] = tgt_head_[v];
            }
            tgt_stamp_[v] = current_;
            tgt_head_[v] = static_cast<std::uint32_t>(i);
        }

        std::size_t undecided = k;
        std::size_t asc = 0;  // far-sweep cursor over sorted radii
        std::size_t top = k;  // 1 + index of the largest undecided radius
        // Slots past `eligible` have radii above the cap: far would be
        // unsound for them (the cap pruned the relaxations a full-radius
        // certificate needs). Effective radii min(radii[i], cap) drive the
        // sweep and the limit -- still nondecreasing, so the cursor logic
        // is untouched.
        const std::size_t eligible = static_cast<std::size_t>(
            std::upper_bound(radii.begin(), radii.end(), cap) - radii.begin());
        Weight limit = std::min(radii[k - 1], cap);  // shrinks as targets resolve

        // Goal-directed pruning flips on the first time the live set
        // shrinks to kGoalLiveMax -- from then on settles above the
        // engagement distance are upper bounds only, so the engagement
        // point is also where certified/exact radii freeze.
        bool goal_mode = false;
        Weight goal_d0 = 0.0;
        auto maybe_engage = [&](Weight dnow, std::size_t undec) {
            if (lb == nullptr || goal_mode || undec > kGoalLiveMax) return;
            goal_mode = true;
            goal_d0 = dnow;
            exact_radius_ = dnow;
            live_.clear();
            live_targets_.clear();
            for (std::size_t s = 0; s < k; ++s) {
                if (!decided_[s]) {
                    live_.push_back(static_cast<std::uint32_t>(s));
                    live_targets_.push_back(targets[s]);
                }
            }
        };
        maybe_engage(0.0, k);

        queue_.reset(limit, std::max<std::size_t>(peak_hint_, 64));
        dist_[source] = 0.0;
        stamp_[source] = current_;
        parent_[source] = kNoVertex;
        queue_.push(0.0, source);
        ++work_;

        while (undecided > 0 && !queue_.empty()) {
            const BucketQueue::Item item = queue_.pop_min();
            const VertexId v = item.vertex;
            const Weight d = item.key;
            if (d > dist_[v]) continue;  // stale entry

            // The batched bound evaluation: every undecided effective
            // radius below the frontier minimum is unreachable in time --
            // decide the whole prefix in one contiguous sweep. Cap-covered
            // slots are certified far; over-cap slots merely lost their
            // last chance to settle (monotone pops: no future settle below
            // d, and the cap pruned everything beyond) and close as
            // undecided fall-throughs.
            while (asc < k && eff_[asc] < d) {
                if (!decided_[asc]) {
                    decided_[asc] = 1;
                    if (asc < eligible) far_[asc] = 1;
                    --undecided;
                }
                ++asc;
            }
            if (undecided == 0) {
                finish_early(limit, d);
                if (goal_mode) clamp_certified(goal_d0);
                return;
            }

            settled_.push_back({v, d});
            if (tgt_stamp_[v] == current_) {
                // radii[slot] >= d for every live slot here (smaller radii
                // were swept far above): settled at d <= radius => reject,
                // with the exact distance as a realizable witness bound.
                for (std::uint32_t slot = tgt_head_[v]; slot != kNoSlot;
                     slot = tgt_next_[slot]) {
                    if (!decided_[slot]) {
                        decided_[slot] = 1;
                        result_[slot] = d;
                        --undecided;
                    }
                }
                tgt_stamp_[v] = 0;  // chain consumed; v settles only once
                if (undecided == 0) {
                    finish_early(limit, d);
                    if (goal_mode) clamp_certified(goal_d0);
                    return;
                }
                // Early termination's other half: shrink the relaxation
                // limit to the largest radius still undecided.
                while (top > 0 && decided_[top - 1]) --top;
                limit = std::min(radii[top - 1], cap);
            }

            maybe_engage(d, undecided);

            // Keep a relaxation only if its optimistic completion still
            // fits some live target's radius; otherwise it can serve no
            // remaining verdict (see the header note). A batch-capable
            // oracle evaluates every live lower bound in one call;
            // the bounds are pure, so computing them eagerly instead of
            // short-circuiting cannot change the decision.
            const auto goal_useful = [&](VertexId x, Weight nd) -> bool {
                if constexpr (kBatchGoal) {
                    lb->batch(x, std::span<const VertexId>(live_targets_),
                              lb_buf_.data());
                    for (std::size_t j = 0; j < live_.size(); ++j) {
                        const std::uint32_t s = live_[j];
                        if (decided_[s]) continue;
                        if (nd + lb_buf_[j] <= radii[s]) return true;
                    }
                    return false;
                } else {
                    for (const std::uint32_t s : live_) {
                        if (decided_[s]) continue;
                        if (nd + (*lb)(x, targets[s]) <= radii[s]) return true;
                    }
                    return false;
                }
            };
            for (const auto& h : view.neighbors(v)) {
                const Weight nd = d + h.weight;
                if (nd > limit) continue;
                if (goal_mode && !goal_useful(h.to, nd)) continue;
                const bool fresh = stamp_[h.to] != current_;
                if (fresh || nd < dist_[h.to]) {
                    stamp_[h.to] = current_;
                    dist_[h.to] = nd;
                    parent_[h.to] = v;
                    queue_.push(nd, h.to);
                    ++work_;
                }
            }
        }

        // Queue exhausted with targets still open: nothing within their
        // radii is reachable (see the soundness note above) -- for
        // cap-covered slots. Over-cap slots could still have a witness in
        // the pruned shell (cap, radius]; they close undecided.
        for (std::size_t i = 0; i < k; ++i) {
            if (!decided_[i]) {
                decided_[i] = 1;
                if (i < eligible) far_[i] = 1;
            }
        }
        certified_radius_ = limit;
        if (goal_mode) clamp_certified(goal_d0);
        if (peak_hint_ < settled_.size()) peak_hint_ = settled_.size();
    }

    /// True iff slot i was decided far: d(source, target_i) > radii[i]
    /// on the probed view.
    [[nodiscard]] bool target_far(std::size_t i) const { return far_[i] != 0; }

    /// Exact distance for a settled (rejected) slot; +infinity for a far
    /// or undecided slot.
    [[nodiscard]] Weight target_bound(std::size_t i) const { return result_[i]; }

    /// True iff the radius cap left slot i with no verdict: not settled
    /// inside the capped region, radius beyond what the traversal could
    /// certify. The caller's per-candidate machinery decides it.
    [[nodiscard]] bool target_undecided(std::size_t i) const {
        return far_[i] == 0 && result_[i] == kInfiniteWeight;
    }

    /// The settled frontier of the last run, in nondecreasing distance
    /// order: exact distances, complete out to certified_radius().
    [[nodiscard]] const std::vector<std::pair<VertexId, Weight>>& settled() const {
        return settled_;
    }

    /// Completeness radius of settled(): every vertex within it appears
    /// with its exact distance; absence certifies distance > radius.
    [[nodiscard]] Weight certified_radius() const { return certified_radius_; }

    /// Exactness radius of settled(): entries at distance <= this carry
    /// exact distances; later entries are realizable upper bounds only
    /// (goal-directed pruning may have cut a shorter path to them).
    /// +infinity when the last run never engaged pruning -- every plain
    /// bounded-Dijkstra settle is exact.
    [[nodiscard]] Weight settled_exact_radius() const { return exact_radius_; }

    /// The last run stopped with frontier still pending (every target was
    /// decided before the search space drained).
    [[nodiscard]] bool early_exit() const { return early_exit_; }

    /// Queue pushes of the last run -- the same work proxy
    /// DijkstraWorkspace::last_work() feeds the engine's cost model.
    [[nodiscard]] std::size_t last_work() const { return work_; }

    /// Queue pushes of every run so far (cumulative; never reset).
    [[nodiscard]] std::size_t total_work() const { return total_work_ + work_; }

    /// Realizable-path upper bound on d(source, x) from the last run's
    /// labels (+infinity if untouched) -- the harvest mirror of
    /// DijkstraWorkspace::last_forward_bound().
    [[nodiscard]] GSP_DECISION_PURE GSP_HOT_PATH Weight label_bound(VertexId x) const {
        return stamp_[x] == current_ ? dist_[x] : kInfiniteWeight;
    }

private:
    static constexpr std::uint32_t kNoSlot = 0xffffffffu;

    /// Placeholder oracle type for the plain run() instantiation; never
    /// called (run_impl only dereferences `lb` in goal mode, which a null
    /// oracle can't enter).
    struct NoGoal {
        Weight operator()(VertexId, VertexId) const { return 0.0; }
    };

    void resize(std::size_t n);

    /// Goal pruning engaged at distance d0: completeness of settled()
    /// is only warranted strictly below it.
    GSP_HOT_PATH void clamp_certified(Weight d0) {
        const Weight cut =
            std::nextafter(d0, -std::numeric_limits<Weight>::infinity());
        certified_radius_ = std::min(certified_radius_, std::max<Weight>(cut, 0.0));
    }

    /// All targets decided at the pop of key `d`. Completeness of the
    /// settled list holds out to min(limit, just-below-d): below d every
    /// vertex settled (monotone pops), and below the final limit no
    /// relaxation was ever pruned.
    GSP_HOT_PATH void finish_early(Weight limit, Weight d) {
        early_exit_ = !queue_.empty();
        certified_radius_ =
            std::min(limit, std::nextafter(d, -std::numeric_limits<Weight>::infinity()));
        if (certified_radius_ < 0.0) certified_radius_ = 0.0;
        if (peak_hint_ < settled_.size()) peak_hint_ = settled_.size();
    }

    // SoA label state, epoch-stamped for O(touched) resets; cache-line
    // aligned so the arrays never false-share with neighboring
    // allocations.
    simd::AlignedVector<Weight> dist_;
    simd::AlignedVector<VertexId> parent_;
    simd::AlignedVector<std::uint64_t> stamp_;
    // Per-vertex target registration (stamped) + per-slot chain links.
    simd::AlignedVector<std::uint64_t> tgt_stamp_;
    simd::AlignedVector<std::uint32_t> tgt_head_;
    std::vector<std::uint32_t> tgt_next_;
    // Per-slot verdicts (sized per run).
    std::vector<std::uint8_t> far_;
    std::vector<std::uint8_t> decided_;
    std::vector<Weight> result_;
    simd::AlignedVector<Weight> eff_;  ///< min(radii[i], cap): the sweep operand

    std::uint64_t current_ = 0;
    BucketQueue queue_;
    std::vector<std::pair<VertexId, Weight>> settled_;
    std::vector<std::uint32_t> live_;  ///< undecided slots at goal engagement
    std::vector<VertexId> live_targets_;  ///< their target vertices, same order
    std::array<Weight, kGoalLiveMax> lb_buf_{};    ///< batched goal lower bounds
    Weight exact_radius_ = kInfiniteWeight;  ///< settles beyond: upper bounds only
    Weight certified_radius_ = 0.0;
    bool early_exit_ = false;
    std::size_t work_ = 0;
    std::size_t total_work_ = 0;  ///< pushes of finished runs
    std::size_t peak_hint_ = 0;  ///< settled-count high-water mark (queue sizing)
};

}  // namespace gsp
