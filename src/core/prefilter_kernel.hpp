// The narrow seam between the prefilter and the batched group-probe
// kernel (ROADMAP direction 4's accelerator slot).
//
// Everything that crosses this boundary is plain-old-data in SoA form:
//
//   in:  one source vertex, the group's target vertices and decision
//        radii as two parallel contiguous arrays (radii nondecreasing --
//        free, because group members arrive in weight order);
//   out: per-slot verdicts (far bit OR exact distance <= radius), the
//        settled frontier as (vertex, distance) pairs, and the frontier's
//        completeness radius.
//
// The contract an alternative backend must honor to slot in here is
// exactly the verdict-bitset contract of core/prefilter_stage.hpp:
//   * a returned bound is the length of a realizable path on the probed
//     view (sound forever as a reject witness);
//   * a far verdict certifies d(source, target) > radius ON THAT VIEW
//     (stage 3 treats it as "far at snapshot": accept-on-certificate only
//     while nothing was inserted since, re-verify otherwise);
//   * the settled list is exact and complete out to certified_radius
//     (absence certifies distance > radius) -- what lets the insertion
//     loop revalidate far members against the published ball slot.
// Verdicts must be pure functions of (view, source, targets, radii):
// the stage's determinism argument (schedule-independent edge sets and
// decision stats) rests on it. Nothing in the contract requires a
// sequential traversal -- a wavefront/GPU relaxation that returns exact
// bounded distances satisfies it verbatim.
//
// This class owns only the gather scratch (group member -> SoA slot);
// the traversal state lives in the BatchedProbe the caller passes in
// (one per worker, pooled with its DijkstraWorkspace).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "core/candidate_stream.hpp"
#include "graph/batched_probe.hpp"
#include "graph/types.hpp"
#include "util/annotations.hpp"

namespace gsp {

class PrefilterKernel {
public:
    struct Outcome {
        std::size_t probed = 0;       ///< members the kernel carried
        std::size_t far_members = 0;  ///< of those, decided far
        std::size_t undecided_members = 0;  ///< cap fall-throughs, still open
        Weight certified_radius = 0.0;
        bool early_exit = false;
        bool ran = false;  ///< false when no member was still undecided
    };

    /// Decide every still-undecided member of `grp` (bucket-local indices
    /// into `candidates` at `base`, anchored at `source`) with one batched
    /// probe on `view`. `undecided(local)` filters members already decided
    /// upstream (sketch, oracle, earlier harvests); settled members write
    /// their exact distance into `bounds[local]`, far members are reported
    /// through `mark_far(local)` -- the caller owns the verdict encoding
    /// (stage 2 sets far bits; the serial loop folds the verdict into its
    /// accept flag).
    ///
    /// `radius_cap` bounds the traversal below the largest decision
    /// radius (BatchedProbe's reject-radius shave); members it leaves
    /// undecided are reported in Outcome::undecided_members and stay the
    /// caller's to finish. Production callers run uncapped: measured on
    /// the uniform-metric and random-graph workloads, the far-sweep's
    /// amortization of the accept side (one shared drain certifies every
    /// far member) beats the shave -- each capped-out accept costs a
    /// full-threshold point probe, which is exactly the expensive query
    /// the group probe exists to batch away.
    ///
    /// `goal` (optional): a lower-bound oracle `goal(x, t) <= d(x, t)`
    /// enables the probe's goal-directed tail pruning (BatchedProbe's
    /// run_goal). Verdicts are unchanged; the settled harvest past
    /// probe.settled_exact_radius() degrades to upper bounds.
    template <class View, class Undecided, class FarSink, class GoalLb = std::nullptr_t>
    GSP_DECISION_PURE GSP_HOT_PATH Outcome decide_group(BatchedProbe& probe, const View& view, VertexId source,
                         std::span<const GreedyCandidate> candidates, std::size_t base,
                         const std::vector<std::uint32_t>& grp, double stretch,
                         Undecided&& undecided, std::vector<Weight>& bounds,
                         FarSink&& mark_far, Weight radius_cap = kInfiniteWeight,
                         GoalLb goal = nullptr) {
        Outcome out;
        locals_.clear();
        targets_.clear();
        radii_.clear();
        for (const std::uint32_t local : grp) {
            if (!undecided(local)) continue;
            const GreedyCandidate& c = candidates[base + local];
            locals_.push_back(local);
            targets_.push_back(SourceGroups::other_of(c, source));
            radii_.push_back(stretch * c.weight);
        }
        if (locals_.empty()) return out;

        if constexpr (std::is_same_v<GoalLb, std::nullptr_t>) {
            probe.run(view, source, targets_, radii_, radius_cap);
        } else {
            probe.run_goal(view, source, targets_, radii_, radius_cap, goal);
        }

        for (std::size_t j = 0; j < locals_.size(); ++j) {
            const std::uint32_t local = locals_[j];
            if (probe.target_far(j)) {
                mark_far(local);
                ++out.far_members;
            } else if (!probe.target_undecided(j)) {
                const Weight d = probe.target_bound(j);
                if (d < bounds[local]) bounds[local] = d;
            } else {
                // Cap fall-through. One salvage attempt before giving the
                // member back: an in-queue label at early exit is still a
                // realizable path length, and if it already fits the
                // decision radius it is a sound reject witness.
                const Weight lb = probe.label_bound(targets_[j]);
                if (lb <= radii_[j]) {
                    if (lb < bounds[local]) bounds[local] = lb;
                } else {
                    ++out.undecided_members;
                }
            }
        }
        out.probed = locals_.size();
        out.certified_radius = probe.certified_radius();
        out.early_exit = probe.early_exit();
        out.ran = true;
        return out;
    }

private:
    std::vector<std::uint32_t> locals_;
    std::vector<VertexId> targets_;
    std::vector<Weight> radii_;
};

}  // namespace gsp
