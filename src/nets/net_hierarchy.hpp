// Hierarchical nets for doubling metrics.
//
// An r-net of a point set is a subset that is (a) r-separated (packing) and
// (b) r-covering. The hierarchy stacks nets at geometrically growing scales
// r_0, 2 r_0, 4 r_0, ... with each level's net a subset of the level below
// (N_{l+1} is a net *of* N_l). This is the substrate of the Theorem-2
// bounded-degree spanner and of the approximate-greedy cluster phase.
//
// Construction is greedy. For generic metrics it is O(sum_l |N_l|^2);
// for EuclideanMetric inputs a uniform-grid bucketing accelerates each
// level to near-linear time (detected internally via dynamic_cast -- the
// algorithms and invariants are identical, only neighbor enumeration
// changes).
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "metric/euclidean.hpp"
#include "metric/metric_space.hpp"

namespace gsp {

class NetHierarchy {
public:
    /// Build the full hierarchy: level 0 contains all points at scale
    /// r_0 = (minimum interpoint distance), and levels double the scale
    /// until a single net point remains. Requires >= 1 point.
    explicit NetHierarchy(const MetricSpace& m);

    [[nodiscard]] std::size_t num_levels() const { return levels_.size(); }
    [[nodiscard]] std::size_t num_points() const { return n_; }

    /// Net points of level l (level 0 = all points).
    [[nodiscard]] const std::vector<VertexId>& level(std::size_t l) const {
        return levels_.at(l);
    }

    /// Scale r_l of level l.
    [[nodiscard]] double scale(std::size_t l) const { return scales_.at(l); }

    /// Parent of point p at level l (a member of level l+1 within scale(l+1)
    /// of p). Requires p to be a member of level l and l+1 < num_levels().
    [[nodiscard]] VertexId parent(std::size_t l, VertexId p) const;

    /// Children at level l of a net point p of level l+1 (members of level l
    /// whose parent is p; includes p itself whenever p is in level l).
    [[nodiscard]] const std::vector<VertexId>& children(std::size_t l, VertexId p) const;

    /// True iff p belongs to the level-l net.
    [[nodiscard]] bool is_member(std::size_t l, VertexId p) const;

    /// Highest level containing p (membership is contiguous from level 0).
    [[nodiscard]] std::size_t top_level(VertexId p) const { return top_level_.at(p); }

    /// Enumerate all unordered pairs (p, q) of level-l net points with
    /// d(p, q) <= radius, invoking visit(p, q, d(p, q)). Grid-accelerated
    /// for Euclidean inputs.
    void for_each_near_pair(std::size_t l, double radius,
                            const std::function<void(VertexId, VertexId, double)>& visit) const;

    /// Verify the net invariants at every level (packing: members pairwise
    /// > scale apart; covering: every level-(l-1) member within scale of its
    /// parent). Returns false with no diagnosis on the first violation;
    /// quadratic, meant for tests.
    [[nodiscard]] bool check_invariants() const;

private:
    const MetricSpace& metric_;
    const EuclideanMetric* euclidean_;  ///< non-null when grid acceleration applies
    double max_abs_coord_ = 0.0;        ///< largest |coordinate| (grid addressability)
    std::size_t n_;
    std::vector<double> scales_;
    std::vector<std::vector<VertexId>> levels_;
    /// parent_[l][p] for p in level l; kNoVertex for non-members.
    std::vector<std::vector<VertexId>> parent_;
    /// children_[l][p]: members of level l whose parent is p.
    std::vector<std::vector<std::vector<VertexId>>> children_;
    std::vector<std::size_t> top_level_;
};

/// Minimum interpoint distance; grid-accelerated for Euclidean inputs,
/// O(n^2) otherwise. Requires >= 2 points.
double min_interpoint_distance(const MetricSpace& m);

}  // namespace gsp
