#include "nets/net_hierarchy.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <unordered_map>

namespace gsp {

namespace {

/// Uniform-grid bucket index over a subset of Euclidean points. Cells are
/// cubes of side h; all pairs within distance <= h land in neighboring
/// cells, so a 3^d neighborhood scan is exhaustive for radius h.
class GridIndex {
public:
    GridIndex(const EuclideanMetric& m, double cell) : m_(m), cell_(cell) {}

    void insert(VertexId p) { cells_[key(p)].push_back(p); }

    /// Visit all already-inserted points q in the 3^d neighborhood of p's
    /// cell. The callback may be invoked for points farther than `cell_`;
    /// callers re-check distances.
    template <typename Visit>
    void for_each_neighbor(VertexId p, Visit&& visit) const {
        const auto base = coords(p);
        std::vector<std::int64_t> probe(base);
        scan(base, probe, 0, visit);
    }

private:
    using Key = std::uint64_t;

    [[nodiscard]] std::vector<std::int64_t> coords(VertexId p) const {
        const auto pt = m_.point(p);
        std::vector<std::int64_t> c(pt.size());
        for (std::size_t k = 0; k < pt.size(); ++k) {
            c[k] = static_cast<std::int64_t>(std::floor(pt[k] / cell_));
        }
        return c;
    }

    [[nodiscard]] static Key hash_coords(const std::vector<std::int64_t>& c) {
        Key h = 1469598103934665603ull;
        for (std::int64_t x : c) {
            h ^= static_cast<Key>(x) + 0x9e3779b97f4a7c15ull;
            h *= 1099511628211ull;
        }
        return h;
    }

    [[nodiscard]] Key key(VertexId p) const { return hash_coords(coords(p)); }

    template <typename Visit>
    void scan(const std::vector<std::int64_t>& base, std::vector<std::int64_t>& probe,
              std::size_t axis, Visit&& visit) const {
        if (axis == base.size()) {
            const auto it = cells_.find(hash_coords(probe));
            if (it != cells_.end()) {
                for (VertexId q : it->second) visit(q);
            }
            return;
        }
        for (std::int64_t d = -1; d <= 1; ++d) {
            probe[axis] = base[axis] + d;
            scan(base, probe, axis + 1, visit);
        }
        probe[axis] = base[axis];
    }

    const EuclideanMetric& m_;
    double cell_;
    std::unordered_map<Key, std::vector<VertexId>> cells_;
};

/// Grid acceleration only pays off in low dimension (3^d cell probes).
bool grid_applicable(const EuclideanMetric* e) { return e != nullptr && e->dim() <= 3; }

/// Largest coordinate magnitude of the point set.
double max_abs_coordinate(const EuclideanMetric& m) {
    double most = 0.0;
    for (VertexId p = 0; p < m.size(); ++p) {
        for (const double x : m.point(p)) most = std::max(most, std::abs(x));
    }
    return most;
}

/// Whether a GridIndex with side `cell` can address every point: cell
/// coordinates (and their +-1 neighbors) must fit in int64, or the
/// float-to-integer conversion and the neighbor offsets overflow. Point
/// sets spanning many orders of magnitude fail this at fine scales.
bool grid_fits(double max_abs, double cell) { return max_abs / cell < 0x1p62; }

}  // namespace

double min_interpoint_distance(const MetricSpace& m) {
    const std::size_t n = m.size();
    if (n < 2) throw std::invalid_argument("min_interpoint_distance: need >= 2 points");

    const auto brute_force = [&] {
        Weight best = kInfiniteWeight;
        for (VertexId i = 0; i < n; ++i) {
            for (VertexId j = i + 1; j < n; ++j) best = std::min(best, m.distance(i, j));
        }
        return best;
    };
    const auto* e = dynamic_cast<const EuclideanMetric*>(&m);
    if (!grid_applicable(e)) return brute_force();
    const double max_abs = max_abs_coordinate(*e);

    // Bounding-box heuristic cell size, doubled until some pair is found in
    // a 3^d neighborhood; one refinement pass then makes the answer exact.
    const std::size_t d = e->dim();
    std::vector<double> lo(d, kInfiniteWeight), hi(d, -kInfiniteWeight);
    for (VertexId p = 0; p < n; ++p) {
        const auto pt = e->point(p);
        for (std::size_t k = 0; k < d; ++k) {
            lo[k] = std::min(lo[k], pt[k]);
            hi[k] = std::max(hi[k], pt[k]);
        }
    }
    double extent = 0.0;
    for (std::size_t k = 0; k < d; ++k) extent = std::max(extent, hi[k] - lo[k]);
    if (extent == 0.0) return 0.0;  // duplicate points collapse the box

    double h = extent / std::max(1.0, std::pow(static_cast<double>(n), 1.0 / static_cast<double>(d)));
    auto pass = [&](double cell) {
        if (!grid_fits(max_abs, cell)) return brute_force();
        GridIndex grid(*e, cell);
        Weight best = kInfiniteWeight;
        for (VertexId p = 0; p < n; ++p) {
            grid.for_each_neighbor(p, [&](VertexId q) {
                best = std::min(best, static_cast<Weight>(e->distance(p, q)));
            });
            grid.insert(p);
        }
        return best;
    };
    Weight found = pass(h);
    while (found == kInfiniteWeight) {
        h *= 2.0;
        found = pass(h);
    }
    // `found` is an upper bound; a grid at cell = found sees every pair at
    // distance <= found, so one more pass is exact.
    return found <= h ? found : pass(found);
}

NetHierarchy::NetHierarchy(const MetricSpace& m)
    : metric_(m),
      euclidean_(dynamic_cast<const EuclideanMetric*>(&m)),
      n_(m.size()) {
    if (n_ == 0) throw std::invalid_argument("NetHierarchy: empty metric");
    if (!grid_applicable(euclidean_)) euclidean_ = nullptr;
    if (euclidean_ != nullptr) max_abs_coord_ = max_abs_coordinate(*euclidean_);

    // Level 0: every point, at the minimum-distance scale.
    std::vector<VertexId> base(n_);
    for (VertexId p = 0; p < n_; ++p) base[p] = p;
    const double r0 = n_ >= 2 ? min_interpoint_distance(m) : 1.0;
    if (r0 <= 0.0) throw std::invalid_argument("NetHierarchy: duplicate points");
    levels_.push_back(std::move(base));
    scales_.push_back(r0);

    while (levels_.back().size() > 1) {
        const std::vector<VertexId>& prev = levels_.back();
        const double r = scales_.back() * 2.0;

        std::vector<VertexId> net;
        std::vector<VertexId> parent_of(n_, kNoVertex);
        if (euclidean_ != nullptr && grid_fits(max_abs_coord_, r)) {
            GridIndex grid(*euclidean_, r);
            for (VertexId p : prev) {
                bool covered = false;
                grid.for_each_neighbor(p, [&](VertexId q) {
                    if (!covered && metric_.distance(p, q) <= r) covered = true;
                });
                if (!covered) {
                    net.push_back(p);
                    grid.insert(p);
                }
            }
            // Parents: the nearest net point within r (exists by greedy cover).
            GridIndex net_grid(*euclidean_, r);
            for (VertexId q : net) net_grid.insert(q);
            for (VertexId p : prev) {
                Weight best = kInfiniteWeight;
                net_grid.for_each_neighbor(p, [&](VertexId q) {
                    const Weight dq = metric_.distance(p, q);
                    if (dq < best) {
                        best = dq;
                        parent_of[p] = q;
                    }
                });
            }
        } else {
            for (VertexId p : prev) {
                bool covered = false;
                for (VertexId q : net) {
                    if (metric_.distance(p, q) <= r) {
                        covered = true;
                        break;
                    }
                }
                if (!covered) net.push_back(p);
            }
            for (VertexId p : prev) {
                Weight best = kInfiniteWeight;
                for (VertexId q : net) {
                    const Weight dq = metric_.distance(p, q);
                    if (dq < best) {
                        best = dq;
                        parent_of[p] = q;
                    }
                }
            }
        }

        parent_.push_back(std::move(parent_of));
        levels_.push_back(std::move(net));
        scales_.push_back(r);
    }

    // Children lists per level transition.
    children_.resize(parent_.size());
    for (std::size_t l = 0; l < parent_.size(); ++l) {
        children_[l].resize(n_);
        for (VertexId p : levels_[l]) {
            children_[l][parent_[l][p]].push_back(p);
        }
    }

    top_level_.assign(n_, 0);
    for (std::size_t l = 1; l < levels_.size(); ++l) {
        for (VertexId p : levels_[l]) top_level_[p] = l;
    }
}

VertexId NetHierarchy::parent(std::size_t l, VertexId p) const {
    const VertexId result = parent_.at(l).at(p);
    if (result == kNoVertex) {
        throw std::invalid_argument("NetHierarchy::parent: p not a member of level l");
    }
    return result;
}

const std::vector<VertexId>& NetHierarchy::children(std::size_t l, VertexId p) const {
    return children_.at(l).at(p);
}

bool NetHierarchy::is_member(std::size_t l, VertexId p) const {
    const auto& lv = levels_.at(l);
    return std::binary_search(lv.begin(), lv.end(), p);
}

void NetHierarchy::for_each_near_pair(
    std::size_t l, double radius,
    const std::function<void(VertexId, VertexId, double)>& visit) const {
    const auto& members = levels_.at(l);
    if (euclidean_ != nullptr && grid_fits(max_abs_coord_, radius)) {
        // Cells of side `radius` would make 3^d probes exhaustive, but for
        // radius >> scale the buckets get dense; exhaustiveness is what
        // matters, so cell = radius is the correct (and standard) choice.
        GridIndex grid(*euclidean_, radius);
        for (VertexId p : members) {
            grid.for_each_neighbor(p, [&](VertexId q) {
                const double d = metric_.distance(p, q);
                if (d <= radius) visit(std::min(p, q), std::max(p, q), d);
            });
            grid.insert(p);
        }
    } else {
        for (std::size_t i = 0; i < members.size(); ++i) {
            for (std::size_t j = i + 1; j < members.size(); ++j) {
                const double d = metric_.distance(members[i], members[j]);
                if (d <= radius) {
                    visit(std::min(members[i], members[j]),
                          std::max(members[i], members[j]), d);
                }
            }
        }
    }
}

bool NetHierarchy::check_invariants() const {
    for (std::size_t l = 0; l + 1 < levels_.size(); ++l) {
        const double r_next = scales_[l + 1];
        // Packing at level l+1: members pairwise > r_{l+1} apart.
        const auto& net = levels_[l + 1];
        for (std::size_t i = 0; i < net.size(); ++i) {
            for (std::size_t j = i + 1; j < net.size(); ++j) {
                if (metric_.distance(net[i], net[j]) <= r_next) return false;
            }
        }
        // Covering: every level-l member within r_{l+1} of its parent, and
        // the parent is a member of level l+1.
        for (VertexId p : levels_[l]) {
            const VertexId par = parent_[l][p];
            if (par == kNoVertex) return false;
            if (!is_member(l + 1, par)) return false;
            if (metric_.distance(p, par) > r_next) return false;
        }
        // Nesting: level l+1 is a subset of level l.
        for (VertexId p : net) {
            if (!is_member(l, p)) return false;
        }
    }
    return levels_.empty() ? false : levels_.back().size() >= 1;
}

}  // namespace gsp
