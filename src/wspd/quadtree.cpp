#include "wspd/quadtree.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace gsp {

QuadTree::QuadTree(const EuclideanMetric& m) : m_(m) {
    const std::size_t n = m.size();
    if (n == 0) throw std::invalid_argument("QuadTree: empty point set");
    const std::size_t d = m.dim();

    // Bounding cube.
    std::vector<double> lo(d, kInfiniteWeight), hi(d, -kInfiniteWeight);
    for (VertexId p = 0; p < n; ++p) {
        const auto pt = m.point(p);
        for (std::size_t k = 0; k < d; ++k) {
            lo[k] = std::min(lo[k], pt[k]);
            hi[k] = std::max(hi[k], pt[k]);
        }
    }
    double side = 0.0;
    for (std::size_t k = 0; k < d; ++k) side = std::max(side, hi[k] - lo[k]);
    if (side == 0.0) side = 1.0;  // all points coincide; any positive cell works
    side *= 1.0 + 1e-12;          // keep max-coordinate points strictly inside
    std::vector<double> center(d);
    for (std::size_t k = 0; k < d; ++k) center[k] = lo[k] + side / 2.0;

    std::vector<VertexId> all(n);
    for (VertexId p = 0; p < n; ++p) all[p] = p;
    build(std::move(all), std::move(center), side / 2.0, kNoNode);
}

std::uint32_t QuadTree::build(std::vector<VertexId> pts, std::vector<double> center,
                              double half_size, std::uint32_t parent) {
    const std::size_t d = m_.dim();
    const auto id = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back({});
    {
        Node& node = nodes_.back();
        node.parent = parent;
        node.count = pts.size();
        node.representative = pts.front();
    }

    if (pts.size() == 1) {
        // Collapse the singleton's cell to the point itself: enclosing
        // radius 0 makes any distinct pair of leaves well-separated, which
        // the WSPD recursion depends on.
        Node& node = nodes_[id];
        const auto pt = m_.point(pts[0]);
        node.center.assign(pt.begin(), pt.end());
        node.half_size = 0.0;
        node.points = std::move(pts);
        return id;
    }

    // Path compression: shrink the cell while all points share one child,
    // so chains of singleton-occupancy cells cost no nodes.
    auto child_index = [&](VertexId p, const std::vector<double>& c) {
        std::size_t idx = 0;
        const auto pt = m_.point(p);
        for (std::size_t k = 0; k < d; ++k) {
            if (pt[k] >= c[k]) idx |= (std::size_t{1} << k);
        }
        return idx;
    };
    for (;;) {
        const std::size_t first = child_index(pts[0], center);
        bool all_same = true;
        for (std::size_t i = 1; i < pts.size(); ++i) {
            if (child_index(pts[i], center) != first) {
                all_same = false;
                break;
            }
        }
        if (!all_same) break;
        // Descend into that child cell without creating a node.
        half_size /= 2.0;
        for (std::size_t k = 0; k < d; ++k) {
            center[k] += ((first >> k) & 1u) ? half_size : -half_size;
        }
        if (half_size <= 0.0 || !std::isfinite(half_size)) {
            throw std::invalid_argument("QuadTree: degenerate subdivision (duplicate points?)");
        }
    }

    // Partition into child cells.
    const std::size_t fanout = std::size_t{1} << d;
    std::vector<std::vector<VertexId>> buckets(fanout);
    for (VertexId p : pts) buckets[child_index(p, center)].push_back(p);

    nodes_[id].center = center;
    nodes_[id].half_size = half_size;
    for (std::size_t b = 0; b < fanout; ++b) {
        if (buckets[b].empty()) continue;
        std::vector<double> child_center(center);
        const double quarter = half_size / 2.0;
        for (std::size_t k = 0; k < d; ++k) {
            child_center[k] += ((b >> k) & 1u) ? quarter : -quarter;
        }
        const std::uint32_t child =
            build(std::move(buckets[b]), std::move(child_center), quarter, id);
        nodes_[id].children.push_back(child);
    }
    return id;
}

double QuadTree::enclosing_radius(std::uint32_t id) const {
    const Node& node = nodes_.at(id);
    return node.half_size * std::sqrt(static_cast<double>(m_.dim()));
}

double QuadTree::center_distance(std::uint32_t a, std::uint32_t b) const {
    const Node& na = nodes_.at(a);
    const Node& nb = nodes_.at(b);
    double sum = 0.0;
    for (std::size_t k = 0; k < m_.dim(); ++k) {
        const double diff = na.center[k] - nb.center[k];
        sum += diff * diff;
    }
    return std::sqrt(sum);
}

bool QuadTree::check_invariants() const {
    std::vector<int> seen(m_.size(), 0);
    for (std::uint32_t id = 0; id < nodes_.size(); ++id) {
        const Node& node = nodes_[id];
        if (node.count == 0) return false;
        if (node.children.empty()) {
            if (node.points.size() != node.count) return false;
            for (VertexId p : node.points) {
                ++seen[p];
                // Point inside the cell box.
                const auto pt = m_.point(p);
                for (std::size_t k = 0; k < m_.dim(); ++k) {
                    if (std::abs(pt[k] - node.center[k]) > node.half_size * (1 + 1e-9)) {
                        return false;
                    }
                }
            }
        } else {
            std::size_t child_total = 0;
            for (std::uint32_t c : node.children) {
                if (nodes_[c].parent != id) return false;
                if (nodes_[c].half_size > node.half_size) return false;
                child_total += nodes_[c].count;
            }
            if (child_total != node.count) return false;
        }
    }
    for (int s : seen) {
        if (s != 1) return false;
    }
    return true;
}

}  // namespace gsp
