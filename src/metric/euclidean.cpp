#include "metric/euclidean.hpp"

#include <cmath>
#include <stdexcept>

namespace gsp {

EuclideanMetric::EuclideanMetric(std::size_t dim, std::vector<double> coords)
    : dim_(dim), coords_(std::move(coords)) {
    if (dim_ == 0) throw std::invalid_argument("EuclideanMetric: dim must be >= 1");
    if (coords_.size() % dim_ != 0) {
        throw std::invalid_argument("EuclideanMetric: coords not a multiple of dim");
    }
    // A NaN or infinite coordinate makes distances NaN or infinite, which
    // no spanner construction can honor (some hang, some return too few
    // edges): refuse it at the door.
    for (const double x : coords_) {
        if (!std::isfinite(x)) {
            throw std::invalid_argument("EuclideanMetric: coordinates must be finite");
        }
    }
}

double EuclideanMetric::squared_distance(VertexId i, VertexId j) const {
    const double* a = coords_.data() + static_cast<std::size_t>(i) * dim_;
    const double* b = coords_.data() + static_cast<std::size_t>(j) * dim_;
    double sum = 0.0;
    for (std::size_t k = 0; k < dim_; ++k) {
        const double d = a[k] - b[k];
        sum += d * d;
    }
    return sum;
}

Weight EuclideanMetric::distance(VertexId i, VertexId j) const {
    if (i >= size() || j >= size()) {
        throw std::out_of_range("EuclideanMetric::distance: point out of range");
    }
    return std::sqrt(squared_distance(i, j));
}

void EuclideanMetric::distances_from(VertexId src, std::span<const VertexId> targets,
                                     Weight* out) const {
    const std::size_t n = targets.size();
    if (dim_ != 2) {
        for (std::size_t i = 0; i < n; ++i) out[i] = distance(src, targets[i]);
        return;
    }
    const double sx = coords_[2 * static_cast<std::size_t>(src)];
    const double sy = coords_[2 * static_cast<std::size_t>(src) + 1];
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t t = targets[i];
        const double dx = sx - coords_[2 * t];
        const double dy = sy - coords_[2 * t + 1];
        out[i] = std::sqrt(dx * dx + dy * dy);
    }
}

std::span<const double> EuclideanMetric::point(VertexId i) const {
    if (i >= size()) throw std::out_of_range("EuclideanMetric::point: out of range");
    return {coords_.data() + static_cast<std::size_t>(i) * dim_, dim_};
}

EuclideanMetric make_euclidean_2d(std::span<const std::pair<double, double>> pts) {
    std::vector<double> coords;
    coords.reserve(pts.size() * 2);
    for (const auto& [x, y] : pts) {
        coords.push_back(x);
        coords.push_back(y);
    }
    return EuclideanMetric(2, std::move(coords));
}

}  // namespace gsp
