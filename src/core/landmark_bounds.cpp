#include "core/landmark_bounds.hpp"

#include <algorithm>
#include <stdexcept>

#include "graph/graph.hpp"
#include "graph/incremental_csr.hpp"

namespace gsp {

void LandmarkTable::reset(std::size_t n, std::size_t k) {
    n_ = n;
    k_ = k;
    ready_ = false;
    landmarks_.clear();
}

template <class View>
GSP_SERIAL_ONLY void LandmarkTable::refresh(const View& view) {
    if (view.num_vertices() != n_) {
        throw std::invalid_argument("LandmarkTable::refresh: vertex count mismatch");
    }
    // Sized here, not in reset(): a run whose rule never fires (one weight
    // bucket, say) pays no table memory at all.
    dist_.assign(n_ * k_, kInfiniteWeight);
    nearest_.assign(n_, kInfiniteWeight);
    landmarks_.clear();
    const std::size_t count = std::min(k_, n_);
    for (std::size_t i = 0; i < count; ++i) {
        // Farthest-point pick: the largest distance to the chosen set, so
        // +infinity (unreachable from every landmark so far) wins first;
        // the strict comparison keeps the smallest id among ties.
        VertexId pick = 0;
        for (VertexId x = 1; x < n_; ++x) {
            if (nearest_[x] > nearest_[pick]) pick = x;
        }
        landmarks_.push_back(pick);

        // One full tree: with an infinite limit the ball is every vertex
        // reachable from the landmark, each with its exact distance.
        for (const auto& [x, d] : sssp_.ball(view, pick, kInfiniteWeight)) {
            dist_[static_cast<std::size_t>(x) * k_ + i] = d;
            nearest_[x] = std::min(nearest_[x], d);
        }
    }
    ready_ = count > 0;
}

template void LandmarkTable::refresh<Graph>(const Graph&);
template void LandmarkTable::refresh<IncrementalCsrView>(const IncrementalCsrView&);

}  // namespace gsp
