#include "core/bound_sketch.hpp"

#include <algorithm>
#include <stdexcept>

namespace gsp {

void BoundSketch::reset(std::size_t n, std::size_t ways) {
    if (ways == 0 || (ways & (ways - 1)) != 0) {
        throw std::invalid_argument("BoundSketch: ways must be a power of two >= 1");
    }
    ways_ = ways;
    const std::size_t slots = n * ways_;
    src_.assign(slots, kNoVertex);
    ub_.assign(slots, kInfiniteWeight);
}

GSP_SERIAL_ONLY void BoundSketch::record_upper(VertexId src, VertexId x, Weight ub) {
    const std::size_t s = slot(x, src);
    if (src_[s] != src) {
        // Deterministic eviction: the newest source owning this way wins,
        // and the loser's bound is forgotten, never blended.
        src_[s] = src;
        ub_[s] = ub;
    } else {
        ub_[s] = std::min(ub_[s], ub);
    }
}

GSP_DECISION_PURE GSP_HOT_PATH Weight BoundSketch::upper_bound(VertexId u,
                                                               VertexId v) const {
    Weight best = kInfiniteWeight;
    const std::size_t a = slot(v, u);
    if (src_[a] == u) best = ub_[a];
    const std::size_t b = slot(u, v);
    if (src_[b] == v) best = std::min(best, ub_[b]);
    return best;
}

GSP_DECISION_PURE GSP_HOT_PATH Weight BoundSketch::via_upper_bound(
    VertexId u, VertexId v) const {
    // u's ways each name one landmark src with ub(src, u); the matching
    // way of v (same low bits of src) holds v's record of the same
    // landmark iff the sources agree. An unmatched way contributes
    // +infinity; two empty ways match but sum to +infinity too, so the
    // loop needs no branch and the compiler may vectorize it.
    const std::size_t ubase = static_cast<std::size_t>(u) * ways_;
    const std::size_t vbase = static_cast<std::size_t>(v) * ways_;
    const VertexId* su = src_.data() + ubase;
    const VertexId* sv = src_.data() + vbase;
    const Weight* bu = ub_.data() + ubase;
    const Weight* bv = ub_.data() + vbase;
    Weight best = kInfiniteWeight;
    for (std::size_t w = 0; w < ways_; ++w) {
        const Weight via = su[w] == sv[w] ? bu[w] + bv[w] : kInfiniteWeight;
        best = via < best ? via : best;
    }
    return best;
}

}  // namespace gsp
